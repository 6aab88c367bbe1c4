// Layer probes: each calls one layer's public functions from outside the
// program and times them on the calling thread, wrapped in benchmark spans.

#include <algorithm>

#include "codec/codec.h"
#include "common/crc32.h"
#include "common/stopwatch.h"
#include "orc/reader.h"
#include "perfbench/src/bench.h"
#include "ql/analyzer.h"
#include "ql/optimizer.h"
#include "ql/parser.h"
#include "ql/task_compiler.h"

namespace minihive::perfbench {

namespace {

/// Ends `span` and returns its duration in microseconds.
double EndUs(telemetry::Span* span) {
  span->End();
  return span->duration_nanos() / 1e3;
}

}  // namespace

PlanProbe ProbePlan(ql::Catalog* catalog, const ql::DriverOptions& options,
                    const std::string& sql, telemetry::Span* parent) {
  PlanProbe probe;
  telemetry::Span* root = parent->StartChild("probe.plan");

  telemetry::Span* span = root->StartChild("ql.parse");
  ql::AstQueryPtr ast = CheckResult(ql::ParseQuery(sql), "probe parse");
  probe.parse_us = EndUs(span);

  span = root->StartChild("ql.analyze");
  ql::Analyzer analyzer(catalog);
  ql::PlannedQuery plan = CheckResult(
      analyzer.Analyze(*ast, "/tmp/perfbench-probe/result"), "probe analyze");
  probe.analyze_us = EndUs(span);

  // The driver's optimizer sequence for these options (Driver::RunOnce).
  span = root->StartChild("ql.optimize");
  Check(ql::PushdownIntoScans(&plan, options.predicate_pushdown),
        "probe pushdown");
  for (const exec::OpDescPtr& scan : plan.roots) {
    if (scan->kind != exec::OpKind::kTableScan || scan->table_name.empty()) {
      continue;
    }
    probe.scans.push_back(
        {scan->table_name, scan->scan_projection, scan->sarg});
  }
  bool answered = false;
  if (options.stats_aggregation) {
    std::vector<Row> rows;
    Check(ql::TryAnswerFromStatistics(plan, catalog, &answered, &rows),
          "probe stats answer");
  }
  if (!answered) {
    if (options.mapjoin_conversion) {
      Check(ql::ConvertMapJoins(&plan, catalog,
                                options.mapjoin_threshold_bytes),
            "probe map joins");
    }
    if (options.merge_maponly_jobs) {
      Check(ql::MergeMapOnlyJobs(&plan, options.mapjoin_threshold_bytes),
            "probe merge map-only");
    }
    if (options.correlation_optimizer) {
      Check(ql::ApplyCorrelationOptimizer(&plan), "probe correlation");
    }
  }
  probe.optimize_us = EndUs(span);
  if (answered) {
    root->End();
    return probe;
  }

  span = root->StartChild("ql.compile");
  ql::CompileTasksOptions compile_options;
  compile_options.default_reducers = options.default_reducers;
  compile_options.map_aggr_flush_entries = options.map_aggr_flush_entries;
  ql::CompiledPlan compiled = CheckResult(
      ql::CompileTasks(&plan, "/tmp/perfbench-probe", compile_options),
      "probe compile");
  probe.compile_us = EndUs(span);
  probe.jobs = static_cast<int>(compiled.jobs.size());
  for (const ql::MapRedJob& job : compiled.jobs) {
    if (job.num_reducers == 0) ++probe.map_only_jobs;
  }
  root->End();
  return probe;
}

ScanProbe ProbeScans(ql::Catalog* catalog, const PlanProbe& plan,
                     telemetry::Span* parent) {
  ScanProbe probe;
  dfs::FileSystem* fs = catalog->fs();
  telemetry::Span* root = parent->StartChild("probe.orc");
  for (const PlanProbe::Scan& scan : plan.scans) {
    ql::TableDesc table =
        CheckResult(catalog->GetTableCopy(scan.table), "probe table");
    if (table.format != formats::FormatKind::kOrcFile) continue;
    // Managed tables: the current snapshot's files with their bitmaps.
    std::vector<std::pair<std::string, std::shared_ptr<const DeleteBitmap>>>
        files;
    if (table.managed()) {
      for (const ql::TableFile& f : catalog->Snapshot(table)->files) {
        files.emplace_back(f.path, f.delete_bitmap);
      }
    } else {
      for (const std::string& path : catalog->TableFiles(table)) {
        files.emplace_back(path, nullptr);
      }
    }
    for (const auto& [path, bitmap] : files) {
      orc::OrcReadOptions options;
      options.projected_fields = scan.projection;
      options.sarg = scan.sarg.get();
      options.delete_bitmap = bitmap.get();
      const uint64_t bytes_before = fs->stats().bytes_read.load();
      ThreadCpuTimer cpu;
      telemetry::Span* span = root->StartChild("orc.scan");
      span->SetAttr("path", std::string_view(path));
      telemetry::Span* open_span = span->StartChild("orc.open");
      std::unique_ptr<orc::OrcReader> reader =
          CheckResult(orc::OrcReader::Open(fs, path, options), "probe open");
      probe.open_us += EndUs(open_span);
      auto batch = CheckResult(reader->CreateBatch(), "probe batch");
      while (CheckResult(reader->NextBatch(batch.get()), "probe read")) {
      }
      span->End();
      probe.scan_ms += span->duration_nanos() / 1e6;
      probe.cpu_ms += cpu.ElapsedMillis();
      probe.rows += static_cast<double>(reader->tail().num_rows);
      probe.groups_read += static_cast<double>(reader->groups_read());
      probe.groups_total += static_cast<double>(reader->groups_read() +
                                                reader->groups_skipped());
      probe.rows_late_skipped +=
          static_cast<double>(reader->rows_late_skipped());
      probe.bytes_read +=
          static_cast<double>(fs->stats().bytes_read.load() - bytes_before);
    }
  }
  root->End();
  return probe;
}

ByteProbe ProbeBytes(ql::Catalog* catalog,
                     const std::vector<std::string>& tables,
                     telemetry::Span* parent) {
  // Enough bytes for a steady per-byte figure without reading whole tables.
  constexpr uint64_t kMaxBytes = 64ull << 20;
  dfs::FileSystem* fs = catalog->fs();
  ByteProbe probe;
  telemetry::Span* root = parent->StartChild("probe.bytes");
  uint64_t crc_bytes = 0, compressed_bytes = 0;
  double crc_ns = 0, decompress_ns = 0;
  uint32_t sink = 0;
  for (const std::string& name : tables) {
    ql::TableDesc table =
        CheckResult(catalog->GetTableCopy(name), "probe table");
    for (const std::string& path : catalog->TableFiles(table)) {
      if (crc_bytes >= kMaxBytes) break;
      auto file = CheckResult(fs->Open(path), "probe open file");
      std::string bytes;
      Check(file->ReadAt(0, std::min(file->Size(), kMaxBytes - crc_bytes),
                         &bytes),
            "probe read file");
      telemetry::Span* span = root->StartChild("common.crc32");
      sink ^= Crc32(bytes);
      span->End();
      crc_ns += static_cast<double>(span->duration_nanos());
      crc_bytes += bytes.size();

      if (table.compression == codec::CompressionKind::kNone ||
          table.format != formats::FormatKind::kOrcFile) {
        continue;
      }
      // Every stripe section (index, data, footer) is a sequence of
      // compression units; decompress each stripe as one sequence.
      auto reader = CheckResult(orc::OrcReader::Open(fs, path), "probe tail");
      const codec::Codec* codec = codec::GetCodec(reader->tail().compression);
      for (const orc::StripeInformation& stripe : reader->tail().stripes) {
        std::string stored, out;
        const uint64_t length =
            stripe.index_length + stripe.data_length + stripe.footer_length;
        Check(file->ReadAt(stripe.offset, length, &stored), "probe stripe");
        span = root->StartChild("codec.decompress");
        Check(codec::DecompressUnits(codec, stored, &out), "probe decompress");
        span->End();
        decompress_ns += static_cast<double>(span->duration_nanos());
        compressed_bytes += stored.size();
      }
    }
  }
  root->SetAttr("crc_fold", static_cast<uint64_t>(sink));
  root->End();
  if (crc_bytes > 0) probe.crc_ns_per_byte = crc_ns / crc_bytes;
  if (compressed_bytes > 0) {
    probe.decompress_ns_per_byte = decompress_ns / compressed_bytes;
  }
  return probe;
}

void AddProbeMetrics(const std::vector<ClassProbe>& classes,
                     const ByteProbe& bytes, double bytes_read_per_query,
                     double compressed_bytes_per_query, Report* report) {
  double parse = 0, analyze = 0, optimize = 0, compile = 0, jobs = 0,
         map_only = 0, open = 0, scan_ms = 0, rows = 0, groups_read = 0,
         groups_total = 0, late = 0, scan_bytes = 0, operator_cpu = 0;
  for (const ClassProbe& c : classes) {
    const double w = c.weight;
    parse += w * c.plan.parse_us;
    analyze += w * c.plan.analyze_us;
    optimize += w * c.plan.optimize_us;
    compile += w * c.plan.compile_us;
    jobs += w * c.plan.jobs;
    map_only += w * c.plan.map_only_jobs;
    open += w * c.scan.open_us;
    scan_ms += w * c.scan.scan_ms;
    rows += w * c.scan.rows;
    groups_read += w * c.scan.groups_read;
    groups_total += w * c.scan.groups_total;
    late += w * c.scan.rows_late_skipped;
    scan_bytes += w * c.scan.bytes_read;
    operator_cpu += w * (c.task_cpu_ms - c.scan.cpu_ms);
  }
  report->Set("ql.parse_us", parse, "us");
  report->Set("ql.analyze_us", analyze, "us");
  report->Set("ql.optimize_us", optimize, "us");
  report->Set("ql.compile_us", compile, "us");
  report->Set("ql.jobs", jobs, "count");
  report->Set("ql.map_only_jobs", map_only, "count");
  report->Set("orc.open_us", open, "us");
  report->Set("orc.scan_ns_per_row", rows > 0 ? scan_ms * 1e6 / rows : 0,
              "ns");
  report->Set("orc.groups_read_frac",
              groups_total > 0 ? groups_read / groups_total : 0, "frac");
  report->Set("orc.rows_late_skipped", late, "count");
  report->Set("orc.bytes_per_row", rows > 0 ? scan_bytes / rows : 0, "bytes");
  report->Set("exec.operator_cpu_ms", operator_cpu, "ms");
  report->Set("crc.ns_per_byte", bytes.crc_ns_per_byte, "ns");
  report->Set("crc.est_ms", bytes_read_per_query * bytes.crc_ns_per_byte / 1e6,
              "ms");
  report->Set("codec.decompress_ns_per_byte", bytes.decompress_ns_per_byte,
              "ns");
  report->Set("codec.est_ms",
              compressed_bytes_per_query * bytes.decompress_ns_per_byte / 1e6,
              "ms");
}

}  // namespace minihive::perfbench
