// Microbenchmarks for the session metadata cache (LLAP-style, scaled down):
//   1. Cache core operations — insert / hit / miss throughput, without
//      contention (single-threaded; common_cache_test covers the
//      concurrent budget contract).
//   2. ORC reopen — the metadata cache eliminating tail re-parse and
//      checksum re-verification when a file is opened again in the session.
// The machine-independent counters (hit/miss/byte counts) are gated against
// bench/baseline/; timings are recorded for humans only.

#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "common/cache.h"
#include "common/stopwatch.h"
#include "dfs/file_system.h"
#include "orc/reader.h"
#include "orc/writer.h"

namespace minihive {
namespace {

using bench::Check;
using bench::CheckResult;
using bench::Fmt;
using bench::TablePrinter;

struct CoreOpsResult {
  double insert_ms = 0;
  double hit_ms = 0;
  double miss_ms = 0;
  int ops = 0;
};

/// A (path, generation, offset) key, the shape of the metadata cache's.
std::string CoreKey(uint64_t generation, uint64_t offset) {
  return cache::KeyBuilder("bench")
      .Add("/bench/core")
      .Add(generation)
      .Add(offset)
      .Take();
}

CoreOpsResult BenchCoreOps() {
  const int kOps = bench::SmokeScaled(200000, 20000);
  const size_t kValueBytes = 256;
  // Budget sized so the working set fits: hits are real hits.
  cache::Cache cache(static_cast<uint64_t>(kOps) * 512);
  auto value = std::make_shared<const std::string>(kValueBytes, 'v');

  CoreOpsResult r;
  r.ops = kOps;
  Stopwatch watch;
  for (int i = 0; i < kOps; ++i) {
    cache.Insert(CoreKey(1, i), value, kValueBytes + cache::kEntryOverhead);
  }
  r.insert_ms = watch.ElapsedMillis();

  watch.Reset();
  for (int i = 0; i < kOps; ++i) cache.Lookup(CoreKey(1, i));
  r.hit_ms = watch.ElapsedMillis();

  watch.Reset();
  for (int i = 0; i < kOps; ++i) cache.Lookup(CoreKey(2, i));
  r.miss_ms = watch.ElapsedMillis();
  return r;
}

struct ReopenResult {
  double cold_open_ms = 0;
  double warm_open_ms = 0;
  uint64_t meta_hits = 0;
  uint64_t meta_misses = 0;
};

ReopenResult BenchOrcReopen() {
  const int kRows = bench::SmokeScaled(200000, 20000);
  const int kReopens = 20;
  dfs::FileSystem fs;
  auto caches =
      std::make_shared<cache::CacheManager>(/*metadata_cache_bytes=*/16 << 20);
  fs.set_cache_manager(caches);

  TypePtr schema = CheckResult(
      TypeDescription::Parse("struct<k:bigint,v:string,x:double>"), "schema");
  auto writer =
      CheckResult(orc::OrcWriter::Create(&fs, "/bench/orc", schema), "writer");
  for (int i = 0; i < kRows; ++i) {
    Check(writer->AddRow({Value::Int(i),
                          Value::String("row-" + std::to_string(i % 1000)),
                          Value::Double(i * 0.25)}),
          "add row");
  }
  Check(writer->Close(), "orc close");

  ReopenResult r;
  Stopwatch watch;
  auto first = CheckResult(orc::OrcReader::Open(&fs, "/bench/orc"), "open");
  r.cold_open_ms = watch.ElapsedMillis();
  (void)first;

  watch.Reset();
  for (int i = 0; i < kReopens; ++i) {
    auto reader =
        CheckResult(orc::OrcReader::Open(&fs, "/bench/orc"), "reopen");
    if (!reader->tail_cache_hit()) {
      std::fprintf(stderr, "FATAL: reopen missed the metadata cache\n");
      std::abort();
    }
  }
  r.warm_open_ms = watch.ElapsedMillis() / kReopens;
  r.meta_hits = caches->metadata_cache()->stats().hits;
  r.meta_misses = caches->metadata_cache()->stats().misses;
  fs.set_cache_manager(nullptr);
  return r;
}

int Main() {
  std::printf("=== Micro: session ORC metadata cache ===\n\n");
  bench::BenchReporter reporter("micro_cache");

  CoreOpsResult core = BenchCoreOps();
  ReopenResult reopen = BenchOrcReopen();

  TablePrinter ops({"operation", "ops", "total ms", "Mops/s"});
  auto rate = [&](double ms) {
    return Fmt(ms > 0 ? core.ops / ms / 1000.0 : 0.0);
  };
  ops.AddRow({"cache insert", std::to_string(core.ops), Fmt(core.insert_ms),
              rate(core.insert_ms)});
  ops.AddRow({"cache hit", std::to_string(core.ops), Fmt(core.hit_ms),
              rate(core.hit_ms)});
  ops.AddRow({"cache miss", std::to_string(core.ops), Fmt(core.miss_ms),
              rate(core.miss_ms)});
  ops.Print();

  TablePrinter orc_t({"pass", "open ms", "meta hits", "meta misses"});
  orc_t.AddRow({"ORC cold open", Fmt(reopen.cold_open_ms), "0",
                std::to_string(reopen.meta_misses)});
  orc_t.AddRow({"ORC reopen (avg)", Fmt(reopen.warm_open_ms),
                std::to_string(reopen.meta_hits), ""});
  orc_t.Print();

  reporter.AddMetric("core.ops", core.ops, "count");
  reporter.AddMetric("core.insert_ms", core.insert_ms, "ms");
  reporter.AddMetric("core.hit_ms", core.hit_ms, "ms");
  reporter.AddMetric("core.miss_ms", core.miss_ms, "ms");
  reporter.AddMetric("orc.cold_open_ms", reopen.cold_open_ms, "ms");
  reporter.AddMetric("orc.reopen_ms", reopen.warm_open_ms, "ms");
  reporter.AddMetric("orc.metadata_cache_hits",
                     static_cast<double>(reopen.meta_hits), "count");
  reporter.AddMetric("orc.metadata_cache_misses",
                     static_cast<double>(reopen.meta_misses), "count");
  reporter.Write();

  std::printf("shape checks:\n");
  std::printf("  every reopen hit the metadata cache: yes\n");
  return 0;
}

}  // namespace
}  // namespace minihive

int main() { return minihive::Main(); }
