// ingest_serve: one SessionManager (2 workers, otherwise defaults: shared
// caches, admission control) serving a managed table
//   ingest (k BIGINT, grp INT, amount DOUBLE) PARTITIONED BY (grp)
//   UNIQUE KEY (k)
// preloaded with 100k keys and compacted. During the run:
//   - one open-loop writer issues 10 statements/s: nine of ten are 250-row
//     INSERTs of seeded keys from [0, 100k) (upserts), the tenth a DELETE of
//     a 100-key range. Write latency counts from when the statement was due.
//   - one closed-loop reader runs a GROUP BY grp aggregate.
//   - compaction sweeps in the background (CompactionManager::RunOnce every
//     200 ms, default options) on the manager's scheduler and root budget.
// Each read must equal the writer's model of the table at some commit that
// could have been current while the read ran.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "common/random.h"
#include "common/session.h"
#include "common/stopwatch.h"
#include "perfbench/src/bench.h"
#include "ql/compaction.h"

namespace minihive::perfbench {

namespace {

constexpr int64_t kKeys = 100000;
constexpr int kPartitions = 4;
constexpr int kInsertRows = 250;
constexpr int64_t kDeleteRange = 100;
constexpr double kStatementsPerSecond = 10;
constexpr int kReaders = 1;
/// One reader on two workers leaves cores free on the 4-vCPU host the
/// benchmark is sized for. With every core busy, a woken writer waits a
/// scheduler slice for one, and write and read latency follow the host's
/// scheduling rather than the program.
constexpr int kWorkers = 2;
constexpr int kPreloadStatements = 10;
constexpr int kSweepIntervalMs = 200;  // CompactionOptions::interval_millis.
/// Bytes of one user row: k BIGINT + grp INT + amount DOUBLE.
constexpr double kUserRowBytes = 8 + 4 + 8;

const char kTable[] = "ingest";
const char kReadSql[] =
    "SELECT grp, COUNT(*) AS n, SUM(amount) AS total FROM ingest GROUP BY grp";

/// Per-partition (live rows, SUM(amount)): the answer kReadSql must give.
/// Amounts are multiples of 1/4, so every sum is exact in any order.
using Answer = std::array<std::pair<int64_t, double>, kPartitions>;

std::vector<Row> AnswerRows(const Answer& answer) {
  std::vector<Row> rows;
  for (int g = 0; g < kPartitions; ++g) {
    if (answer[g].first == 0) continue;
    rows.push_back({Value::Int(g), Value::Int(answer[g].first),
                    Value::Double(answer[g].second)});
  }
  return rows;
}

/// The writer's model of the table after every acknowledged statement.
struct Model {
  std::vector<double> amount = std::vector<double>(kKeys, 0);
  std::vector<uint8_t> live = std::vector<uint8_t>(kKeys, 0);
  Answer answer{};
  int64_t live_rows = 0;

  void Upsert(int64_t k, double v) {
    auto& [count, sum] = answer[k % kPartitions];
    if (live[k]) {
      sum -= amount[k];
    } else {
      live[k] = 1;
      ++count;
      ++live_rows;
    }
    amount[k] = v;
    sum += v;
  }
  /// Deletes keys in [lo, hi); returns how many were live.
  uint64_t Delete(int64_t lo, int64_t hi) {
    uint64_t deleted = 0;
    for (int64_t k = lo; k < hi; ++k) {
      if (!live[k]) continue;
      auto& [count, sum] = answer[k % kPartitions];
      live[k] = 0;
      --count;
      --live_rows;
      sum -= amount[k];
      ++deleted;
    }
    return deleted;
  }
};

struct Statement {
  std::string sql;
  bool is_delete = false;
  int64_t lo = 0, hi = 0;                          // DELETE range.
  std::vector<std::pair<int64_t, double>> upserts;  // INSERT rows.
};

/// A seeded amount n/4 with its exact decimal literal.
std::pair<double, std::string> Amount(Random* rng) {
  const int n = static_cast<int>(rng->Uniform(4000));
  return {n / 4.0, Fmt("%d.%02d", n / 4, (n % 4) * 25)};
}

Statement InsertStatement(const std::vector<int64_t>& keys, Random* rng) {
  Statement st;
  st.sql = std::string("INSERT INTO ") + kTable + " VALUES ";
  for (size_t i = 0; i < keys.size(); ++i) {
    auto [value, literal] = Amount(rng);
    st.sql += Fmt("%s(%lld, %d, %s)", i == 0 ? "" : ", ",
                  static_cast<long long>(keys[i]),
                  static_cast<int>(keys[i] % kPartitions), literal.c_str());
    st.upserts.emplace_back(keys[i], value);
  }
  return st;
}

/// The index-th statement of the writer's stream.
Statement NextStatement(uint64_t index, Random* rng) {
  if (index % 10 == 9) {
    Statement st;
    st.is_delete = true;
    st.lo = static_cast<int64_t>(rng->Uniform(kKeys - kDeleteRange));
    st.hi = st.lo + kDeleteRange;
    st.sql = Fmt("DELETE FROM %s WHERE k >= %lld AND k < %lld", kTable,
                 static_cast<long long>(st.lo), static_cast<long long>(st.hi));
    return st;
  }
  std::vector<int64_t> keys;
  std::unordered_set<int64_t> seen;
  while (keys.size() < kInsertRows) {
    const int64_t k = static_cast<int64_t>(rng->Uniform(kKeys));
    if (seen.insert(k).second) keys.push_back(k);
  }
  return InsertStatement(keys, rng);
}

struct IngestEnv {
  std::unique_ptr<dfs::FileSystem> fs;
  std::unique_ptr<ql::Catalog> catalog;
  std::unique_ptr<SessionManager> manager;
  std::unique_ptr<ql::CompactionManager> compactor;
  Model model;
  Random rng{0};
  uint64_t statements = 0;  // Writer statements issued so far.
};

/// Verifies a statement's acknowledgement against the model and applies it.
bool ApplyStatement(const Statement& st, uint64_t rows_affected, Model* model) {
  if (st.is_delete) return model->Delete(st.lo, st.hi) == rows_affected;
  for (const auto& [k, v] : st.upserts) model->Upsert(k, v);
  return rows_affected == st.upserts.size();
}

std::unique_ptr<IngestEnv> Setup(const Args& args) {
  auto env = std::make_unique<IngestEnv>();
  env->fs = std::make_unique<dfs::FileSystem>();
  env->catalog = std::make_unique<ql::Catalog>(env->fs.get());
  SessionManagerOptions manager_options;
  manager_options.num_workers = kWorkers;
  env->manager = std::make_unique<SessionManager>(manager_options);
  env->compactor = std::make_unique<ql::CompactionManager>(
      env->fs.get(), env->catalog.get(), ql::CompactionOptions(),
      env->manager->scheduler(), env->manager->root_budget());
  env->rng = Random(DeriveSeed(args.seed, 0));

  std::unique_ptr<Session> session = env->manager->NewSession("setup");
  ql::DriverOptions options;
  options.session = session.get();
  ql::Driver driver(env->fs.get(), env->catalog.get(), options);
  Check(driver
            .Execute(std::string("CREATE TABLE ") + kTable +
                     " (k BIGINT, grp INT, amount DOUBLE) "
                     "PARTITIONED BY (grp) UNIQUE KEY (k)")
            .status(),
        "create table");
  const int64_t per_statement = kKeys / kPreloadStatements;
  for (int s = 0; s < kPreloadStatements; ++s) {
    std::vector<int64_t> keys;
    for (int64_t k = s * per_statement; k < (s + 1) * per_statement; ++k) {
      keys.push_back(k);
    }
    Statement st = InsertStatement(keys, &env->rng);
    ql::QueryResult result = CheckResult(driver.Execute(st.sql), "preload");
    if (!ApplyStatement(st, result.rows_affected, &env->model)) {
      Check(Status::Internal("preload row count"), "preload");
    }
  }
  // Compact to quiescence: a sweep that changes nothing ends it.
  for (int i = 0; i < 200; ++i) {
    ql::CompactionStats s =
        CheckResult(env->compactor->RunOnce(), "preload compaction");
    if (s.files_removed == 0 && s.files_written == 0 &&
        s.tombstones_deleted == 0) {
      break;
    }
  }
  ql::QueryResult warm = CheckResult(driver.Execute(kReadSql), "warm-up read");
  if (!SameRows(warm.rows, AnswerRows(env->model.answer))) {
    Check(Status::Internal("wrong warm-up answer"), "warm-up read");
  }
  return env;
}

struct Read {
  double start_s = 0, end_s = 0;
  bool ok = false;
  std::vector<Row> rows;
  QueryBreakdown breakdown;
  double cpu_ms = 0;
};

/// A commit of the writer: possibly current from `start_s` (the statement
/// began) until the next commit's `ack_s`.
struct Commit {
  double start_s = 0, ack_s = 0;
  Answer answer;
};

struct PhaseResult {
  std::vector<double> read_ms, late_ms, sweep_ms, read_cpu_ms;
  std::vector<double> upsert_ms, delete_ms, write_ms;  // From due time.
  std::vector<QueryBreakdown> breakdowns;
  uint64_t attempted = 0, failed = 0, reads_ok = 0;
  uint64_t rows_written = 0;
  double elapsed_s = 0;
  IoSnapshot io_before, io_after;
  ql::CompactionStats compaction_before, compaction_after;
};

/// Runs writer, readers and compaction for `seconds`. With a `trace` span,
/// readers profile their queries and each read gets a client-side span.
PhaseResult RunPhase(IngestEnv* env, double seconds, telemetry::Span* trace) {
  const bool traced = trace != nullptr;
  PhaseResult r;
  r.io_before = TakeIo(env->fs.get());
  r.compaction_before = env->compactor->totals();
  const double t0 = NowSeconds();
  const double t_end = t0 + seconds;

  // Background compaction, timed sweep by sweep. Sweeps are due on the
  // writer's clock, halfway between two of its statements, so a seed
  // replays the same order of commits and sweeps and so the same table.
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stopping = false;
  std::thread compaction([&] {
    std::unique_lock<std::mutex> lock(stop_mu);
    for (uint64_t k = 0;; ++k) {
      const double due = t0 + 0.5 / kStatementsPerSecond +
                         k * (kSweepIntervalMs / 1e3);
      const auto deadline = std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(due)));
      if (stop_cv.wait_until(lock, deadline, [&] { return stopping; })) break;
      lock.unlock();
      Stopwatch sweep;
      env->compactor->RunOnce().status().ok();  // Failures land in totals().
      r.sweep_ms.push_back(sweep.ElapsedMillis());
      lock.lock();
    }
  });

  std::vector<std::vector<Read>> reads(kReaders);
  std::vector<std::thread> readers;
  for (int c = 0; c < kReaders; ++c) {
    readers.emplace_back([&, c] {
      std::unique_ptr<Session> session =
          env->manager->NewSession("reader-" + std::to_string(c));
      ql::DriverOptions options;
      options.session = session.get();
      options.enable_profiling = traced;
      ql::Driver driver(env->fs.get(), env->catalog.get(), options);
      while (NowSeconds() < t_end) {
        Read read;
        telemetry::Span* span =
            traced ? trace->StartChild("read:" + std::to_string(c)) : nullptr;
        read.start_s = NowSeconds();
        Result<ql::QueryResult> result = driver.Execute(kReadSql);
        read.end_s = NowSeconds();
        if (span != nullptr) span->End();
        read.ok = result.ok();
        if (!result.ok()) {
          std::fprintf(stderr, "perfbench: read failed: %s\n",
                       result.status().ToString().c_str());
        } else {
          if (traced) {
            read.breakdown =
                ReadBreakdown(*result, (read.end_s - read.start_s) * 1e3);
            read.cpu_ms = result->counters.cpu_millis();
          }
          read.rows = std::move(result->rows);
        }
        reads[c].push_back(std::move(read));
      }
    });
  }

  // The open-loop writer runs on this thread.
  constexpr double kNever = -std::numeric_limits<double>::infinity();
  std::vector<Commit> history = {{kNever, kNever, env->model.answer}};
  {
    std::unique_ptr<Session> session = env->manager->NewSession("writer");
    ql::DriverOptions options;
    options.session = session.get();
    ql::Driver writer(env->fs.get(), env->catalog.get(), options);
    for (uint64_t i = 0;; ++i) {
      const double due = t0 + i / kStatementsPerSecond;
      if (due >= t_end) break;
      const double wait = due - NowSeconds();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      const double start = NowSeconds();
      r.late_ms.push_back((start - due) * 1e3);
      const Statement st = NextStatement(env->statements++, &env->rng);
      ++r.attempted;
      Result<ql::QueryResult> result = writer.Execute(st.sql);
      const double ack = NowSeconds();
      if (!result.ok()) {
        ++r.failed;
        std::fprintf(stderr, "perfbench: write failed: %s\n",
                     result.status().ToString().c_str());
        continue;
      }
      if (!ApplyStatement(st, result->rows_affected, &env->model)) {
        ++r.failed;
        std::fprintf(stderr, "perfbench: write acknowledged a wrong count\n");
      }
      if (!st.is_delete) r.rows_written += st.upserts.size();
      r.write_ms.push_back((ack - due) * 1e3);
      (st.is_delete ? r.delete_ms : r.upsert_ms).push_back(r.write_ms.back());
      history.push_back({start, ack, env->model.answer});
    }
  }
  for (std::thread& t : readers) t.join();
  {
    std::lock_guard<std::mutex> lock(stop_mu);
    stopping = true;
  }
  stop_cv.notify_all();
  compaction.join();
  r.elapsed_s = NowSeconds() - t0;
  r.io_after = TakeIo(env->fs.get());
  r.compaction_after = env->compactor->totals();

  // A read may see commit j if j could have been current while it ran.
  for (const std::vector<Read>& client : reads) {
    for (const Read& read : client) {
      ++r.attempted;
      bool matched = false;
      for (size_t j = 0; read.ok && j < history.size() && !matched; ++j) {
        const bool begun = history[j].start_s <= read.end_s;
        const bool not_replaced =
            j + 1 == history.size() || history[j + 1].ack_s >= read.start_s;
        matched = begun && not_replaced &&
                  SameRows(read.rows, AnswerRows(history[j].answer));
      }
      if (!matched) {
        ++r.failed;
        if (read.ok) std::fprintf(stderr, "perfbench: read saw no commit\n");
        continue;
      }
      ++r.reads_ok;
      r.read_ms.push_back((read.end_s - read.start_s) * 1e3);
      if (traced) {
        r.breakdowns.push_back(read.breakdown);
        r.read_cpu_ms.push_back(read.cpu_ms);
      }
    }
  }
  return r;
}

double BytesPerLiveRow(IngestEnv* env) {
  ql::TableDesc table =
      CheckResult(env->catalog->GetTableCopy(kTable), "table");
  return static_cast<double>(env->fs->TotalSize(table.path_prefix + "/")) /
         std::max<int64_t>(1, env->model.live_rows);
}

void AddTableMetrics(IngestEnv* env, const PhaseResult& r, Report* report) {
  ql::TableDesc table =
      CheckResult(env->catalog->GetTableCopy(kTable), "table");
  auto snapshot = env->catalog->Snapshot(table);
  double physical = 0, deleted = 0;
  for (const ql::TableFile& f : snapshot->files) {
    physical += static_cast<double>(f.num_rows);
    deleted += static_cast<double>(f.num_rows - f.live_rows());
  }
  const double written = std::max<double>(1, r.rows_written);
  const ql::CompactionStats& a = r.compaction_before;
  const ql::CompactionStats& b = r.compaction_after;
  report->Set("table.files", static_cast<double>(snapshot->files.size()),
              "count");
  report->Set("table.delete_debt_frac", physical > 0 ? deleted / physical : 0,
              "frac");
  report->Set("table.bytes_per_live_row", BytesPerLiveRow(env), "bytes");
  report->Set("write.bytes_per_user_byte",
              (r.io_after.bytes_written - r.io_before.bytes_written) /
                  (written * kUserRowBytes),
              "x");
  report->Set("compaction.sweep_ms", Mean(r.sweep_ms), "ms");
  report->Set("compaction.rows_rewritten_per_row_written",
              (b.rows_rewritten - a.rows_rewritten) / written, "x");
  report->Set("compaction.budget_skips",
              static_cast<double>(b.budget_skips - a.budget_skips), "count");
  report->Set("gen.late_ms", Mean(r.late_ms), "ms");
}

}  // namespace

Report RunIngestServe(const Args& args) {
  Report report;
  double setup_s = 0;
  std::unique_ptr<IngestEnv> env =
      RepeatSetup<IngestEnv>(args, [&] { return Setup(args); }, &setup_s);

  if (!args.trace) {
    RssSampler rss;
    PhaseResult r = RunPhase(env.get(), args.seconds, nullptr);
    report.attempted = r.attempted;
    report.failed = r.failed;
    AddLatencyMetrics({"read", "upsert", "delete"},
                      {r.read_ms, r.upsert_ms, r.delete_ms}, &report);
    report.Note(Fmt("read_p99_ms = %.3f ms", Percentile(r.read_ms, 99)));
    report.Note(Fmt("write_p50_ms = %.3f ms (n=%zu, from due time)",
                    Median(r.write_ms), r.write_ms.size()));
    report.Note(Fmt("write_p90_ms = %.3f ms", Percentile(r.write_ms, 90)));
    report.Note(Fmt("bytes_per_live_row = %.3f bytes",
                    BytesPerLiveRow(env.get())));
    report.Note(Fmt("gen_late_ms = %.3f ms (mean; p50 %.3f, p90 %.3f, max %.3f)",
                    Mean(r.late_ms), Median(r.late_ms),
                    Percentile(r.late_ms, 90), Percentile(r.late_ms, 100)));
    report.Note(Fmt("fail_frac = %g", static_cast<double>(r.failed) /
                                          std::max<uint64_t>(1, r.attempted)));
    report.Set("setup_s", setup_s, "s");
    report.Set("queries_per_s", r.reads_ok / r.elapsed_s, "1/s");
    report.Set("peak_rss_mb", rss.PeakMb(), "MB");
    return report;
  }

  telemetry::Span root("perfbench:" + args.workload);
  PhaseResult plain = RunPhase(env.get(), args.seconds / 2, nullptr);
  telemetry::Span* phase_span = root.StartChild("traced_phase");
  PhaseResult traced = RunPhase(env.get(), args.seconds / 2, phase_span);
  phase_span->End();
  report.attempted = plain.attempted + traced.attempted;
  report.failed = plain.failed + traced.failed;
  report.Set("class.read_p99_ms", Percentile(plain.read_ms, 99), "ms");
  report.Set("class.write_p90_ms", Percentile(plain.write_ms, 90), "ms");
  report.Set("trace.overhead_frac",
             1 - (traced.reads_ok / traced.elapsed_s) /
                     (plain.reads_ok / plain.elapsed_s),
             "frac");
  report.Set("trace.queries", static_cast<double>(traced.breakdowns.size()),
             "count");
  AddBreakdownMetrics(traced.breakdowns, &report);
  // Whole-phase deltas: writes and compaction share the readers' DFS and
  // caches, and per-query profile attributes would absorb their work.
  AddIoMetrics(traced.io_before, traced.io_after,
               static_cast<double>(traced.reads_ok), &report);
  AddTableMetrics(env.get(), traced, &report);

  telemetry::Span* span = root.StartChild("class:read");
  ClassProbe probe;
  probe.plan =
      ProbePlan(env->catalog.get(), ql::DriverOptions(), kReadSql, span);
  probe.scan = ProbeScans(env->catalog.get(), probe.plan, span);
  probe.weight = 1;
  probe.task_cpu_ms = Mean(traced.read_cpu_ms);
  span->End();
  const ByteProbe bytes = ProbeBytes(env->catalog.get(), {kTable}, &root);
  const double bytes_per_query =
      static_cast<double>(traced.io_after.bytes_read -
                          traced.io_before.bytes_read) /
      std::max<uint64_t>(1, traced.reads_ok);
  AddProbeMetrics({probe}, bytes, bytes_per_query, 0, &report);
  root.End();
  WriteTrace(args, root);
  return report;
}

}  // namespace minihive::perfbench
