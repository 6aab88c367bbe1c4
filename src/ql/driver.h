#ifndef MINIHIVE_QL_DRIVER_H_
#define MINIHIVE_QL_DRIVER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/cache.h"
#include "common/session.h"
#include "common/worker_manager.h"
#include "mr/engine.h"
#include "mr/transport.h"
#include "ql/catalog.h"
#include "ql/runtime.h"

namespace minihive::ql {

struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  /// DML statements (INSERT/DELETE): rows inserted or deleted. 0 for
  /// queries and DDL.
  uint64_t rows_affected = 0;
  mr::JobCounters counters;
  int num_jobs = 0;
  int num_map_only_jobs = 0;
  double elapsed_millis = 0;
  /// The compiled plan (after optimization), for explain-style inspection.
  std::string plan_text;
  /// Root of the query's trace-span tree; null unless profiling was on.
  std::shared_ptr<telemetry::Span> profile;
};

/// The session facade: parse -> analyze -> optimize -> compile -> execute ->
/// fetch, mirroring Hive's Driver (paper §2).
class Driver {
 public:
  Driver(dfs::FileSystem* fs, Catalog* catalog,
         DriverOptions options = DriverOptions());
  ~Driver();

  /// Executes `sql`. An "EXPLAIN PROFILE <query>" statement executes the
  /// inner query with profiling forced on and returns the rendered span
  /// tree as `plan_text` (plus the query's normal rows).
  Result<QueryResult> Execute(std::string_view sql);

  /// Plans without executing; returns the plan's debug text and job count.
  Result<QueryResult> Explain(std::string_view sql);

  /// Span tree of the most recent profiled query; null if none ran yet.
  std::shared_ptr<telemetry::Span> LastProfile() const {
    return last_profile_;
  }

  Catalog* catalog() { return catalog_; }
  DriverOptions& options() { return options_; }

  /// The dispatch transport, when workers are configured (null otherwise).
  /// Tests install fault injectors on it.
  mr::SimulatedRemoteTransport* transport() { return transport_.get(); }
  /// The worker health tracker backing dispatch (session-shared or owned);
  /// null when workers are not configured.
  WorkerManager* worker_manager() { return worker_manager_; }

  /// Installs the token every subsequent query checks at its cancellation
  /// points. Cancel() from any thread makes the running query fail with a
  /// typed Cancelled status within one row batch / index group. The session
  /// stays usable: install a fresh token (or nullptr) before the next query.
  void set_cancellation_token(std::shared_ptr<CancellationToken> token) {
    token_ = std::move(token);
  }

 private:
  Result<QueryResult> Run(std::string_view sql, bool execute);
  /// One planning+execution pass. `disable_mapjoin` forces the reduce-join
  /// backup plan (the fallback run); `mapjoin_fallbacks` is how many backup
  /// runs preceded this one (recorded in counters and the profile).
  Result<QueryResult> RunOnce(std::string_view sql, bool execute,
                              bool explain_profile,
                              const QueryContext& query_ctx,
                              bool disable_mapjoin, int mapjoin_fallbacks);
  /// Best-effort removal of a query's scratch and temp-dir files. Runs on
  /// error paths too: a cancelled query must not leak attempt files.
  void CleanupTemps(const std::string& scratch,
                    const std::vector<std::string>& temp_dirs);

  dfs::FileSystem* fs_;
  Catalog* catalog_;
  DriverOptions options_;
  /// Session ORC metadata cache, installed on fs_ for this
  /// driver's lifetime. Installation is last-wins like the fault injector:
  /// with several Drivers on one filesystem the most recent construction's
  /// caches serve everyone, and the destructor only uninstalls itself.
  std::shared_ptr<cache::CacheManager> caches_;
  /// Dispatch layer (workers.num_workers > 0 only). Destruction order
  /// matters: the coordinator references manager and transport, and the
  /// monitor probe references the transport — ~Driver stops the monitor
  /// (when this driver started it) before any of these die.
  std::unique_ptr<mr::SimulatedRemoteTransport> transport_;
  std::unique_ptr<WorkerManager> own_worker_manager_;
  WorkerManager* worker_manager_ = nullptr;
  std::unique_ptr<mr::DispatchCoordinator> dispatcher_;
  bool started_monitor_ = false;
  int query_counter_ = 0;
  std::shared_ptr<telemetry::Span> last_profile_;
  std::shared_ptr<CancellationToken> token_;
  /// Session mode, set for the duration of one Run(): the admission ticket
  /// (budget slice + queue wait) and the query's scheduler queue. A Driver
  /// runs one query at a time; concurrent queries use separate Drivers
  /// sharing one Session/SessionManager.
  QueryAdmission* active_admission_ = nullptr;
  TaskScheduler::Queue* active_queue_ = nullptr;
};

}  // namespace minihive::ql

#endif  // MINIHIVE_QL_DRIVER_H_
