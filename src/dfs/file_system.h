#ifndef MINIHIVE_DFS_FILE_SYSTEM_H_
#define MINIHIVE_DFS_FILE_SYSTEM_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "common/result.h"
#include "common/status.h"

namespace minihive::cache {
class CacheManager;
}  // namespace minihive::cache

namespace minihive::dfs {

/// Cluster-wide I/O counters. The benchmarks report `bytes_read` as the
/// paper's "amount of data read from HDFS" (Figure 10b); `remote_block_reads`
/// backs the stripe/block-alignment ablation.
struct IoStats {
  std::atomic<uint64_t> bytes_read{0};
  // Sole reader: perfbench/src/util.cc. Every byte is read from backing
  // storage, so this names `bytes_read` itself rather than counting again.
  std::atomic<uint64_t>& bytes_read_physical = bytes_read;
  // Sole reader: perfbench/src/util.cc. Never written: no block cache.
  std::atomic<uint64_t> bytes_read_cached{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> read_ops{0};
  std::atomic<uint64_t> local_block_reads{0};
  std::atomic<uint64_t> remote_block_reads{0};

  void Reset() {
    bytes_read = 0;
    bytes_written = 0;
    read_ops = 0;
    local_block_reads = 0;
    remote_block_reads = 0;
  }
};

struct FileSystemOptions {
  /// Simulated HDFS block size. The paper's cluster used 512 MB blocks with
  /// 256 MB ORC stripes; at laptop scale the defaults shrink proportionally.
  uint64_t block_size = 8 * 1024 * 1024;
  /// Number of simulated datanodes for block placement.
  int num_datanodes = 10;
  /// Replication factor for block placement.
  int replication = 3;
};

struct BlockLocation {
  uint64_t offset = 0;
  uint64_t length = 0;
  std::vector<int> hosts;  // Datanode ids holding a replica.
};

class FileSystem;

/// Append-only output file (HDFS semantics: immutable once closed).
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  /// Bytes written so far (the current file offset).
  virtual uint64_t Size() const = 0;
  /// Bytes left before the current HDFS block ends (never 0: at a boundary
  /// this is a full block). Used by the ORC writer's stripe alignment.
  virtual uint64_t RemainingInBlock() const = 0;
  /// Zero-fills to the next block boundary (ORC stripe padding).
  virtual Status PadToBlockBoundary() = 0;
  virtual Status Close() = 0;
};

/// Random-access input file with positional reads and locality accounting.
class ReadableFile {
 public:
  virtual ~ReadableFile() = default;
  virtual uint64_t Size() const = 0;
  /// Reads [offset, offset+length) into *out. Each call counts as one read
  /// op (a "seek" when non-contiguous). `reader_host` is the datanode id of
  /// the reading task, or -1 for a non-task reader; block replicas elsewhere
  /// count as remote reads.
  virtual Status ReadAt(uint64_t offset, uint64_t length, std::string* out,
                        int reader_host = -1) = 0;
  /// Block layout of the byte range, for split computation and locality.
  virtual std::vector<BlockLocation> GetBlockLocations(uint64_t offset,
                                                       uint64_t length) const = 0;
  /// The path's write-generation at Open() time: the filesystem bumps it on
  /// every Create/Delete/Rename of the path, so `(path, Generation())` names
  /// this exact file incarnation — the cache-key contract that makes stale
  /// cached metadata unreachable after a rewrite.
  virtual uint64_t Generation() const { return 0; }
};

/// An in-process filesystem that simulates HDFS: fixed-size blocks placed on
/// `num_datanodes` simulated hosts with `replication` replicas, append-only
/// writes, positional reads, and cluster-wide I/O accounting.
class FileSystem {
 public:
  explicit FileSystem(FileSystemOptions options = FileSystemOptions());

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  /// Creates a file for writing; fails with AlreadyExists if present.
  Result<std::unique_ptr<WritableFile>> Create(const std::string& path);

  /// Opens a closed file for reading. When `bytes_read` is set, every
  /// ReadAt on the handle also adds its length there: the per-task-attempt
  /// count a query's profile reports, beside the cluster-wide IoStats.
  Result<std::shared_ptr<ReadableFile>> Open(
      const std::string& path, std::atomic<uint64_t>* bytes_read = nullptr);

  Status Delete(const std::string& path);
  /// Atomically renames a closed file (task output promotion). Fails with
  /// NotFound if `from` is missing. If `to` exists it is REPLACED (POSIX
  /// semantics): a retried task's commit must overwrite the stale file a
  /// half-committed earlier attempt left behind, so the committed output
  /// always wins.
  Status Rename(const std::string& from, const std::string& to);
  bool Exists(const std::string& path) const;
  Result<uint64_t> FileSize(const std::string& path) const;
  /// All paths with the given prefix, sorted.
  std::vector<std::string> List(const std::string& prefix) const;
  /// Sum of file sizes under the prefix.
  uint64_t TotalSize(const std::string& prefix) const;

  IoStats& stats() { return stats_; }
  const FileSystemOptions& options() const { return options_; }
  uint64_t block_size() const { return options_.block_size; }

  /// Installs (or clears, with nullptr) a fault injector consulted on every
  /// Open/ReadAt/Append/Close. The injector is not owned and must outlive
  /// its installation. nullptr (the default) keeps injection entirely off
  /// the hot path — a single pointer test per call.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const {
    return fault_injector_.load(std::memory_order_acquire);
  }

  /// Installs (or clears, with nullptr) the session cache manager, whose
  /// metadata cache ORC readers opened on this filesystem pick up. Shared
  /// ownership, unlike the fault injector: long-lived ORC readers pin the
  /// manager they captured, so replacing or clearing the installation never
  /// destroys a manager out from under a concurrent user — the last pin
  /// does. (Sessions come and go per Driver while background work reads
  /// through the same filesystem; a raw pointer here is a use-after-free
  /// waiting for that overlap.)
  void set_cache_manager(std::shared_ptr<cache::CacheManager> manager) {
    std::lock_guard<std::mutex> lock(cache_manager_mu_);
    cache_manager_ = std::move(manager);
  }
  std::shared_ptr<cache::CacheManager> cache_manager() const {
    std::lock_guard<std::mutex> lock(cache_manager_mu_);
    return cache_manager_;
  }

  /// Current write-generation of a path (0 if never written). Bumped by
  /// Create/Delete and by Rename for both endpoints; survives deletion so a
  /// re-created path gets a fresh generation, not a recycled one.
  uint64_t PathGeneration(const std::string& path) const;

  // Implementation detail, public only so the file implementations in the
  // .cc can refer to it.
  struct FileData {
    std::string contents;
    std::vector<std::vector<int>> block_hosts;  // Per block replica hosts.
    bool closed = false;
  };

 private:

  /// Chooses replica hosts for the next block of a file (round-robin with a
  /// per-file offset so files spread across the cluster).
  std::vector<int> PlaceBlock(uint64_t block_index, uint64_t placement_seed);

  FileSystemOptions options_;
  IoStats stats_;
  std::atomic<FaultInjector*> fault_injector_{nullptr};
  mutable std::mutex cache_manager_mu_;
  std::shared_ptr<cache::CacheManager> cache_manager_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<FileData>> files_;
  // Per-path write counters (guarded by mutex_); entries are never removed,
  // so deleted-then-recreated paths keep counting up.
  std::map<std::string, uint64_t> generations_;
};

}  // namespace minihive::dfs

#endif  // MINIHIVE_DFS_FILE_SYSTEM_H_
