#ifndef MINIHIVE_FORMATS_FORMAT_H_
#define MINIHIVE_FORMATS_FORMAT_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "codec/codec.h"
#include "common/result.h"
#include "common/types.h"
#include "common/value.h"
#include "dfs/file_system.h"

namespace minihive {
class TaskGovernor;   // Defined in common/query_context.h.
class DeleteBitmap;   // Defined in common/delete_bitmap.h.
}  // namespace minihive

namespace minihive::orc {
class SearchArgument;  // Defined in orc/sarg.h; only ORC honours it.
}  // namespace minihive::orc

namespace minihive::mr {
struct JobCounters;  // Defined in mr/engine.h.
}  // namespace minihive::mr

namespace minihive::formats {

/// Identifies a storage format in the catalog and the task runtime.
enum class FormatKind { kTextFile, kSequenceFile, kRcFile, kOrcFile };

const char* FormatKindName(FormatKind kind);

/// Options shared by all file writers.
struct WriterOptions {
  codec::CompressionKind compression = codec::CompressionKind::kNone;
};

/// How a reader should scan (a split of) a file.
struct ReadOptions {
  /// Top-level column indexes to materialize; empty = all columns.
  std::vector<int> projected_columns;
  /// Byte range of the split: a record/unit *starting* in
  /// [split_offset, split_offset + split_length) belongs to this split
  /// (HDFS input-split semantics). split_length == 0 means the whole file.
  uint64_t split_offset = 0;
  uint64_t split_length = 0;
  /// Simulated datanode id of the reading task for locality accounting.
  int reader_host = -1;
  /// Predicate pushed down to the reader. Only ORC uses it (paper §4.2);
  /// other formats ignore it.
  const orc::SearchArgument* sarg = nullptr;
  /// Task lifecycle governor; a reader that honours it (ORC, per index
  /// group) stops a long scan when the query is cancelled or a deadline
  /// passes. Null = ungoverned.
  const TaskGovernor* governor = nullptr;
  /// The reading task attempt's counters: every reader counts the DFS bytes
  /// it reads there (ORC also its scan counts). Null = uncounted.
  mr::JobCounters* counters = nullptr;
  /// Merge-on-read deletion marks for this file (mutable unique-key
  /// tables). Only ORC applies it — managed mutable tables are ORC-only —
  /// and the bitmap must outlive the reader. Null = no deletions.
  const DeleteBitmap* delete_bitmap = nullptr;
  /// Two-phase (PREWHERE-style) ORC scans with a SARG: rows the pushed-down
  /// leaves reject are dropped before their remaining columns decode, in
  /// row and vectorized scans alike. Other formats ignore it.
  bool enable_late_materialization = true;
};

/// Appends rows to one file; Close() finalizes the file.
class FileWriter {
 public:
  virtual ~FileWriter() = default;
  virtual Status AddRow(const Row& row) = 0;
  virtual Status Close() = 0;
};

/// Sequential row reader over one file split.
class RowReader {
 public:
  virtual ~RowReader() = default;
  /// Fills *row and returns true, or returns false at end of split.
  virtual Result<bool> Next(Row* row) = 0;
};

/// Factory interface implemented by each format.
class FileFormat {
 public:
  virtual ~FileFormat() = default;
  virtual FormatKind kind() const = 0;
  virtual Result<std::unique_ptr<FileWriter>> CreateWriter(
      dfs::FileSystem* fs, const std::string& path, TypePtr schema,
      const WriterOptions& options) const = 0;
  virtual Result<std::unique_ptr<RowReader>> OpenReader(
      dfs::FileSystem* fs, const std::string& path, TypePtr schema,
      const ReadOptions& options) const = 0;
};

/// Returns the singleton implementation for `kind`.
const FileFormat* GetFileFormat(FormatKind kind);

/// Opens `path` for a reader, counting the bytes it reads into
/// `options.counters` when set.
Result<std::shared_ptr<dfs::ReadableFile>> OpenCounted(
    dfs::FileSystem* fs, const std::string& path, const ReadOptions& options);

/// Length of the per-file sync markers SequenceFile and RCFile write
/// between runs of records (row groups, for RCFile).
inline constexpr size_t kSyncMarkerLen = 16;

/// A deterministic per-file sync marker derived from `path`; `salt` keeps
/// one format's markers apart from another's.
std::string MakeSyncMarker(const std::string& path, uint64_t salt);

/// Split ownership for sync-marked formats: the offset of the first
/// `marker` starting at or after `from`, or nullopt when none starts
/// before `split_end`. A marker straddling `from` is deliberately not
/// matched (it belongs to the prior split).
Result<std::optional<uint64_t>> FindSyncMarker(dfs::ReadableFile* file,
                                               std::string_view marker,
                                               uint64_t from,
                                               uint64_t split_end,
                                               int reader_host);

}  // namespace minihive::formats

#endif  // MINIHIVE_FORMATS_FORMAT_H_
