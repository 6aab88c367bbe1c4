#ifndef MINIHIVE_ORC_READER_H_
#define MINIHIVE_ORC_READER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/delete_bitmap.h"
#include "common/query_context.h"
#include "common/result.h"
#include "common/types.h"
#include "common/value.h"
#include "dfs/file_system.h"
#include "orc/layout.h"
#include "orc/sarg.h"
#include "vec/vectorized_row_batch.h"

namespace minihive::mr {
struct JobCounters;  // Defined in mr/engine.h.
}  // namespace minihive::mr

namespace minihive::orc {

struct OrcReadOptions {
  /// Top-level field indexes to materialize; empty = all fields.
  std::vector<int> projected_fields;
  /// Conjunctive predicate pushed down to the reader; evaluated against
  /// stripe- and index-group-level statistics. Null = the paper's "No PPD"
  /// configuration: no index data is read and whole stripes are scanned.
  const SearchArgument* sarg = nullptr;
  /// Stripes whose starting offset falls in [split_offset,
  /// split_offset+split_length) belong to this reader; 0 length = all.
  uint64_t split_offset = 0;
  uint64_t split_length = 0;
  /// Simulated datanode of the reading task (locality accounting).
  int reader_host = -1;
  /// Rows per vectorized batch.
  int batch_size = vec::kDefaultBatchSize;
  /// Verify CRC-32 checksums on every section and stream read. Corruption
  /// surfaces as a kCorruption Status naming the damaged piece; untouched
  /// stripes remain readable. On by default: the CRC cost is tiny next to
  /// decompression.
  bool verify_checksums = true;
  /// Task lifecycle governor, checked before decoding each index group so a
  /// cancelled or out-of-time query stops a scan mid-stripe. Null =
  /// ungoverned.
  const TaskGovernor* governor = nullptr;
  /// The task attempt's counters: DFS bytes as they are read, and the
  /// reader's stripe/group/late-skip/metadata-cache counts once it closes.
  /// Null = uncounted. Must outlive the reader.
  mr::JobCounters* counters = nullptr;
  /// Two-phase (PREWHERE-style) reads: row-evaluable pushed-down leaves are
  /// first evaluated on just the columns they reference, then the remaining
  /// projected columns are decoded only for groups with surviving rows.
  /// NextBatch() hands the row-level selection to the batch via selected[];
  /// NextRow() never builds a rejected row. Only matters with an active
  /// SARG.
  bool enable_late_materialization = true;
  /// Merge-on-read deletion marks for this file, keyed by absolute row
  /// ordinal (every physical row, in file order). Deleted rows are dropped
  /// inside the reader — folded into the batch's selected[] mask in
  /// vectorized mode and skipped (cursor-consistently) in row mode — so
  /// both paths return identical live rows even for mid-file splits. Null =
  /// no deletions. The bitmap must outlive the reader.
  const DeleteBitmap* delete_bitmap = nullptr;
};

/// Reads one ORC file: row-at-a-time via NextRow() or in vectorized batches
/// via NextBatch() (the paper's vectorized reader, §6.5 — primitive columns
/// only). Stripes and index groups that cannot satisfy the pushed-down
/// predicate are skipped without reading their bytes from the DFS.
///
/// When the filesystem has a CacheManager installed, parsed tails, stripe
/// footers and stripe indexes are served from (and populate) its metadata
/// cache. Entries are keyed by (path, generation), so a rewritten or renamed
/// file is never served stale metadata, and only checksum-verified parses
/// populate the cache.
class OrcReader {
 public:
  static Result<std::unique_ptr<OrcReader>> Open(
      dfs::FileSystem* fs, const std::string& path,
      OrcReadOptions options = OrcReadOptions());

  ~OrcReader();
  OrcReader(const OrcReader&) = delete;
  OrcReader& operator=(const OrcReader&) = delete;

  const FileTail& tail() const;
  /// The reader's schema (root struct of the file).
  const TypePtr& schema() const;

  /// Fills *row (one Value per top-level field; non-projected fields NULL).
  /// Returns false at end.
  Result<bool> NextRow(Row* row);

  /// Creates a batch whose columns match the projected fields in order.
  /// All projected fields must be primitive.
  Result<std::unique_ptr<vec::VectorizedRowBatch>> CreateBatch() const;

  /// Fills `batch` with up to batch_size rows; returns false at end.
  /// The batch is reset first; no_nulls flags are set from stripe metadata.
  Result<bool> NextBatch(vec::VectorizedRowBatch* batch);

  // Skipping telemetry (exercised by tests and the Figure 10 bench).
  uint64_t stripes_read() const;
  uint64_t stripes_skipped() const;
  uint64_t groups_read() const;
  uint64_t groups_skipped() const;
  /// Rows rejected by phase-1 (row-level) predicate evaluation before the
  /// lazy columns were materialized.
  uint64_t rows_late_skipped() const;
  /// Per-column group decodes skipped because phase 1 left a group empty.
  uint64_t lazy_decodes_avoided() const;
  /// Rows dropped by the file's delete bitmap (merge-on-read).
  uint64_t rows_deleted_skipped() const;
  /// True when the file tail was served from the metadata cache (no tail
  /// bytes were read or parsed by this reader).
  bool tail_cache_hit() const;

 private:
  class Impl;
  explicit OrcReader(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace minihive::orc

#endif  // MINIHIVE_ORC_READER_H_
