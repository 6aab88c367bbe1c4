#include "ql/compaction.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "orc/reader.h"
#include "orc/writer.h"
#include "ql/table_ops.h"

namespace minihive::ql {

namespace {

/// One scored run of consecutive (commit-order) files within a partition.
struct Candidate {
  std::vector<const TableFile*> files;
  double score = 0;
  uint64_t first_sequence = 0;
};

double DeletedRatio(const TableFile& f) {
  if (f.num_rows == 0) return 0;
  const uint64_t dead =
      f.delete_bitmap == nullptr ? 0 : f.delete_bitmap->deleted_count();
  return static_cast<double>(dead) / static_cast<double>(f.num_rows);
}

/// Scores one run. Modeled on merge-tree part selection: benefit grows with
/// the number of files removed from the manifest and with the deleted rows
/// reclaimed; cost is the bytes that must be moved, normalized by the
/// small-file threshold so merging already-large files scores poorly.
double ScoreRange(const std::vector<const TableFile*>& files,
                  const CompactionOptions& options) {
  uint64_t total_bytes = 0;
  uint64_t total_rows = 0;
  uint64_t dead_rows = 0;
  for (const TableFile* f : files) {
    total_bytes += f->bytes;
    total_rows += f->num_rows;
    dead_rows += f->delete_bitmap == nullptr ? 0
                                             : f->delete_bitmap->deleted_count();
  }
  const double dead_ratio =
      total_rows == 0 ? 0
                      : static_cast<double>(dead_rows) /
                            static_cast<double>(total_rows);
  const double size_cost =
      static_cast<double>(total_bytes) /
      static_cast<double>(std::max<uint64_t>(1, options.small_file_bytes)) /
      static_cast<double>(files.size());
  return options.file_count_weight * static_cast<double>(files.size() - 1) +
         options.deleted_weight * dead_ratio -
         options.size_penalty * size_cost;
}

/// Deterministically picks the best run to rewrite, or an empty candidate.
/// Within each partition, files are taken in commit (sequence) order;
/// rewrite-worthy files (small, or carrying enough delete debt) form
/// maximal consecutive runs which are clipped to max_files and scored.
/// Ties break toward the oldest run.
Candidate SelectCandidate(const TableDesc& table, const TableSnapshot& snapshot,
                          const CompactionOptions& options) {
  std::map<std::string, std::vector<const TableFile*>> partitions;
  for (const TableFile& f : snapshot.files) {
    partitions[PartitionDirName(table, f.partition_values)].push_back(&f);
  }
  Candidate best;
  for (auto& [dir, files] : partitions) {
    std::sort(files.begin(), files.end(),
              [](const TableFile* a, const TableFile* b) {
                return a->sequence < b->sequence;
              });
    std::vector<const TableFile*> run;
    auto consider = [&](std::vector<const TableFile*> range) {
      while (range.size() > options.max_files) range.pop_back();
      if (range.empty()) return;
      const bool single_with_debt =
          range.size() == 1 &&
          DeletedRatio(*range[0]) > options.deleted_ratio_trigger;
      if (range.size() < options.min_files && !single_with_debt) return;
      const double score = ScoreRange(range, options);
      if (best.files.empty() || score > best.score) {
        best.files = std::move(range);
        best.score = score;
        best.first_sequence = best.files[0]->sequence;
      }
    };
    for (const TableFile* f : files) {
      const bool worthy = f->bytes <= options.small_file_bytes ||
                          DeletedRatio(*f) > options.deleted_ratio_trigger;
      if (worthy) {
        run.push_back(f);
      } else {
        consider(std::move(run));
        run.clear();
      }
    }
    consider(std::move(run));
    run.clear();
  }
  return best;
}

void Accumulate(CompactionStats* into, const CompactionStats& delta) {
  into->sweeps += delta.sweeps;
  into->tasks_run += delta.tasks_run;
  into->files_removed += delta.files_removed;
  into->files_written += delta.files_written;
  into->rows_rewritten += delta.rows_rewritten;
  into->deleted_rows_reclaimed += delta.deleted_rows_reclaimed;
  into->tombstones_deleted += delta.tombstones_deleted;
  into->budget_skips += delta.budget_skips;
  into->failures += delta.failures;
}

}  // namespace

CompactionManager::CompactionManager(dfs::FileSystem* fs, Catalog* catalog,
                                     CompactionOptions options,
                                     TaskScheduler* scheduler,
                                     MemoryBudget* budget)
    : fs_(fs),
      catalog_(catalog),
      options_(options),
      scheduler_(scheduler),
      budget_(budget) {
  if (scheduler_ != nullptr) {
    queue_ = scheduler_->RegisterQueue("compaction", kPriorityLow);
  }
}

CompactionManager::~CompactionManager() {
  Stop();
  if (queue_ != nullptr) scheduler_->UnregisterQueue(queue_);
}

void CompactionManager::Start() {
  std::lock_guard<std::mutex> lock(run_mu_);
  if (running_) return;
  running_ = true;
  stop_requested_ = false;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(run_mu_);
    while (!stop_requested_) {
      lock.unlock();
      RunOnce().status().ok();  // Failures are counted in totals_.
      lock.lock();
      run_cv_.wait_for(lock,
                       std::chrono::milliseconds(
                           std::max(1, options_.interval_millis)),
                       [this] { return stop_requested_; });
    }
  });
}

void CompactionManager::Stop() {
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  run_cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(run_mu_);
  running_ = false;
}

CompactionStats CompactionManager::totals() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return totals_;
}

Result<CompactionStats> CompactionManager::RunOnce() {
  CompactionStats sweep;
  sweep.sweeps = 1;
  Status first_error = Status::OK();
  for (const std::string& name : catalog_->ManagedTableNames()) {
    // A copy, not a pointer: the copy shares the ManagedTableState via
    // shared_ptr, so a concurrent DROP TABLE cannot free the descriptor
    // (or the state) out from under the long rewrite below. CompactTable
    // re-checks state->dropped under write_mu.
    auto table = catalog_->GetTableCopy(name);
    if (!table.ok()) continue;  // Dropped since listing.

    // Yield memory to queries: no reservation, no rewrite this sweep.
    BudgetReservation reservation;
    if (budget_ != nullptr) {
      if (!reservation.Reserve(budget_, options_.rewrite_budget_bytes).ok()) {
        ++sweep.budget_skips;
        continue;
      }
    }
    Status s;
    if (queue_ != nullptr) {
      // Low-priority lane of the shared pool: a foreground query's tasks
      // are always served first.
      s = scheduler_->RunParallel(queue_, 1, [&](int) {
        return CompactTable(*table, &sweep);
      });
    } else {
      s = CompactTable(*table, &sweep);
    }
    if (!s.ok()) {
      ++sweep.failures;
      if (first_error.ok()) first_error = s;
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    Accumulate(&totals_, sweep);
  }
  if (!first_error.ok()) return first_error;
  return sweep;
}

Status CompactionManager::CompactTable(const TableDesc& table,
                                       CompactionStats* stats) {
  ManagedTableState* state = table.state.get();
  std::lock_guard<std::mutex> lock(state->write_mu);
  // Lost the race with DROP TABLE: the files are gone and nothing we could
  // publish would ever be read. (Our TableDesc copy keeps `state` alive.)
  if (state->dropped) return Status::OK();

  // Phase 0: the previous sweep's tombstones are now one full snapshot
  // generation old — queries planned against the pre-compaction manifest
  // have finished. Physically delete them (and their sidecars).
  std::vector<std::string> tombstones = std::move(state->tombstones);
  state->tombstones.clear();
  for (const std::string& path : tombstones) {
    fs_->Delete(path).ok();
    fs_->Delete(path + ".del").ok();
    fs_->Delete(path + ".del.attempt").ok();  // Crashed statement leftover.
    ++stats->tombstones_deleted;
  }

  std::shared_ptr<const TableSnapshot> snapshot = catalog_->Snapshot(table);
  Candidate candidate = SelectCandidate(table, *snapshot, options_);
  if (candidate.files.empty()) return Status::OK();

  // Phase 1: rewrite the run's live rows into one new file. Bitmaps are
  // applied by the reader, so the output is delete-debt free.
  const uint64_t seq = state->next_sequence++;
  const std::string dir = PartitionDirName(
      table, candidate.files[0]->partition_values);
  const std::string dir_path =
      dir.empty() ? table.path_prefix : table.path_prefix + "/" + dir;
  const std::string attempt_path = dir_path + "/attempt-" + SeqString(seq);
  // The merged file's name records the consecutive sequence run it
  // replaces ("part-<seq>.r<first>-<last>"): cold-start recovery uses the
  // range to drop superseded files, making the Rename below an atomic,
  // recoverable commit of the whole swap (TABLE_FORMAT.md).
  const std::string final_path =
      dir_path + "/part-" + SeqString(seq) + ".r" +
      SeqString(candidate.files.front()->sequence) + "-" +
      SeqString(candidate.files.back()->sequence);

  const int key_idx =
      table.unique_key.empty() ? -1 : table.FieldIndex(table.unique_key);
  std::vector<std::pair<std::string, uint64_t>> rewritten_keys;

  orc::OrcWriterOptions wopts;
  wopts.compression = table.compression;
  auto writer = orc::OrcWriter::Create(fs_, attempt_path, table.schema, wopts);
  if (!writer.ok()) {
    fs_->Delete(attempt_path).ok();
    return writer.status();
  }
  uint64_t rows_out = 0;
  uint64_t dead_reclaimed = 0;
  for (const TableFile* file : candidate.files) {
    orc::OrcReadOptions ropts;
    ropts.delete_bitmap = file->delete_bitmap.get();
    auto reader = orc::OrcReader::Open(fs_, file->path, ropts);
    if (!reader.ok()) {
      fs_->Delete(attempt_path).ok();
      return reader.status();
    }
    Row row;
    while (true) {
      auto more = (*reader)->NextRow(&row);
      Status s = more.ok() ? Status::OK() : more.status();
      if (s.ok() && !*more) break;
      if (s.ok()) {
        if (key_idx >= 0 && !row[key_idx].is_null()) {
          rewritten_keys.emplace_back(UniqueKeyBytes(row[key_idx]), rows_out);
        }
        s = (*writer)->AddRow(row);
        ++rows_out;
      }
      if (!s.ok()) {
        fs_->Delete(attempt_path).ok();
        return s;
      }
    }
    dead_reclaimed += file->delete_bitmap == nullptr
                          ? 0
                          : file->delete_bitmap->deleted_count();
  }
  Status s = (*writer)->Close();
  if (s.ok()) s = fs_->Rename(attempt_path, final_path);
  if (!s.ok()) {
    fs_->Delete(attempt_path).ok();
    return s;
  }

  // Phase 2: one snapshot swap replaces the run with the merged file.
  TableFile merged;
  merged.path = final_path;
  merged.partition_values = candidate.files[0]->partition_values;
  merged.num_rows = rows_out;
  auto size = fs_->FileSize(final_path);
  merged.bytes = size.ok() ? *size : 0;
  merged.sequence = seq;

  std::unordered_set<std::string> replaced;
  for (const TableFile* f : candidate.files) replaced.insert(f->path);
  MINIHIVE_RETURN_IF_ERROR(catalog_->PublishSnapshot(
      table, [&](TableSnapshot* snap) {
        std::vector<TableFile> kept;
        kept.reserve(snap->files.size());
        for (TableFile& f : snap->files) {
          if (replaced.count(f.path) == 0) kept.push_back(std::move(f));
        }
        kept.push_back(merged);
        snap->files = std::move(kept);
        return Status::OK();
      }));

  // Phase 3: repoint key-index entries that lived in the replaced files
  // (only those — a newer upsert elsewhere must keep winning) and schedule
  // the replaced files for deletion next sweep.
  for (auto& [key, ordinal] : rewritten_keys) {
    auto it = state->key_index.find(key);
    if (it != state->key_index.end() && replaced.count(it->second.path) > 0) {
      it->second = RowLocation{final_path, ordinal};
    }
  }
  for (const TableFile* f : candidate.files) {
    state->tombstones.push_back(f->path);
  }

  ++stats->tasks_run;
  stats->files_removed += candidate.files.size();
  stats->files_written += 1;
  stats->rows_rewritten += rows_out;
  stats->deleted_rows_reclaimed += dead_reclaimed;
  return Status::OK();
}

}  // namespace minihive::ql
