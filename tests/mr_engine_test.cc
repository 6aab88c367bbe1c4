#include "mr/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>

#include "common/random.h"
#include "mr/shuffle_record.h"

namespace minihive::mr {
namespace {

Row KeyRow(std::string_view key) {
  Row row;
  EXPECT_TRUE(DecodeKey(key, &row).ok());
  return row;
}

Row ValueRow(std::string_view value) {
  Row row;
  EXPECT_TRUE(DecodeValues(value, &row).ok());
  return row;
}

/// An Engine on its own TaskScheduler with `slots` concurrent task slots:
/// slots - 1 workers plus the calling thread, which works its own batches.
class TestEngine {
 public:
  TestEngine(dfs::FileSystem* fs, int slots)
      : scheduler_(SchedulerOptions{slots - 1}),
        queue_(scheduler_.RegisterQueue()),
        engine_(fs, EngineOptions{0, &scheduler_, queue_}) {}
  ~TestEngine() { scheduler_.UnregisterQueue(queue_); }

  Status RunJob(const JobConfig& job, JobCounters* counters) {
    return engine_.RunJob(job, counters);
  }

 private:
  TaskScheduler scheduler_;
  TaskScheduler::Queue* queue_;
  Engine engine_;
};

/// Map task: emits (value % buckets, value) for each of its assigned
/// synthetic records (the split length doubles as a record count), the key
/// sorted by `ascending`.
class ModuloMapTask : public MapTask {
 public:
  explicit ModuloMapTask(int buckets, std::vector<bool> ascending = {})
      : buckets_(buckets), ascending_(std::move(ascending)) {}
  Status Run(const InputSplit& split, int task_index, int attempt,
             ShuffleEmitter* emitter) override {
    (void)task_index;
    (void)attempt;
    for (uint64_t i = split.offset; i < split.offset + split.length; ++i) {
      MINIHIVE_RETURN_IF_ERROR(emitter->Emit(
          EncodeKey({Value::Int(static_cast<int64_t>(i % buckets_))},
                    ascending_),
          EncodeValues({Value::Int(static_cast<int64_t>(i))}), 0));
    }
    return Status::OK();
  }

 private:
  int buckets_;
  std::vector<bool> ascending_;
};

/// Reduce task: records group transitions and per-group sums into a shared
/// sink (mutex-guarded).
struct GroupRecord {
  int64_t key;
  int64_t sum = 0;
  int64_t count = 0;
};

class CollectingReduceTask : public ReduceTask {
 public:
  CollectingReduceTask(std::mutex* mutex, std::vector<GroupRecord>* sink)
      : mutex_(mutex), sink_(sink) {}

  Status StartGroup(std::string_view key) override {
    if (open_) return Status::Internal("nested StartGroup");
    open_ = true;
    current_ = GroupRecord{KeyRow(key)[0].AsInt()};
    return Status::OK();
  }
  Status Reduce(std::string_view key, std::string_view value,
                int tag) override {
    if (!open_) return Status::Internal("Reduce outside group");
    if (KeyRow(key)[0].AsInt() != current_.key) {
      return Status::Internal("key changed within group");
    }
    if (tag != 0) return Status::Internal("unexpected tag");
    current_.sum += ValueRow(value)[0].AsInt();
    ++current_.count;
    return Status::OK();
  }
  Status EndGroup() override {
    if (!open_) return Status::Internal("EndGroup without StartGroup");
    open_ = false;
    std::lock_guard<std::mutex> lock(*mutex_);
    sink_->push_back(current_);
    return Status::OK();
  }
  Status Finish() override {
    return open_ ? Status::Internal("Finish with open group") : Status::OK();
  }

 private:
  std::mutex* mutex_;
  std::vector<GroupRecord>* sink_;
  bool open_ = false;
  GroupRecord current_{0};
};

TEST(EngineTest, GroupSignalsAndPartitioning) {
  dfs::FileSystem fs;
  TestEngine engine(&fs, 4);
  JobConfig job;
  job.name = "wordcount-ish";
  // 10 splits of 1000 synthetic records each.
  for (int s = 0; s < 10; ++s) {
    job.splits.push_back({"", static_cast<uint64_t>(s) * 1000, 1000, -1, 0});
  }
  job.num_reducers = 4;
  job.map_factory = [] { return std::make_unique<ModuloMapTask>(97); };
  std::mutex mutex;
  std::vector<GroupRecord> groups;
  job.reduce_factory = [&](int, int) {
    return std::make_unique<CollectingReduceTask>(&mutex, &groups);
  };
  JobCounters counters;
  ASSERT_TRUE(engine.RunJob(job, &counters).ok());

  // 97 distinct keys, each appearing exactly once across all reducers.
  ASSERT_EQ(groups.size(), 97u);
  std::map<int64_t, GroupRecord> by_key;
  for (const GroupRecord& g : groups) {
    ASSERT_EQ(by_key.count(g.key), 0u) << "key split across groups";
    by_key[g.key] = g;
  }
  int64_t total = 0;
  int64_t count = 0;
  for (auto& [key, g] : by_key) {
    total += g.sum;
    count += g.count;
  }
  EXPECT_EQ(count, 10000);
  EXPECT_EQ(total, 9999LL * 10000 / 2);
  EXPECT_EQ(counters.map_output_records.load(), 10000u);
  EXPECT_EQ(counters.reduce_input_records.load(), 10000u);
  EXPECT_EQ(counters.map_tasks, 10);
  EXPECT_EQ(counters.reduce_tasks, 4);
  EXPECT_GT(counters.cpu_nanos.load(), 0);
}

TEST(EngineTest, SortOrderWithinPartition) {
  // Keys within a reduce partition must arrive in sorted order, honouring
  // per-column direction.
  dfs::FileSystem fs;
  TestEngine engine(&fs, 1);
  JobConfig job;
  job.splits.push_back({"", 0, 500, -1, 0});
  job.num_reducers = 1;
  job.map_factory = [] {
    return std::make_unique<ModuloMapTask>(50, std::vector<bool>{false});
  };
  std::mutex mutex;
  std::vector<GroupRecord> groups;
  job.reduce_factory = [&](int, int) {
    return std::make_unique<CollectingReduceTask>(&mutex, &groups);
  };
  JobCounters counters;
  ASSERT_TRUE(engine.RunJob(job, &counters).ok());
  ASSERT_EQ(groups.size(), 50u);
  for (size_t i = 1; i < groups.size(); ++i) {
    EXPECT_GT(groups[i - 1].key, groups[i].key) << "descending order broken";
  }
}

TEST(EngineTest, MapErrorPropagates) {
  class FailingMapTask : public MapTask {
   public:
    Status Run(const InputSplit&, int, int, ShuffleEmitter*) override {
      return Status::IoError("synthetic map failure");
    }
  };
  dfs::FileSystem fs;
  TestEngine engine(&fs, 2);
  JobConfig job;
  job.splits.push_back({"", 0, 10, -1, 0});
  job.map_factory = [] { return std::make_unique<FailingMapTask>(); };
  JobCounters counters;
  Status status = engine.RunJob(job, &counters);
  EXPECT_TRUE(status.IsIoError()) << status.ToString();
}

TEST(EngineTest, RequiresASchedulerQueue) {
  // The engine spawns no threads: without a scheduler queue to fan out on,
  // a job fails up front instead of running.
  dfs::FileSystem fs;
  Engine engine(&fs, EngineOptions{});
  JobConfig job;
  job.splits.push_back({"", 0, 10, -1, 0});
  job.map_factory = [] { return std::make_unique<ModuloMapTask>(7); };
  JobCounters counters;
  Status status = engine.RunJob(job, &counters);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_EQ(counters.map_output_records.load(), 0u);
}

TEST(EngineTest, MapOnlyJobSkipsShuffle) {
  class CountingMapTask : public MapTask {
   public:
    explicit CountingMapTask(std::atomic<int>* runs) : runs_(runs) {}
    Status Run(const InputSplit&, int, int, ShuffleEmitter*) override {
      runs_->fetch_add(1);
      return Status::OK();
    }
    std::atomic<int>* runs_;
  };
  dfs::FileSystem fs;
  TestEngine engine(&fs, 2);
  std::atomic<int> runs{0};
  JobConfig job;
  for (int i = 0; i < 5; ++i) job.splits.push_back({"", 0, 1, -1, 0});
  job.num_reducers = 0;
  job.map_factory = [&] { return std::make_unique<CountingMapTask>(&runs); };
  JobCounters counters;
  ASSERT_TRUE(engine.RunJob(job, &counters).ok());
  EXPECT_EQ(runs.load(), 5);
  EXPECT_EQ(counters.reduce_tasks, 0);
}

TEST(ComputeSplitsTest, SplitsCoverFilesWithLocality) {
  dfs::FileSystemOptions options;
  options.block_size = 1000;
  dfs::FileSystem fs(options);
  auto w = std::move(fs.Create("/data")).ValueOrDie();
  ASSERT_TRUE(w->Append(std::string(3500, 'x')).ok());
  ASSERT_TRUE(w->Close().ok());

  std::vector<InputSplit> splits =
      std::move(ComputeSplits(&fs, {"/data"}, 1000, 7)).ValueOrDie();
  ASSERT_EQ(splits.size(), 4u);
  uint64_t covered = 0;
  for (const InputSplit& split : splits) {
    EXPECT_EQ(split.source_tag, 7);
    EXPECT_GE(split.locality_host, 0);
    covered += split.length;
  }
  EXPECT_EQ(covered, 3500u);
}

TEST(ComputeSplitsTest, UnreadableFileIsAnError) {
  dfs::FileSystem fs;
  auto w = std::move(fs.Create("/exists")).ValueOrDie();
  ASSERT_TRUE(w->Append("payload").ok());
  ASSERT_TRUE(w->Close().ok());

  auto result = ComputeSplits(&fs, {"/exists", "/missing"}, 1000, 0);
  ASSERT_FALSE(result.ok()) << "missing input must fail the job, not shrink it";
}

/// Map task for the merge-ordering property test: regenerates a
/// deterministic slice of the random workload from its split offset.
struct PropertyRecord {
  Row key;
  Row value;
  int tag;
};

std::vector<PropertyRecord> MakePropertyRecords(uint64_t seed, size_t count) {
  Random rng(seed);
  std::vector<PropertyRecord> records;
  records.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Row key = {Value::Int(rng.Range(0, 40)),
               Value::String(rng.NextString(2))};
    records.push_back({std::move(key),
                       {Value::Int(static_cast<int64_t>(i))},
                       static_cast<int>(rng.Uniform(3))});
  }
  return records;
}

class PropertyMapTask : public MapTask {
 public:
  explicit PropertyMapTask(std::vector<bool> ascending)
      : ascending_(std::move(ascending)) {}
  Status Run(const InputSplit& split, int, int,
             ShuffleEmitter* emitter) override {
    auto records = MakePropertyRecords(split.offset, split.length);
    for (auto& record : records) {
      MINIHIVE_RETURN_IF_ERROR(emitter->Emit(EncodeKey(record.key, ascending_),
                                             EncodeValues(record.value),
                                             record.tag));
    }
    return Status::OK();
  }

 private:
  std::vector<bool> ascending_;
};

/// Collects each partition's (key, tag) arrival sequence.
struct KeyTag {
  Row key;
  int tag;
};

class SequenceReduceTask : public ReduceTask {
 public:
  SequenceReduceTask(std::mutex* mutex,
                     std::map<int, std::vector<KeyTag>>* sink, int partition)
      : mutex_(mutex), sink_(sink), partition_(partition) {}

  Status StartGroup(std::string_view) override { return Status::OK(); }
  Status Reduce(std::string_view key, std::string_view, int tag) override {
    std::lock_guard<std::mutex> lock(*mutex_);
    (*sink_)[partition_].push_back({KeyRow(key), tag});
    return Status::OK();
  }
  Status EndGroup() override { return Status::OK(); }
  Status Finish() override { return Status::OK(); }

 private:
  std::mutex* mutex_;
  std::map<int, std::vector<KeyTag>>* sink_;
  int partition_;
};

TEST(EngineTest, KWayMergeMatchesFullSortOrdering) {
  // Property: for random keys, mixed per-column sort directions, and tag
  // tie-breaks, the merged stream each reducer sees must equal the old
  // full-sort of its partition.
  const std::vector<std::vector<bool>> directions = {
      {}, {false}, {true, false}, {false, true}};
  for (const std::vector<bool>& ascending : directions) {
    const int kReducers = 3;
    const int kSplits = 7;
    const uint64_t kRecordsPerSplit = 200;

    dfs::FileSystem fs;
    TestEngine engine(&fs, 4);
    JobConfig job;
    job.name = "merge-property";
    for (int s = 0; s < kSplits; ++s) {
      job.splits.push_back(
          {"", static_cast<uint64_t>(s + 1) * 7919, kRecordsPerSplit, -1, 0});
    }
    job.num_reducers = kReducers;
    job.map_factory = [&ascending] {
      return std::make_unique<PropertyMapTask>(ascending);
    };
    std::mutex mutex;
    std::map<int, std::vector<KeyTag>> merged;
    job.reduce_factory = [&](int partition, int) {
      return std::make_unique<SequenceReduceTask>(&mutex, &merged, partition);
    };
    JobCounters counters;
    ASSERT_TRUE(engine.RunJob(job, &counters).ok());

    // Reference: regenerate the workload, partition it the same way, and
    // full-sort each partition by (key honouring direction, tag).
    std::map<int, std::vector<KeyTag>> reference;
    for (int s = 0; s < kSplits; ++s) {
      auto records = MakePropertyRecords(
          static_cast<uint64_t>(s + 1) * 7919, kRecordsPerSplit);
      for (const auto& record : records) {
        int partition =
            KeyPartition(EncodeKey(record.key, ascending), kReducers);
        reference[partition].push_back({record.key, record.tag});
      }
    }
    auto less = [&ascending](const KeyTag& a, const KeyTag& b) {
      for (size_t i = 0; i < a.key.size(); ++i) {
        int c = a.key[i].Compare(b.key[i]);
        if (c != 0) {
          bool asc = i >= ascending.size() || ascending[i];
          return asc ? c < 0 : c > 0;
        }
      }
      return a.tag < b.tag;
    };
    for (auto& [partition, sequence] : reference) {
      std::stable_sort(sequence.begin(), sequence.end(), less);
    }

    for (int partition = 0; partition < kReducers; ++partition) {
      const auto& got = merged[partition];
      const auto& want = reference[partition];
      ASSERT_EQ(got.size(), want.size()) << "partition " << partition;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].key[0].AsInt(), want[i].key[0].AsInt())
            << "partition " << partition << " position " << i;
        ASSERT_EQ(got[i].key[1].AsString(), want[i].key[1].AsString())
            << "partition " << partition << " position " << i;
        ASSERT_EQ(got[i].tag, want[i].tag)
            << "partition " << partition << " position " << i;
      }
    }
    EXPECT_EQ(counters.reduce_input_records.load(),
              static_cast<uint64_t>(kSplits) * kRecordsPerSplit);
  }
}

/// Map task that fails its first `failures` attempts per task, then behaves
/// like ModuloMapTask. Exercises the engine's per-attempt retry loop.
class FlakyMapTask : public MapTask {
 public:
  FlakyMapTask(int buckets, int failures) : inner_(buckets),
                                            failures_(failures) {}
  Status Run(const InputSplit& split, int task_index, int attempt,
             ShuffleEmitter* emitter) override {
    if (attempt < failures_) {
      // Emit some records first so the engine must discard the partial
      // attempt's counters and shuffle output.
      MINIHIVE_RETURN_IF_ERROR(emitter->Emit(
          EncodeKey({Value::Int(0)}), EncodeValues({Value::Int(-1)}), 0));
      return Status::IoError("injected flake on attempt " +
                             std::to_string(attempt));
    }
    return inner_.Run(split, task_index, attempt, emitter);
  }

 private:
  ModuloMapTask inner_;
  int failures_;
};

TEST(EngineTest, FlakyMapTaskSucceedsOnRetryWithExactCounters) {
  dfs::FileSystem fs;
  TestEngine engine(&fs, 4);
  JobConfig job;
  job.name = "flaky-maps";
  for (int s = 0; s < 6; ++s) {
    job.splits.push_back({"", static_cast<uint64_t>(s) * 1000, 1000, -1, 0});
  }
  job.num_reducers = 2;
  job.max_task_attempts = 3;
  job.map_factory = [] { return std::make_unique<FlakyMapTask>(97, 2); };
  std::mutex mutex;
  std::vector<GroupRecord> groups;
  job.reduce_factory = [&](int, int) {
    return std::make_unique<CollectingReduceTask>(&mutex, &groups);
  };
  JobCounters counters;
  ASSERT_TRUE(engine.RunJob(job, &counters).ok());

  // Failed attempts must not leak records into the shuffle or the counters:
  // the totals are exactly those of a fault-free run.
  EXPECT_EQ(counters.map_output_records.load(), 6000u);
  EXPECT_EQ(counters.reduce_input_records.load(), 6000u);
  EXPECT_EQ(counters.map_task_failures.load(), 12u);  // 6 tasks x 2 flakes.
  EXPECT_EQ(counters.reduce_task_failures.load(), 0u);
  int64_t total = 0;
  for (const GroupRecord& g : groups) total += g.sum;
  EXPECT_EQ(total, 5999LL * 6000 / 2);
}

TEST(EngineTest, MapAttemptsExhaustedFailsWithLastError) {
  class AlwaysFailingMapTask : public MapTask {
   public:
    Status Run(const InputSplit&, int, int, ShuffleEmitter*) override {
      return Status::IoError("disk on fire");
    }
  };
  dfs::FileSystem fs;
  TestEngine engine(&fs, 1);
  JobConfig job;
  job.splits.push_back({"", 0, 10, -1, 0});
  job.num_reducers = 1;
  job.max_task_attempts = 3;
  job.map_factory = [] { return std::make_unique<AlwaysFailingMapTask>(); };
  job.reduce_factory = [](int, int) {
    std::abort();  // Unreachable: the map phase never succeeds.
    return std::unique_ptr<ReduceTask>();
  };
  JobCounters counters;
  Status status = engine.RunJob(job, &counters);
  ASSERT_TRUE(status.IsIoError()) << status.ToString();
  // The error identifies the task, the attempt budget, and the root cause.
  EXPECT_NE(status.ToString().find("after 3 attempts"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("disk on fire"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(counters.map_task_failures.load(), 3u);
}

TEST(EngineTest, FlakyReduceTaskRetriesAgainstIntactRuns) {
  // Reduce attempt 0 consumes the whole merged stream and then fails; the
  // retry must see the identical stream (the engine may not release map
  // runs until an attempt succeeds).
  class FlakyReduceTask : public ReduceTask {
   public:
    FlakyReduceTask(std::mutex* mutex, std::vector<GroupRecord>* sink,
                    int attempt)
        : inner_(mutex, sink), attempt_(attempt) {}
    Status StartGroup(std::string_view key) override {
      return attempt_ == 0 ? Status::OK() : inner_.StartGroup(key);
    }
    Status Reduce(std::string_view key, std::string_view value,
                  int tag) override {
      return attempt_ == 0 ? Status::OK() : inner_.Reduce(key, value, tag);
    }
    Status EndGroup() override {
      return attempt_ == 0 ? Status::OK() : inner_.EndGroup();
    }
    Status Finish() override {
      if (attempt_ == 0) return Status::IoError("reduce flake");
      return inner_.Finish();
    }

   private:
    CollectingReduceTask inner_;
    int attempt_;
  };
  dfs::FileSystem fs;
  TestEngine engine(&fs, 2);
  JobConfig job;
  for (int s = 0; s < 4; ++s) {
    job.splits.push_back({"", static_cast<uint64_t>(s) * 500, 500, -1, 0});
  }
  job.num_reducers = 2;
  job.max_task_attempts = 2;
  job.map_factory = [] { return std::make_unique<ModuloMapTask>(10); };
  std::mutex mutex;
  std::vector<GroupRecord> groups;
  job.reduce_factory = [&](int, int attempt) {
    return std::make_unique<FlakyReduceTask>(&mutex, &groups, attempt);
  };
  JobCounters counters;
  ASSERT_TRUE(engine.RunJob(job, &counters).ok());
  EXPECT_EQ(counters.reduce_task_failures.load(), 2u);  // One per partition.
  // Only the successful attempts' consumption is counted.
  EXPECT_EQ(counters.reduce_input_records.load(), 2000u);
  int64_t count = 0;
  for (const GroupRecord& g : groups) count += g.count;
  EXPECT_EQ(count, 2000);
}

TEST(EngineTest, CommitAndAbortHooksFirePerAttempt) {
  struct Event {
    TaskKind kind;
    int index;
    int attempt;
    bool committed;
  };
  std::mutex mutex;
  std::vector<Event> events;
  dfs::FileSystem fs;
  TestEngine engine(&fs, 2);
  JobConfig job;
  for (int s = 0; s < 3; ++s) {
    job.splits.push_back({"", static_cast<uint64_t>(s) * 100, 100, -1, 0});
  }
  job.num_reducers = 1;
  job.max_task_attempts = 2;
  job.map_factory = [] { return std::make_unique<FlakyMapTask>(5, 1); };
  std::vector<GroupRecord> groups;
  job.reduce_factory = [&](int, int) {
    return std::make_unique<CollectingReduceTask>(&mutex, &groups);
  };
  job.commit_task = [&](TaskKind kind, int index, int attempt) {
    std::lock_guard<std::mutex> lock(mutex);
    events.push_back({kind, index, attempt, true});
    return Status::OK();
  };
  job.abort_task = [&](TaskKind kind, int index, int attempt) {
    std::lock_guard<std::mutex> lock(mutex);
    events.push_back({kind, index, attempt, false});
  };
  JobCounters counters;
  ASSERT_TRUE(engine.RunJob(job, &counters).ok());

  int map_commits = 0, map_aborts = 0, reduce_commits = 0, reduce_aborts = 0;
  for (const Event& e : events) {
    if (e.kind == TaskKind::kMap) {
      if (e.committed) {
        ++map_commits;
        EXPECT_EQ(e.attempt, 1) << "map " << e.index;
      } else {
        ++map_aborts;
        EXPECT_EQ(e.attempt, 0) << "map " << e.index;
      }
    } else {
      (e.committed ? reduce_commits : reduce_aborts)++;
    }
  }
  EXPECT_EQ(map_commits, 3);   // Every map commits exactly once...
  EXPECT_EQ(map_aborts, 3);    // ...after exactly one aborted attempt.
  EXPECT_EQ(reduce_commits, 1);
  EXPECT_EQ(reduce_aborts, 0);
}

TEST(EngineTest, FailingCommitHookFailsTheAttempt) {
  // A commit that cannot promote its outputs must count as a failed attempt
  // (and be retried like any other failure).
  std::atomic<int> commit_calls{0};
  dfs::FileSystem fs;
  TestEngine engine(&fs, 1);
  JobConfig job;
  job.splits.push_back({"", 0, 10, -1, 0});
  job.num_reducers = 0;
  job.max_task_attempts = 2;
  job.map_factory = [] { return std::make_unique<ModuloMapTask>(5); };
  job.commit_task = [&](TaskKind, int, int) {
    return commit_calls.fetch_add(1) == 0
               ? Status::IoError("rename lost a race")
               : Status::OK();
  };
  JobCounters counters;
  ASSERT_TRUE(engine.RunJob(job, &counters).ok());
  EXPECT_EQ(commit_calls.load(), 2);
  EXPECT_EQ(counters.map_task_failures.load(), 1u);
}

TEST(EstimateRowBytesTest, GrowsWithContent) {
  Row small = {Value::Int(1)};
  Row big = {Value::Int(1), Value::String(std::string(100, 'x')),
             Value::Double(1.5)};
  EXPECT_LT(EstimateRowBytes(small), EstimateRowBytes(big));
  EXPECT_GE(EstimateRowBytes(big), 100u);
}

}  // namespace
}  // namespace minihive::mr
