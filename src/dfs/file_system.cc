#include "dfs/file_system.h"

#include <algorithm>

namespace minihive::dfs {

namespace {

class WritableFileImpl : public WritableFile {
 public:
  WritableFileImpl(FileSystem* fs, std::string path,
                   std::shared_ptr<FileSystem::FileData> data,
                   uint64_t block_size)
      : fs_(fs),
        path_(std::move(path)),
        data_(std::move(data)),
        block_size_(block_size) {}

  Status Append(std::string_view bytes) override {
    if (closed_) return Status::IoError("append to closed file");
    if (FaultInjector* faults = fs_->fault_injector()) {
      faults->MaybeDelay(FaultSite::kAppend, path_);
      MINIHIVE_RETURN_IF_ERROR(faults->MaybeError(FaultSite::kAppend, path_));
    }
    data_->contents.append(bytes.data(), bytes.size());
    fs_->stats().bytes_written += bytes.size();
    return Status::OK();
  }

  uint64_t Size() const override { return data_->contents.size(); }

  uint64_t RemainingInBlock() const override {
    uint64_t used = data_->contents.size() % block_size_;
    return block_size_ - used;
  }

  Status PadToBlockBoundary() override {
    if (closed_) return Status::IoError("pad on closed file");
    uint64_t used = data_->contents.size() % block_size_;
    if (used == 0) return Status::OK();
    uint64_t pad = block_size_ - used;
    data_->contents.append(pad, '\0');
    fs_->stats().bytes_written += pad;
    return Status::OK();
  }

  Status Close() override {
    if (FaultInjector* faults = fs_->fault_injector()) {
      MINIHIVE_RETURN_IF_ERROR(faults->MaybeError(FaultSite::kClose, path_));
    }
    closed_ = true;
    data_->closed = true;
    return Status::OK();
  }

 private:
  FileSystem* fs_;
  std::string path_;
  std::shared_ptr<FileSystem::FileData> data_;
  uint64_t block_size_;
  bool closed_ = false;
};

class ReadableFileImpl : public ReadableFile {
 public:
  ReadableFileImpl(FileSystem* fs, std::string path,
                   std::shared_ptr<const FileSystem::FileData> data,
                   uint64_t block_size, uint64_t generation,
                   std::atomic<uint64_t>* bytes_read)
      : fs_(fs),
        path_(std::move(path)),
        data_(std::move(data)),
        block_size_(block_size),
        generation_(generation),
        bytes_read_(bytes_read) {}

  uint64_t Size() const override { return data_->contents.size(); }
  uint64_t Generation() const override { return generation_; }

  Status ReadAt(uint64_t offset, uint64_t length, std::string* out,
                int reader_host) override {
    if (offset > data_->contents.size() ||
        length > data_->contents.size() - offset) {
      return Status::OutOfRange("read past end of file");
    }
    FaultInjector* faults = fs_->fault_injector();
    if (faults != nullptr) {
      faults->MaybeDelay(FaultSite::kRead, path_);
      MINIHIVE_RETURN_IF_ERROR(faults->MaybeError(FaultSite::kRead, path_));
    }
    out->assign(data_->contents, offset, length);
    if (faults != nullptr) faults->MaybeFlip(path_, offset, out);

    IoStats& stats = fs_->stats();
    stats.bytes_read += length;
    stats.read_ops += 1;
    if (bytes_read_ != nullptr) *bytes_read_ += length;
    if (length > 0) {
      uint64_t first_block = offset / block_size_;
      uint64_t last_block = (offset + length - 1) / block_size_;
      for (uint64_t b = first_block; b <= last_block; ++b) {
        bool local = false;
        if (reader_host >= 0 && b < data_->block_hosts.size()) {
          const std::vector<int>& hosts = data_->block_hosts[b];
          local = std::find(hosts.begin(), hosts.end(), reader_host) !=
                  hosts.end();
        }
        if (local) {
          stats.local_block_reads += 1;
        } else {
          stats.remote_block_reads += 1;
        }
      }
    }
    return Status::OK();
  }

  std::vector<BlockLocation> GetBlockLocations(uint64_t offset,
                                               uint64_t length) const override {
    std::vector<BlockLocation> result;
    if (length == 0 || data_->contents.empty()) return result;
    uint64_t end = std::min<uint64_t>(offset + length, data_->contents.size());
    uint64_t first_block = offset / block_size_;
    uint64_t last_block = (end - 1) / block_size_;
    for (uint64_t b = first_block; b <= last_block; ++b) {
      BlockLocation loc;
      loc.offset = b * block_size_;
      loc.length =
          std::min<uint64_t>(block_size_, data_->contents.size() - loc.offset);
      if (b < data_->block_hosts.size()) loc.hosts = data_->block_hosts[b];
      result.push_back(std::move(loc));
    }
    return result;
  }

 private:
  FileSystem* fs_;
  std::string path_;
  std::shared_ptr<const FileSystem::FileData> data_;
  uint64_t block_size_;
  uint64_t generation_;
  std::atomic<uint64_t>* bytes_read_;
};

}  // namespace

FileSystem::FileSystem(FileSystemOptions options) : options_(options) {}

std::vector<int> FileSystem::PlaceBlock(uint64_t block_index,
                                        uint64_t placement_seed) {
  std::vector<int> hosts;
  int n = options_.num_datanodes;
  int r = std::min(options_.replication, n);
  for (int i = 0; i < r; ++i) {
    hosts.push_back(
        static_cast<int>((placement_seed + block_index + i) % n));
  }
  return hosts;
}

Result<std::unique_ptr<WritableFile>> FileSystem::Create(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (files_.count(path) > 0) {
    return Status::AlreadyExists("file exists: " + path);
  }
  auto data = std::make_shared<FileData>();
  files_[path] = data;
  ++generations_[path];
  // Lazily fill block placement on close is unnecessary: blocks are placed
  // deterministically by index, so precomputation is not needed until Open().
  return std::unique_ptr<WritableFile>(
      new WritableFileImpl(this, path, data, options_.block_size));
}

Result<std::shared_ptr<ReadableFile>> FileSystem::Open(
    const std::string& path, std::atomic<uint64_t>* bytes_read) {
  if (FaultInjector* faults = fault_injector()) {
    MINIHIVE_RETURN_IF_ERROR(faults->MaybeError(FaultSite::kOpen, path));
  }
  std::shared_ptr<FileData> data;
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("no such file: " + path);
    data = it->second;
    if (!data->closed) return Status::IoError("file still open for write: " + path);
    if (data->block_hosts.empty() && !data->contents.empty()) {
      uint64_t blocks =
          (data->contents.size() + options_.block_size - 1) / options_.block_size;
      uint64_t seed = std::hash<std::string>{}(path);
      for (uint64_t b = 0; b < blocks; ++b) {
        data->block_hosts.push_back(PlaceBlock(b, seed));
      }
    }
    auto gen_it = generations_.find(path);
    if (gen_it != generations_.end()) generation = gen_it->second;
  }
  return std::shared_ptr<ReadableFile>(new ReadableFileImpl(
      this, path, data, options_.block_size, generation, bytes_read));
}

Status FileSystem::Delete(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (files_.erase(path) == 0) return Status::NotFound("no such file: " + path);
  // A later file at this path is a different incarnation; bumping here (not
  // just on re-create) also keeps still-open readers' generations stale.
  ++generations_[path];
  return Status::OK();
}

Status FileSystem::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound("no such file: " + from);
  if (!it->second->closed) {
    return Status::IoError("rename of file still open for write: " + from);
  }
  // Replace-if-exists (POSIX rename semantics). Task-output promotion
  // depends on this: when a commit fails partway and the task is retried,
  // the retry's commit renames over the stale file from the earlier
  // attempt — the last committed output must win, not fail AlreadyExists
  // and wedge every subsequent attempt.
  files_[to] = std::move(it->second);
  files_.erase(it);
  // Both endpoints change incarnation: `from` no longer exists and `to` now
  // holds different bytes, so cache keys minted for either are dead.
  ++generations_[from];
  ++generations_[to];
  return Status::OK();
}

uint64_t FileSystem::PathGeneration(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = generations_.find(path);
  return it == generations_.end() ? 0 : it->second;
}

bool FileSystem::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return files_.count(path) > 0;
}

Result<uint64_t> FileSystem::FileSize(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return static_cast<uint64_t>(it->second->contents.size());
}

std::vector<std::string> FileSystem::List(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> result;
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    result.push_back(it->first);
  }
  return result;
}

uint64_t FileSystem::TotalSize(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    total += it->second->contents.size();
  }
  return total;
}

}  // namespace minihive::dfs
