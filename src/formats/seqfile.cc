#include "formats/seqfile.h"

#include "common/bytes.h"
#include "common/crc32.h"
#include "serde/serde.h"

namespace minihive::formats {

namespace {

constexpr char kMagic[] = "MINISEQ1";
constexpr size_t kMagicLen = 8;
constexpr uint64_t kSyncInterval = 64 * 1024;
constexpr size_t kWriteBufferSize = 1 << 20;
constexpr uint64_t kReadChunk = 4 << 20;

constexpr uint64_t kSyncSalt = 0;

class SeqFileWriter : public FileWriter {
 public:
  SeqFileWriter(std::unique_ptr<dfs::WritableFile> file, TypePtr schema,
                std::string sync_marker)
      : file_(std::move(file)),
        schema_(schema),
        serde_(schema == nullptr ? TypeDescription::CreateStruct()
                                 : std::move(schema)),
        sync_marker_(std::move(sync_marker)) {
    buffer_.append(kMagic, kMagicLen);
    buffer_.append(sync_marker_);
  }

  Status AddRow(const Row& row) override {
    if (BytesSinceSync() >= kSyncInterval) {
      // A record length of 0 announces a sync marker.
      PutVarint64(&buffer_, 0);
      buffer_.append(sync_marker_);
      last_sync_ = file_->Size() + buffer_.size();
    }
    record_.clear();
    if (schema_ == nullptr) {
      // Schema-less (intermediate) files use the self-describing codec.
      serde::VariantEncodeRow(row, &record_);
    } else {
      MINIHIVE_RETURN_IF_ERROR(serde_.Serialize(row, &record_));
    }
    PutVarint64(&buffer_, record_.size());
    // Per-record checksum: a flipped byte in a variant-coded payload can
    // decode to a plausible wrong value, so readers must be able to tell.
    PutFixed32(&buffer_, Crc32(record_));
    buffer_.append(record_);
    if (buffer_.size() >= kWriteBufferSize) return Flush();
    return Status::OK();
  }

  Status Close() override {
    MINIHIVE_RETURN_IF_ERROR(Flush());
    return file_->Close();
  }

 private:
  uint64_t BytesSinceSync() const {
    return file_->Size() + buffer_.size() - last_sync_;
  }

  Status Flush() {
    if (buffer_.empty()) return Status::OK();
    MINIHIVE_RETURN_IF_ERROR(file_->Append(buffer_));
    buffer_.clear();
    return Status::OK();
  }

  std::unique_ptr<dfs::WritableFile> file_;
  TypePtr schema_;  // Null => variant-coded rows.
  serde::BinarySerDe serde_;
  std::string sync_marker_;
  std::string buffer_;
  std::string record_;
  uint64_t last_sync_ = 0;
};

class SeqFileReader : public RowReader {
 public:
  SeqFileReader(std::shared_ptr<dfs::ReadableFile> file, TypePtr schema,
                const ReadOptions& options)
      : file_(std::move(file)),
        schema_(schema),
        serde_(schema == nullptr ? TypeDescription::CreateStruct()
                                 : std::move(schema)),
        projected_(options.projected_columns),
        reader_host_(options.reader_host) {
    uint64_t file_size = file_->Size();
    split_end_ = options.split_length == 0
                     ? file_size
                     : std::min(file_size,
                                options.split_offset + options.split_length);
    pos_ = options.split_offset;
    needs_sync_ = pos_ > 0;
    if (pos_ == 0) skip_header_ = true;
  }

  Result<bool> Next(Row* row) override {
    if (!initialized_) {
      MINIHIVE_RETURN_IF_ERROR(Initialize());
      initialized_ = true;
      if (done_) return false;
    }
    // Ownership rule: the run of records between two sync markers belongs to
    // the split containing the *marker start* that opens the run; a reader
    // therefore reads past split_end_ until the next marker. This mirrors
    // Hadoop's SequenceFile split handling and guarantees exactly-once reads.
    while (true) {
      if (done_ || AtEof()) {
        done_ = true;
        return false;
      }
      uint64_t record_len;
      MINIHIVE_RETURN_IF_ERROR(ReadVarint(&record_len));
      if (record_len == 0) {
        uint64_t marker_start = Position();
        if (marker_start >= split_end_) {
          done_ = true;
          return false;
        }
        MINIHIVE_RETURN_IF_ERROR(SkipBytes(kSyncMarkerLen));
        continue;
      }
      uint32_t expected_crc;
      MINIHIVE_RETURN_IF_ERROR(ReadFixed32(&expected_crc));
      std::string record;
      MINIHIVE_RETURN_IF_ERROR(ReadBytes(record_len, &record));
      if (Crc32(record) != expected_crc) {
        return Status::Corruption("sequence file record checksum mismatch at " +
                                  std::to_string(Position() - record_len));
      }
      if (schema_ == nullptr) {
        MINIHIVE_RETURN_IF_ERROR(serde::VariantDecodeRow(record, row));
      } else {
        MINIHIVE_RETURN_IF_ERROR(serde_.Deserialize(record, projected_, row));
      }
      return true;
    }
  }

 private:
  Status Initialize() {
    // The sync marker comes from the file header — never re-derived from the
    // path — so a file renamed after writing (attempt-output promotion) still
    // scans correctly.
    uint64_t file_size = file_->Size();
    if (file_size == 0) {
      done_ = true;
      return Status::OK();
    }
    if (file_size < kMagicLen + kSyncMarkerLen) {
      return Status::Corruption("sequence file smaller than header");
    }
    std::string header;
    MINIHIVE_RETURN_IF_ERROR(
        file_->ReadAt(0, kMagicLen + kSyncMarkerLen, &header, reader_host_));
    if (header.compare(0, kMagicLen, kMagic, kMagicLen) != 0) {
      return Status::Corruption("bad sequence file magic");
    }
    sync_marker_ = header.substr(kMagicLen, kSyncMarkerLen);
    if (skip_header_) {
      MINIHIVE_RETURN_IF_ERROR(SkipBytes(kMagicLen + kSyncMarkerLen));
      return Status::OK();
    }
    if (needs_sync_) return ScanToSync();
    return Status::OK();
  }

  /// Positions the reader just after the split's first sync marker.
  Status ScanToSync() {
    MINIHIVE_ASSIGN_OR_RETURN(
        std::optional<uint64_t> marker_pos,
        FindSyncMarker(file_.get(), sync_marker_, pos_, split_end_,
                       reader_host_));
    if (!marker_pos.has_value()) {
      done_ = true;
      return Status::OK();
    }
    pos_ = *marker_pos + kSyncMarkerLen;
    chunk_.clear();
    chunk_pos_ = 0;
    chunk_offset_ = pos_;
    return Status::OK();
  }

  uint64_t Position() const { return chunk_offset_ + chunk_pos_; }
  bool AtEof() const { return Position() >= file_->Size(); }

  Status EnsureBytes(size_t n) {
    if (chunk_.size() - chunk_pos_ >= n) return Status::OK();
    std::string rest = chunk_.substr(chunk_pos_);
    chunk_offset_ += chunk_pos_;
    chunk_ = std::move(rest);
    chunk_pos_ = 0;
    uint64_t read_from = chunk_offset_ + chunk_.size();
    uint64_t want = std::max<uint64_t>(kReadChunk, n - chunk_.size());
    want = std::min<uint64_t>(want, file_->Size() - read_from);
    if (chunk_.size() + want < n) {
      return Status::Corruption("truncated sequence file");
    }
    std::string more;
    MINIHIVE_RETURN_IF_ERROR(file_->ReadAt(read_from, want, &more, reader_host_));
    chunk_ += more;
    return Status::OK();
  }

  Status ReadVarint(uint64_t* value) {
    // Varints are at most 10 bytes; ensure availability then decode.
    size_t avail = std::min<uint64_t>(10, file_->Size() - Position());
    MINIHIVE_RETURN_IF_ERROR(EnsureBytes(avail));
    ByteReader reader(std::string_view(chunk_).substr(chunk_pos_));
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(value));
    chunk_pos_ += reader.position();
    return Status::OK();
  }

  Status ReadBytes(size_t n, std::string* out) {
    MINIHIVE_RETURN_IF_ERROR(EnsureBytes(n));
    out->assign(chunk_, chunk_pos_, n);
    chunk_pos_ += n;
    return Status::OK();
  }

  Status ReadFixed32(uint32_t* value) {
    MINIHIVE_RETURN_IF_ERROR(EnsureBytes(4));
    ByteReader reader(std::string_view(chunk_).substr(chunk_pos_, 4));
    MINIHIVE_RETURN_IF_ERROR(reader.GetFixed32(value));
    chunk_pos_ += 4;
    return Status::OK();
  }

  Status SkipBytes(size_t n) {
    MINIHIVE_RETURN_IF_ERROR(EnsureBytes(n));
    chunk_pos_ += n;
    return Status::OK();
  }

  std::shared_ptr<dfs::ReadableFile> file_;
  TypePtr schema_;  // Null => variant-coded rows.
  serde::BinarySerDe serde_;
  std::string sync_marker_;
  std::vector<int> projected_;
  int reader_host_;
  uint64_t split_end_ = 0;
  uint64_t pos_ = 0;
  bool needs_sync_ = false;
  bool skip_header_ = false;
  bool initialized_ = false;
  bool done_ = false;
  std::string chunk_;
  size_t chunk_pos_ = 0;
  uint64_t chunk_offset_ = 0;
};

}  // namespace

Result<std::unique_ptr<FileWriter>> SequenceFileFormat::CreateWriter(
    dfs::FileSystem* fs, const std::string& path, TypePtr schema,
    const WriterOptions& options) const {
  (void)options;
  MINIHIVE_ASSIGN_OR_RETURN(std::unique_ptr<dfs::WritableFile> file,
                            fs->Create(path));
  return std::unique_ptr<FileWriter>(new SeqFileWriter(
      std::move(file), std::move(schema), MakeSyncMarker(path, kSyncSalt)));
}

Result<std::unique_ptr<RowReader>> SequenceFileFormat::OpenReader(
    dfs::FileSystem* fs, const std::string& path, TypePtr schema,
    const ReadOptions& options) const {
  MINIHIVE_ASSIGN_OR_RETURN(std::shared_ptr<dfs::ReadableFile> file,
                            OpenCounted(fs, path, options));
  return std::unique_ptr<RowReader>(
      new SeqFileReader(std::move(file), std::move(schema), options));
}

}  // namespace minihive::formats
