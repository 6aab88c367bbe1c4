#include "formats/textfile.h"

#include "serde/serde.h"

namespace minihive::formats {

namespace {

// Writer buffers a modest amount before appending to the DFS to keep append
// call overhead low.
constexpr size_t kWriteBufferSize = 1 << 20;
// Readers stream the split in chunks rather than loading whole files.
constexpr uint64_t kReadChunk = 4 << 20;

class TextFileWriter : public FileWriter {
 public:
  TextFileWriter(std::unique_ptr<dfs::WritableFile> file, TypePtr schema)
      : file_(std::move(file)), serde_(std::move(schema)) {}

  Status AddRow(const Row& row) override {
    MINIHIVE_RETURN_IF_ERROR(serde_.Serialize(row, &buffer_));
    buffer_.push_back('\n');
    if (buffer_.size() >= kWriteBufferSize) return Flush();
    return Status::OK();
  }

  Status Close() override {
    MINIHIVE_RETURN_IF_ERROR(Flush());
    return file_->Close();
  }

 private:
  Status Flush() {
    if (buffer_.empty()) return Status::OK();
    MINIHIVE_RETURN_IF_ERROR(file_->Append(buffer_));
    buffer_.clear();
    return Status::OK();
  }

  std::unique_ptr<dfs::WritableFile> file_;
  serde::TextSerDe serde_;
  std::string buffer_;
};

class TextFileReader : public RowReader {
 public:
  TextFileReader(std::shared_ptr<dfs::ReadableFile> file, TypePtr schema,
                 const ReadOptions& options)
      : file_(std::move(file)),
        serde_(std::move(schema)),
        projected_(options.projected_columns),
        reader_host_(options.reader_host) {
    uint64_t file_size = file_->Size();
    split_end_ = options.split_length == 0
                     ? file_size
                     : std::min(file_size,
                                options.split_offset + options.split_length);
    pos_ = options.split_offset;
    needs_sync_ = pos_ > 0;
  }

  Result<bool> Next(Row* row) override {
    if (needs_sync_) {
      MINIHIVE_RETURN_IF_ERROR(SkipPartialLine());
      needs_sync_ = false;
    }
    // A line belongs to this split if it starts before split_end_.
    std::string line;
    bool found = false;
    MINIHIVE_RETURN_IF_ERROR(ReadLine(&line, &found));
    if (!found) return false;
    MINIHIVE_RETURN_IF_ERROR(serde_.Deserialize(line, projected_, row));
    return true;
  }

 private:
  /// After seeking into the middle of a file, discard the partial line; the
  /// previous split's reader owns it.
  Status SkipPartialLine() {
    std::string dummy;
    bool found;
    return ReadLineInternal(&dummy, &found, /*line_must_start_in_split=*/false);
  }

  Status ReadLine(std::string* line, bool* found) {
    return ReadLineInternal(line, found, true);
  }

  Status ReadLineInternal(std::string* line, bool* found,
                          bool line_must_start_in_split) {
    *found = false;
    // Hadoop LineRecordReader semantics: a line whose start is <= split_end
    // is read here (the matching mid-file reader skips its first partial or
    // boundary line), so stop only once the next line starts beyond the end.
    if (line_must_start_in_split && LineStart() > split_end_) {
      return Status::OK();
    }
    line->clear();
    while (true) {
      if (chunk_pos_ >= chunk_.size()) {
        MINIHIVE_RETURN_IF_ERROR(FillChunk());
        if (chunk_.empty()) {
          // EOF: a non-empty partial last line still counts.
          *found = !line->empty();
          return Status::OK();
        }
      }
      size_t newline = chunk_.find('\n', chunk_pos_);
      if (newline == std::string::npos) {
        line->append(chunk_, chunk_pos_, chunk_.size() - chunk_pos_);
        chunk_pos_ = chunk_.size();
        continue;
      }
      line->append(chunk_, chunk_pos_, newline - chunk_pos_);
      chunk_pos_ = newline + 1;
      *found = true;
      return Status::OK();
    }
  }

  uint64_t LineStart() const {
    return chunk_offset_ + chunk_pos_;
  }

  Status FillChunk() {
    chunk_offset_ = pos_;
    chunk_pos_ = 0;
    uint64_t n = std::min<uint64_t>(kReadChunk, file_->Size() - pos_);
    chunk_.clear();
    if (n == 0) return Status::OK();
    MINIHIVE_RETURN_IF_ERROR(file_->ReadAt(pos_, n, &chunk_, reader_host_));
    pos_ += n;
    return Status::OK();
  }

  std::shared_ptr<dfs::ReadableFile> file_;
  serde::TextSerDe serde_;
  std::vector<int> projected_;
  int reader_host_;
  uint64_t split_end_ = 0;
  uint64_t pos_ = 0;
  bool needs_sync_ = false;
  std::string chunk_;
  size_t chunk_pos_ = 0;
  uint64_t chunk_offset_ = 0;
};

}  // namespace

Result<std::unique_ptr<FileWriter>> TextFileFormat::CreateWriter(
    dfs::FileSystem* fs, const std::string& path, TypePtr schema,
    const WriterOptions& options) const {
  (void)options;
  MINIHIVE_ASSIGN_OR_RETURN(std::unique_ptr<dfs::WritableFile> file,
                            fs->Create(path));
  return std::unique_ptr<FileWriter>(
      new TextFileWriter(std::move(file), std::move(schema)));
}

Result<std::unique_ptr<RowReader>> TextFileFormat::OpenReader(
    dfs::FileSystem* fs, const std::string& path, TypePtr schema,
    const ReadOptions& options) const {
  MINIHIVE_ASSIGN_OR_RETURN(std::shared_ptr<dfs::ReadableFile> file,
                            OpenCounted(fs, path, options));
  return std::unique_ptr<RowReader>(
      new TextFileReader(std::move(file), std::move(schema), options));
}

}  // namespace minihive::formats
