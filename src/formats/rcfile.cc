#include "formats/rcfile.h"

#include <algorithm>

#include "common/bytes.h"
#include "orc/stream_encoding.h"
#include "serde/serde.h"

namespace minihive::formats {

namespace {

constexpr char kMagic[] = "MINIRC01";
constexpr size_t kMagicLen = 8;
constexpr uint64_t kSyncSalt = 0xda3e39cb94b95bdbULL;

/// One column's buffered data within the current row group. Value lengths
/// are run-length encoded (real RCFile also RLEs its key/length sections,
/// which is where its size win over plain text comes from).
struct ColumnBuffer {
  orc::IntRleEncoder lengths;
  std::string bytes;  // Concatenated value text.
  void Clear() {
    lengths = orc::IntRleEncoder();
    bytes.clear();
  }
};

class RcFileWriter : public FileWriter {
 public:
  RcFileWriter(std::unique_ptr<dfs::WritableFile> file, TypePtr schema,
               std::string sync_marker, codec::CompressionKind codec_kind,
               uint64_t row_group_size)
      : file_(std::move(file)),
        schema_(std::move(schema)),
        sync_marker_(std::move(sync_marker)),
        codec_kind_(codec_kind),
        codec_(codec::GetCodec(codec_kind)),
        row_group_size_(row_group_size),
        columns_(schema_->children().size()) {}

  Status AddRow(const Row& row) override {
    if (!header_written_) {
      MINIHIVE_RETURN_IF_ERROR(WriteHeader());
    }
    const auto& fields = schema_->children();
    if (row.size() != fields.size()) {
      return Status::InvalidArgument("row arity does not match schema");
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      std::string text;
      MINIHIVE_RETURN_IF_ERROR(
          serde::TextEncodeValue(row[i], *fields[i], 1, &text));
      columns_[i].lengths.Add(static_cast<int64_t>(text.size()));
      columns_[i].bytes.append(text);
      buffered_ += text.size() + 1;
    }
    ++num_rows_;
    if (buffered_ >= row_group_size_) return FlushRowGroup();
    return Status::OK();
  }

  Status Close() override {
    if (!header_written_) {
      MINIHIVE_RETURN_IF_ERROR(WriteHeader());
    }
    MINIHIVE_RETURN_IF_ERROR(FlushRowGroup());
    return file_->Close();
  }

 private:
  Status WriteHeader() {
    MINIHIVE_RETURN_IF_ERROR(file_->Append(kMagic));
    std::string codec_byte(1, static_cast<char>(codec_kind_));
    MINIHIVE_RETURN_IF_ERROR(file_->Append(codec_byte));
    MINIHIVE_RETURN_IF_ERROR(file_->Append(sync_marker_));
    header_written_ = true;
    return Status::OK();
  }

  Status FlushRowGroup() {
    if (num_rows_ == 0) return Status::OK();
    // Sync marker announcing the group.
    std::string out;
    PutVarint64(&out, 0);
    out.append(sync_marker_);
    // Encode (and maybe compress) each column buffer.
    std::vector<std::string> stored(columns_.size());
    std::vector<uint64_t> raw_sizes(columns_.size());
    for (size_t i = 0; i < columns_.size(); ++i) {
      std::string raw;
      columns_[i].lengths.Finish(&raw);
      // Length-prefix the encoded lengths so the reader can split sections.
      std::string framed;
      PutVarint64(&framed, raw.size());
      framed += raw;
      framed += columns_[i].bytes;
      raw = std::move(framed);
      raw_sizes[i] = raw.size();
      if (codec_ != nullptr) {
        std::string compressed;
        MINIHIVE_RETURN_IF_ERROR(codec_->Compress(raw, &compressed));
        if (compressed.size() < raw.size()) {
          stored[i] = std::move(compressed);
        } else {
          stored[i] = std::move(raw);
        }
      } else {
        stored[i] = std::move(raw);
      }
    }
    // Group header: rows, columns, per-column (stored_len, raw_len).
    PutVarint64(&out, num_rows_);
    PutVarint64(&out, columns_.size());
    for (size_t i = 0; i < columns_.size(); ++i) {
      PutVarint64(&out, stored[i].size());
      PutVarint64(&out, raw_sizes[i]);
    }
    for (size_t i = 0; i < columns_.size(); ++i) {
      out.append(stored[i]);
    }
    MINIHIVE_RETURN_IF_ERROR(file_->Append(out));
    for (ColumnBuffer& col : columns_) col.Clear();
    num_rows_ = 0;
    buffered_ = 0;
    return Status::OK();
  }

  std::unique_ptr<dfs::WritableFile> file_;
  TypePtr schema_;
  std::string sync_marker_;
  codec::CompressionKind codec_kind_;
  const codec::Codec* codec_;
  uint64_t row_group_size_;
  std::vector<ColumnBuffer> columns_;
  uint64_t num_rows_ = 0;
  uint64_t buffered_ = 0;
  bool header_written_ = false;
};

class RcFileReader : public RowReader {
 public:
  RcFileReader(std::shared_ptr<dfs::ReadableFile> file, TypePtr schema,
               std::string sync_marker, const ReadOptions& options)
      : file_(std::move(file)),
        schema_(std::move(schema)),
        sync_marker_(std::move(sync_marker)),
        projected_(options.projected_columns),
        reader_host_(options.reader_host) {
    uint64_t file_size = file_->Size();
    split_end_ = options.split_length == 0
                     ? file_size
                     : std::min(file_size,
                                options.split_offset + options.split_length);
    pos_ = options.split_offset;
    size_t num_cols = this->schema_->children().size();
    wanted_.assign(num_cols, projected_.empty() ? 1 : 0);
    for (int col : projected_) {
      if (col >= 0 && static_cast<size_t>(col) < num_cols) wanted_[col] = 1;
    }
  }

  Result<bool> Next(Row* row) override {
    if (!initialized_) {
      MINIHIVE_RETURN_IF_ERROR(Initialize());
      initialized_ = true;
    }
    while (true) {
      if (done_) return false;
      if (row_in_group_ >= group_rows_) {
        MINIHIVE_RETURN_IF_ERROR(LoadNextGroup());
        if (done_) return false;
      }
      const auto& fields = schema_->children();
      row->assign(fields.size(), Value::Null());
      for (size_t i = 0; i < fields.size(); ++i) {
        if (!wanted_[i]) continue;
        std::string_view text = group_values_[i][row_in_group_];
        // Type-agnostic storage: every access re-parses the text, complex
        // values in full (paper §3, second shortcoming).
        MINIHIVE_RETURN_IF_ERROR(
            serde::TextDecodeValue(text, *fields[i], 1, &(*row)[i]));
      }
      ++row_in_group_;
      return true;
    }
  }

 private:
  Status Initialize() {
    // Every reader fetches the tiny header to learn the codec.
    std::string header;
    MINIHIVE_RETURN_IF_ERROR(
        file_->ReadAt(0, kMagicLen + 1, &header, reader_host_));
    if (header.compare(0, kMagicLen, kMagic) != 0) {
      return Status::Corruption("not an RCFile: bad magic");
    }
    codec_ = codec::GetCodec(
        static_cast<codec::CompressionKind>(header[kMagicLen]));
    if (pos_ == 0) {
      pos_ = kMagicLen + 1 + kSyncMarkerLen;
      return Status::OK();
    }
    return ScanToSync();
  }

  /// Positions the reader at the split's first row group (group ownership
  /// matches SequenceFile: marker start must fall inside [split_offset,
  /// split_end)).
  Status ScanToSync() {
    MINIHIVE_ASSIGN_OR_RETURN(
        std::optional<uint64_t> marker_pos,
        FindSyncMarker(file_.get(), sync_marker_, pos_, split_end_,
                       reader_host_));
    if (!marker_pos.has_value()) {
      done_ = true;
      return Status::OK();
    }
    // Rewind to the varint-0 byte announcing the marker.
    pos_ = *marker_pos - 1;
    return Status::OK();
  }

  Status LoadNextGroup() {
    uint64_t file_size = file_->Size();
    if (pos_ >= file_size) {
      done_ = true;
      return Status::OK();
    }
    // Read the group prelude: sync announcement + header. Header size is
    // bounded by ~20 bytes per column plus slack.
    uint64_t prelude_cap = std::min<uint64_t>(
        file_size - pos_,
        1 + kSyncMarkerLen + 20 * (2 * schema_->children().size() + 2));
    std::string prelude;
    MINIHIVE_RETURN_IF_ERROR(
        file_->ReadAt(pos_, prelude_cap, &prelude, reader_host_));
    ByteReader reader(prelude);
    uint64_t zero;
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&zero));
    if (zero != 0) return Status::Corruption("missing RCFile sync escape");
    uint64_t marker_start = pos_ + reader.position();
    if (marker_start >= split_end_) {
      done_ = true;
      return Status::OK();
    }
    std::string_view marker;
    MINIHIVE_RETURN_IF_ERROR(reader.GetBytes(kSyncMarkerLen, &marker));
    if (marker != sync_marker_) {
      return Status::Corruption("bad RCFile sync marker");
    }
    uint64_t rows, cols;
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&rows));
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&cols));
    if (cols != schema_->children().size()) {
      return Status::Corruption("RCFile column count mismatch");
    }
    std::vector<uint64_t> stored_len(cols), raw_len(cols);
    for (uint64_t i = 0; i < cols; ++i) {
      MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&stored_len[i]));
      MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&raw_len[i]));
    }
    uint64_t data_start = pos_ + reader.position();
    // Read only projected columns' buffers (columnar I/O benefit).
    group_values_.assign(cols, {});
    group_backing_.assign(cols, {});
    uint64_t offset = data_start;
    for (uint64_t i = 0; i < cols; ++i) {
      if (wanted_[i]) {
        std::string stored;
        MINIHIVE_RETURN_IF_ERROR(
            file_->ReadAt(offset, stored_len[i], &stored, reader_host_));
        std::string raw;
        if (stored_len[i] == raw_len[i]) {
          raw = std::move(stored);
        } else {
          if (codec_ == nullptr) {
            return Status::Corruption("compressed RCFile column, no codec");
          }
          MINIHIVE_RETURN_IF_ERROR(codec_->Decompress(stored, &raw));
        }
        MINIHIVE_RETURN_IF_ERROR(SliceColumn(std::move(raw), rows, i));
      }
      offset += stored_len[i];
    }
    pos_ = offset;
    group_rows_ = rows;
    row_in_group_ = 0;
    return Status::OK();
  }

  /// Splits a raw column buffer (RLE lengths section then bytes) into
  /// per-row string views over the retained backing buffer.
  Status SliceColumn(std::string raw, uint64_t rows, uint64_t col) {
    group_backing_[col] = std::move(raw);
    const std::string& buf = group_backing_[col];
    ByteReader reader(buf);
    uint64_t lengths_size;
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&lengths_size));
    std::string_view lengths_bytes;
    MINIHIVE_RETURN_IF_ERROR(reader.GetBytes(lengths_size, &lengths_bytes));
    orc::IntRleDecoder decoder(lengths_bytes);
    std::vector<int64_t> lengths(rows);
    MINIHIVE_RETURN_IF_ERROR(decoder.NextBatch(lengths.data(), rows));
    uint64_t total = 0;
    for (int64_t len : lengths) total += static_cast<uint64_t>(len);
    if (reader.remaining() != total) {
      return Status::Corruption("RCFile column buffer size mismatch");
    }
    std::vector<std::string_view> views(rows);
    size_t at = reader.position();
    for (uint64_t r = 0; r < rows; ++r) {
      views[r] = std::string_view(buf).substr(at, lengths[r]);
      at += static_cast<uint64_t>(lengths[r]);
    }
    group_values_[col] = std::move(views);
    return Status::OK();
  }

  std::shared_ptr<dfs::ReadableFile> file_;
  TypePtr schema_;
  std::string sync_marker_;
  const codec::Codec* codec_ = nullptr;
  std::vector<int> projected_;
  int reader_host_;
  std::vector<uint8_t> wanted_;
  uint64_t split_end_ = 0;
  uint64_t pos_ = 0;
  bool initialized_ = false;
  bool done_ = false;
  uint64_t group_rows_ = 0;
  uint64_t row_in_group_ = 0;
  std::vector<std::vector<std::string_view>> group_values_;
  std::vector<std::string> group_backing_;
};

}  // namespace

Result<std::unique_ptr<FileWriter>> RcFileFormat::CreateWriter(
    dfs::FileSystem* fs, const std::string& path, TypePtr schema,
    const WriterOptions& options) const {
  MINIHIVE_ASSIGN_OR_RETURN(std::unique_ptr<dfs::WritableFile> file,
                            fs->Create(path));
  return std::unique_ptr<FileWriter>(new RcFileWriter(
      std::move(file), std::move(schema), MakeSyncMarker(path, kSyncSalt),
      options.compression, options_.row_group_size));
}

Result<std::unique_ptr<RowReader>> RcFileFormat::OpenReader(
    dfs::FileSystem* fs, const std::string& path, TypePtr schema,
    const ReadOptions& options) const {
  MINIHIVE_ASSIGN_OR_RETURN(std::shared_ptr<dfs::ReadableFile> file,
                            OpenCounted(fs, path, options));
  return std::unique_ptr<RowReader>(new RcFileReader(
      std::move(file), std::move(schema), MakeSyncMarker(path, kSyncSalt),
      options));
}

}  // namespace minihive::formats
