#include "formats/orcfile_adapter.h"

namespace minihive::formats {

namespace {

class OrcFormatWriter : public FileWriter {
 public:
  explicit OrcFormatWriter(std::unique_ptr<orc::OrcWriter> writer)
      : writer_(std::move(writer)) {}
  Status AddRow(const Row& row) override { return writer_->AddRow(row); }
  Status Close() override { return writer_->Close(); }

 private:
  std::unique_ptr<orc::OrcWriter> writer_;
};

class OrcFormatReader : public RowReader {
 public:
  explicit OrcFormatReader(std::unique_ptr<orc::OrcReader> reader)
      : reader_(std::move(reader)) {}
  Result<bool> Next(Row* row) override { return reader_->NextRow(row); }

 private:
  std::unique_ptr<orc::OrcReader> reader_;
};

}  // namespace

orc::OrcReadOptions ToOrcReadOptions(const ReadOptions& options) {
  orc::OrcReadOptions read_options;
  read_options.projected_fields = options.projected_columns;
  read_options.sarg = options.sarg;
  read_options.split_offset = options.split_offset;
  read_options.split_length = options.split_length;
  read_options.reader_host = options.reader_host;
  read_options.governor = options.governor;
  read_options.counters = options.counters;
  read_options.enable_late_materialization =
      options.enable_late_materialization;
  read_options.delete_bitmap = options.delete_bitmap;
  return read_options;
}

Result<std::unique_ptr<FileWriter>> OrcFileFormatAdapter::CreateWriter(
    dfs::FileSystem* fs, const std::string& path, TypePtr schema,
    const WriterOptions& options) const {
  orc::OrcWriterOptions writer_options = writer_defaults_;
  writer_options.compression = options.compression;
  MINIHIVE_ASSIGN_OR_RETURN(
      std::unique_ptr<orc::OrcWriter> writer,
      orc::OrcWriter::Create(fs, path, std::move(schema), writer_options));
  return std::unique_ptr<FileWriter>(new OrcFormatWriter(std::move(writer)));
}

Result<std::unique_ptr<RowReader>> OrcFileFormatAdapter::OpenReader(
    dfs::FileSystem* fs, const std::string& path, TypePtr schema,
    const ReadOptions& options) const {
  (void)schema;  // The file carries its own schema.
  MINIHIVE_ASSIGN_OR_RETURN(
      std::unique_ptr<orc::OrcReader> reader,
      orc::OrcReader::Open(fs, path, ToOrcReadOptions(options)));
  return std::unique_ptr<RowReader>(new OrcFormatReader(std::move(reader)));
}

}  // namespace minihive::formats
