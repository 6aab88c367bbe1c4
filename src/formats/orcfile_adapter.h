#ifndef MINIHIVE_FORMATS_ORCFILE_ADAPTER_H_
#define MINIHIVE_FORMATS_ORCFILE_ADAPTER_H_

#include "formats/format.h"
#include "orc/reader.h"
#include "orc/writer.h"

namespace minihive::formats {

/// Bridges the ORC writer/reader (src/orc) into the format-neutral
/// FileFormat interface used by the catalog and the MapReduce task runtime.
/// Predicate pushdown (ReadOptions::sarg) and column projection are honoured;
/// split ownership is by stripe start offset.
class OrcFileFormatAdapter : public FileFormat {
 public:
  explicit OrcFileFormatAdapter(
      orc::OrcWriterOptions writer_defaults = orc::OrcWriterOptions())
      : writer_defaults_(writer_defaults) {}

  FormatKind kind() const override { return FormatKind::kOrcFile; }
  Result<std::unique_ptr<FileWriter>> CreateWriter(
      dfs::FileSystem* fs, const std::string& path, TypePtr schema,
      const WriterOptions& options) const override;
  Result<std::unique_ptr<RowReader>> OpenReader(
      dfs::FileSystem* fs, const std::string& path, TypePtr schema,
      const ReadOptions& options) const override;

 private:
  orc::OrcWriterOptions writer_defaults_;
};

/// The ORC reader's options for a read request: the one mapping, shared by
/// row scans (OpenReader) and the vectorized pipeline.
orc::OrcReadOptions ToOrcReadOptions(const ReadOptions& options);

}  // namespace minihive::formats

#endif  // MINIHIVE_FORMATS_ORCFILE_ADAPTER_H_
