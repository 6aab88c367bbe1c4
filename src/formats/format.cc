#include "formats/format.h"

#include "formats/orcfile_adapter.h"
#include "formats/rcfile.h"
#include "formats/seqfile.h"
#include "formats/textfile.h"
#include "mr/engine.h"

namespace minihive::formats {

const char* FormatKindName(FormatKind kind) {
  switch (kind) {
    case FormatKind::kTextFile:
      return "TEXTFILE";
    case FormatKind::kSequenceFile:
      return "SEQUENCEFILE";
    case FormatKind::kRcFile:
      return "RCFILE";
    case FormatKind::kOrcFile:
      return "ORC";
  }
  return "UNKNOWN";
}

const FileFormat* GetFileFormat(FormatKind kind) {
  static const TextFileFormat* text = new TextFileFormat();
  static const SequenceFileFormat* seq = new SequenceFileFormat();
  static const RcFileFormat* rc = new RcFileFormat();
  static const OrcFileFormatAdapter* orc = new OrcFileFormatAdapter();
  switch (kind) {
    case FormatKind::kTextFile:
      return text;
    case FormatKind::kSequenceFile:
      return seq;
    case FormatKind::kRcFile:
      return rc;
    case FormatKind::kOrcFile:
      return orc;
  }
  return nullptr;
}

Result<std::shared_ptr<dfs::ReadableFile>> OpenCounted(
    dfs::FileSystem* fs, const std::string& path, const ReadOptions& options) {
  return fs->Open(path, options.counters != nullptr
                            ? &options.counters->bytes_read
                            : nullptr);
}

}  // namespace minihive::formats
