#include "formats/format.h"

#include <algorithm>
#include <functional>

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

std::string MakeSyncMarker(const std::string& path, uint64_t salt) {
  std::string marker;
  uint64_t h = (std::hash<std::string>{}(path) ^ salt) | 1;
  for (size_t i = 0; i < kSyncMarkerLen; ++i) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    marker.push_back(static_cast<char>(h >> 56));
  }
  return marker;
}

Result<std::optional<uint64_t>> FindSyncMarker(dfs::ReadableFile* file,
                                               std::string_view marker,
                                               uint64_t from,
                                               uint64_t split_end,
                                               int reader_host) {
  constexpr uint64_t kScanChunk = 4 << 20;
  std::string window;
  uint64_t window_base = from;
  uint64_t scan_pos = from;
  uint64_t file_size = file->Size();
  while (scan_pos < file_size) {
    uint64_t n = std::min<uint64_t>(kScanChunk, file_size - scan_pos);
    std::string chunk;
    MINIHIVE_RETURN_IF_ERROR(file->ReadAt(scan_pos, n, &chunk, reader_host));
    scan_pos += n;
    window += chunk;
    size_t found = window.find(marker);
    if (found != std::string::npos) {
      uint64_t marker_pos = window_base + found;
      if (marker_pos >= split_end) return std::optional<uint64_t>();
      return std::optional<uint64_t>(marker_pos);
    }
    // Keep a marker-sized tail to catch markers straddling chunk reads.
    if (window.size() > marker.size()) {
      window_base += window.size() - marker.size();
      window.erase(0, window.size() - marker.size());
    }
  }
  return std::optional<uint64_t>();
}

Result<std::shared_ptr<dfs::ReadableFile>> OpenCounted(
    dfs::FileSystem* fs, const std::string& path, const ReadOptions& options) {
  return fs->Open(path, options.counters != nullptr
                            ? &options.counters->bytes_read
                            : nullptr);
}

}  // namespace minihive::formats
