/// Corruption round-trip for the ORC checksum layer: flip single bytes at
/// sampled offsets of a multi-stripe file and require the reader to either
/// return the exact original rows (the flip landed in dead bytes) or fail
/// with a typed Corruption/IoError — never silently wrong data. Also
/// checks locality of damage: corrupting stripe 2 must not stop stripe 1
/// from being read. The sweep also reads each damaged file twice with a
/// SARG through a metadata cache (stripe indexes, segment CRCs, phase 1),
/// so a bad parse can never be cached and served to a later read.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bytes.h"
#include "common/cache.h"
#include "common/random.h"
#include "orc/reader.h"
#include "orc/writer.h"

namespace minihive::orc {
namespace {

TypePtr Schema() {
  return *TypeDescription::Parse(
      "struct<id:bigint,name:string,score:double>");
}

Row MakeRow(int64_t i) {
  return {Value::Int(i), Value::String("name-" + std::to_string(i % 40)),
          Value::Double(i * 0.25)};
}

/// Writes a small-stripe file so corruption tests span several stripes.
void WriteFile(dfs::FileSystem* fs, const std::string& path, int rows) {
  OrcWriterOptions options;
  options.stripe_size = 48 * 1024;
  options.row_index_stride = 1000;
  auto writer =
      std::move(OrcWriter::Create(fs, path, Schema(), options)).ValueOrDie();
  for (int i = 0; i < rows; ++i) {
    ASSERT_TRUE(writer->AddRow(MakeRow(i)).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
}

std::string ReadWholeFile(dfs::FileSystem* fs, const std::string& path) {
  auto file = std::move(fs->Open(path)).ValueOrDie();
  std::string contents;
  EXPECT_TRUE(file->ReadAt(0, file->Size(), &contents).ok());
  return contents;
}

/// Replaces `path` with `contents` (the DFS is append-only, so corruption
/// means rewrite).
void OverwriteFile(dfs::FileSystem* fs, const std::string& path,
                   const std::string& contents) {
  ASSERT_TRUE(fs->Delete(path).ok());
  auto writer = std::move(fs->Create(path)).ValueOrDie();
  ASSERT_TRUE(writer->Append(contents).ok());
  ASSERT_TRUE(writer->Close().ok());
}

/// Reads every row (through `sarg` when set); returns OK plus the rows, or
/// the first error.
Status ReadAllRows(dfs::FileSystem* fs, const std::string& path,
                   std::vector<Row>* rows,
                   const SearchArgument* sarg = nullptr,
                   bool verify_checksums = true) {
  OrcReadOptions options;
  options.sarg = sarg;
  options.verify_checksums = verify_checksums;
  auto reader = OrcReader::Open(fs, path, options);
  if (!reader.ok()) return reader.status();
  Row row;
  while (true) {
    Result<bool> more = (*reader)->NextRow(&row);
    if (!more.ok()) return more.status();
    if (!*more) return Status::OK();
    rows->push_back(row);
  }
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); ++c) {
      if (a[i][c].Compare(b[i][c]) != 0) return false;
    }
  }
  return true;
}

constexpr int kRows = 12000;

TEST(OrcCorruptionTest, SingleByteFlipsAreDetectedOrHarmless) {
  dfs::FileSystem fs;
  WriteFile(&fs, "/orc/victim", kRows);
  std::string pristine = ReadWholeFile(&fs, "/orc/victim");
  ASSERT_GT(pristine.size(), 100u);

  std::vector<Row> golden;
  ASSERT_TRUE(ReadAllRows(&fs, "/orc/victim", &golden).ok());
  ASSERT_EQ(golden.size(), static_cast<size_t>(kRows));
  // A range that skips stripes and groups by statistics and rejects rows
  // of its edge groups in phase 1.
  SearchArgument sarg;
  sarg.AddLeaf({0, PredicateOp::kBetween, Value::Int(2100), Value::Int(9700),
                {}});
  std::vector<Row> golden_sarg;
  ASSERT_TRUE(ReadAllRows(&fs, "/orc/victim", &golden_sarg, &sarg).ok());
  ASSERT_EQ(golden_sarg.size(), 7601u);
  auto caches = std::make_shared<cache::CacheManager>(4 * 1024 * 1024);

  // Sampled offsets across the whole file, plus the tail region (footer,
  // postscript) which a uniform sample would rarely hit.
  Random rng(20260806);
  std::vector<uint64_t> offsets;
  for (int i = 0; i < 48; ++i) offsets.push_back(rng.Uniform(pristine.size()));
  for (int i = 0; i < 16; ++i) {
    offsets.push_back(pristine.size() - 1 - rng.Uniform(200));
  }

  int detected = 0;
  int harmless = 0;
  for (uint64_t offset : offsets) {
    std::string corrupt = pristine;
    corrupt[offset] ^= 0x40;
    if (corrupt == pristine) continue;  // Paranoia; XOR 0x40 always changes.
    OverwriteFile(&fs, "/orc/victim", corrupt);

    std::vector<Row> rows;
    Status s = ReadAllRows(&fs, "/orc/victim", &rows);
    if (s.ok()) {
      // The flip must have been invisible to the decoder; the rows must
      // still be exactly right (e.g. the flip hit stripe padding).
      EXPECT_TRUE(SameRows(rows, golden))
          << "offset " << offset << ": read OK but rows differ";
      ++harmless;
    } else {
      EXPECT_TRUE(s.IsCorruption() || s.IsIoError())
          << "offset " << offset << ": untyped error " << s.ToString();
      ++detected;
    }

    // Twice through the ppd path and the metadata cache: the second read
    // may hit entries the first populated, and must end exactly as the
    // first did.
    fs.set_cache_manager(caches);
    std::vector<Row> first_rows;
    std::vector<Row> second_rows;
    Status first = ReadAllRows(&fs, "/orc/victim", &first_rows, &sarg);
    Status second = ReadAllRows(&fs, "/orc/victim", &second_rows, &sarg);
    fs.set_cache_manager(nullptr);
    for (const Status* read : {&first, &second}) {
      EXPECT_TRUE(read->ok() || read->IsCorruption() || read->IsIoError())
          << "offset " << offset << ": untyped error " << read->ToString();
    }
    if (first.ok()) {
      EXPECT_TRUE(SameRows(first_rows, golden_sarg))
          << "offset " << offset << ": SARG read OK but rows differ";
    }
    EXPECT_EQ(first.ok(), second.ok())
        << "offset " << offset << ": " << first.ToString() << " then "
        << second.ToString();
    EXPECT_EQ(first.ToString(), second.ToString()) << "offset " << offset;
    EXPECT_TRUE(SameRows(first_rows, second_rows))
        << "offset " << offset << ": the cached read differs";
  }
  OverwriteFile(&fs, "/orc/victim", pristine);

  // Most flips land in live bytes of a dense file: detection must dominate.
  EXPECT_GT(detected, harmless)
      << detected << " detected vs " << harmless << " harmless";
  EXPECT_GT(detected, 30);
}

// With checksums off a flipped byte reaches the footer parsers and the
// decoders. It may decode to other valid values, so any rows are fine; a
// crash, a hang, a sanitizer report or any status but Corruption is not.
TEST(OrcCorruptionTest, UnverifiedFlipsEndInRowsOrCorruption) {
  dfs::FileSystem fs;
  WriteFile(&fs, "/orc/lax", kRows);
  const std::string pristine = ReadWholeFile(&fs, "/orc/lax");
  SearchArgument sarg;
  sarg.AddLeaf({0, PredicateOp::kBetween, Value::Int(2100), Value::Int(9700),
                {}});
  const SearchArgument* filters[] = {nullptr, &sarg};
  Random rng(20261019);
  std::vector<uint64_t> offsets;
  for (int i = 0; i < 200; ++i) offsets.push_back(rng.Uniform(pristine.size()));
  for (int i = 0; i < 60; ++i) {
    offsets.push_back(pristine.size() - 1 - rng.Uniform(300));
  }
  int corrupt_reads = 0;
  for (uint64_t offset : offsets) {
    for (uint8_t mask : {0x01, 0x40, 0x80}) {
      std::string corrupt = pristine;
      corrupt[offset] ^= mask;
      OverwriteFile(&fs, "/orc/lax", corrupt);
      for (const SearchArgument* filter : filters) {
        std::vector<Row> rows;
        Status s = ReadAllRows(&fs, "/orc/lax", &rows, filter,
                               /*verify_checksums=*/false);
        EXPECT_TRUE(s.ok() || s.IsCorruption())
            << "offset " << offset << " mask " << int{mask} << ": "
            << s.ToString();
        corrupt_reads += s.IsCorruption();
      }
    }
  }
  EXPECT_GT(corrupt_reads, 0);
}

/// Rewrites stripe 0's footer (or, with `index`, its row index) in a fresh
/// file with `patch` applied, padded with zero bytes (which the parsers
/// ignore) to its old length, and expects every read through `sarg`, with
/// checksums on or off, to end in Corruption.
template <typename Section>
void ExpectPatchedIsCorruption(const std::function<void(Section*)>& patch,
                               const SearchArgument* sarg = nullptr) {
  constexpr bool kIndex = std::is_same_v<Section, StripeIndex>;
  dfs::FileSystem fs;
  WriteFile(&fs, "/orc/patched", 2000);
  const std::string pristine = ReadWholeFile(&fs, "/orc/patched");
  auto reader = std::move(OrcReader::Open(&fs, "/orc/patched")).ValueOrDie();
  const StripeInformation& stripe = reader->tail().stripes[0];
  // The section is one stored unit: varint length, flag 0, varint length,
  // then the serialized section.
  const std::string_view unit =
      kIndex ? std::string_view(pristine).substr(stripe.offset,
                                                 stripe.index_length)
             : std::string_view(pristine).substr(
                   stripe.offset + stripe.index_length + stripe.data_length,
                   stripe.footer_length);
  ByteReader header(unit);
  uint64_t length = 0;
  uint8_t flag = 1;
  ASSERT_TRUE(header.GetVarint64(&length).ok());
  ASSERT_TRUE(header.GetByte(&flag).ok());
  ASSERT_TRUE(header.GetVarint64(&length).ok());
  ASSERT_EQ(flag, 0);
  const size_t at = unit.data() - pristine.data() + unit.size() -
                    header.remaining();
  Section section;
  ASSERT_TRUE(Section::Deserialize(
                  std::string_view(pristine).substr(at, header.remaining()),
                  &section)
                  .ok());
  patch(&section);
  std::string patched;
  section.Serialize(&patched);
  ASSERT_LE(patched.size(), header.remaining());
  patched.resize(header.remaining(), '\0');
  std::string corrupt = pristine;
  corrupt.replace(at, patched.size(), patched);
  OverwriteFile(&fs, "/orc/patched", corrupt);
  for (bool verify : {false, true}) {
    std::vector<Row> rows;
    Status s = ReadAllRows(&fs, "/orc/patched", &rows, sarg, verify);
    EXPECT_TRUE(s.IsCorruption()) << verify << ": " << s.ToString();
  }
}

TEST(OrcCorruptionTest, StreamOfAnUnknownColumnIsCorruption) {
  ExpectPatchedIsCorruption<StripeFooter>(
      [](StripeFooter* footer) { footer->streams[0].column = 100; });
}

TEST(OrcCorruptionTest, FooterMissingAColumnIsCorruption) {
  ExpectPatchedIsCorruption<StripeFooter>([](StripeFooter* footer) {
    footer->encodings.pop_back();
    footer->dictionary_sizes.pop_back();
    footer->instance_counts.pop_back();
    footer->nonnull_counts.pop_back();
  });
}

TEST(OrcCorruptionTest, DictionaryLargerThanItsColumnIsCorruption) {
  // Dropping the last stream makes room for a 5-byte dictionary size.
  ExpectPatchedIsCorruption<StripeFooter>([](StripeFooter* footer) {
    footer->streams.pop_back();
    for (uint32_t& size : footer->dictionary_sizes) {
      if (size > 0) size = UINT32_MAX;
    }
  });
}

TEST(OrcCorruptionTest, RowIndexMissingAStreamIsCorruption) {
  SearchArgument sarg;
  sarg.AddLeaf({0, PredicateOp::kLessThan, Value::Int(1000), {}, {}});
  ExpectPatchedIsCorruption<StripeIndex>(
      [](StripeIndex* index) { index->segment_ends.pop_back(); }, &sarg);
}

// A count read from metadata can never size an allocation past what its
// section could hold.
TEST(OrcCorruptionTest, HugeMetadataCountsAreCorruption) {
  const std::string huge = "\xff\xff\xff\xff\x0f";  // 2^32 - 1 entries.
  StripeFooter footer;
  EXPECT_TRUE(StripeFooter::Deserialize(huge, &footer).IsCorruption());
  StripeIndex index;
  EXPECT_TRUE(StripeIndex::Deserialize(huge, &index).IsCorruption());
  FileTail tail;
  EXPECT_TRUE(DeserializeFileMetadata(huge, &tail).IsCorruption());
}

TEST(OrcCorruptionTest, ChecksumMismatchMessageNamesTheSection) {
  dfs::FileSystem fs;
  WriteFile(&fs, "/orc/tail", kRows);
  std::string pristine = ReadWholeFile(&fs, "/orc/tail");

  // Damage the footer: its length is recorded in the postscript, whose own
  // bytes sit at the very end — corrupting ~150 bytes before the end lands
  // in footer/metadata territory for this file size.
  std::string corrupt = pristine;
  corrupt[corrupt.size() - 30] ^= 0x01;
  OverwriteFile(&fs, "/orc/tail", corrupt);
  auto reader = OrcReader::Open(&fs, "/orc/tail");
  ASSERT_FALSE(reader.ok());
  EXPECT_TRUE(reader.status().IsCorruption()) << reader.status().ToString();
}

TEST(OrcCorruptionTest, UntouchedStripesRemainReadable) {
  dfs::FileSystem fs;
  WriteFile(&fs, "/orc/partial", kRows);
  std::string pristine = ReadWholeFile(&fs, "/orc/partial");

  auto clean_reader = std::move(OrcReader::Open(&fs, "/orc/partial"))
                          .ValueOrDie();
  const FileTail& tail = clean_reader->tail();
  ASSERT_GE(tail.stripes.size(), 2u) << "need a multi-stripe file";
  const StripeInformation& s0 = tail.stripes[0];
  const StripeInformation& s1 = tail.stripes[1];
  ASSERT_GT(s0.num_rows, 0u);
  ASSERT_GT(s1.num_rows, 0u);

  // Flip a byte in the middle of stripe 2's data section.
  std::string corrupt = pristine;
  uint64_t victim = s1.offset + s1.index_length + s1.data_length / 2;
  corrupt[victim] ^= 0x40;
  OverwriteFile(&fs, "/orc/partial", corrupt);

  auto reader = std::move(OrcReader::Open(&fs, "/orc/partial")).ValueOrDie();
  Row row;
  // All of stripe 1 must read back exactly.
  for (uint64_t i = 0; i < s0.num_rows; ++i) {
    Result<bool> more = reader->NextRow(&row);
    ASSERT_TRUE(more.ok())
        << "stripe 1 row " << i << ": " << more.status().ToString();
    ASSERT_TRUE(*more);
    EXPECT_EQ(row[0].AsInt(), static_cast<int64_t>(i));
  }
  // Stripe 2 must fail typed — and never hand back wrong rows.
  bool failed = false;
  for (uint64_t i = 0; i < s1.num_rows; ++i) {
    Result<bool> more = reader->NextRow(&row);
    if (!more.ok()) {
      EXPECT_TRUE(more.status().IsCorruption() || more.status().IsIoError())
          << more.status().ToString();
      failed = true;
      break;
    }
    ASSERT_TRUE(*more);
    EXPECT_EQ(row[0].AsInt(), static_cast<int64_t>(s0.num_rows + i))
        << "corrupted stripe produced a wrong row before failing";
  }
  EXPECT_TRUE(failed) << "stripe 2 data flip was never detected";
}

TEST(OrcCorruptionTest, VerificationCanBeDisabled) {
  // verify_checksums=false restores the old reader behaviour (needed to
  // measure the checksum cost, and as an escape hatch for salvage reads).
  dfs::FileSystem fs;
  WriteFile(&fs, "/orc/noverify", 4000);
  auto reader = OrcReader::Open(&fs, "/orc/noverify");
  ASSERT_TRUE(reader.ok());
  OrcReadOptions options;
  options.verify_checksums = false;
  auto lax = OrcReader::Open(&fs, "/orc/noverify", options);
  ASSERT_TRUE(lax.ok());
  Row row;
  uint64_t n = 0;
  while (true) {
    Result<bool> more = (*lax)->NextRow(&row);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ++n;
  }
  EXPECT_EQ(n, 4000u);
}

}  // namespace
}  // namespace minihive::orc
