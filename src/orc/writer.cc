#include "orc/writer.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <numeric>

#include "common/crc32.h"
#include "orc/layout.h"
#include "orc/stream_encoding.h"

namespace minihive::orc {

namespace {

/// Per-column stripe buffer. One instance per node of the column tree;
/// buffers raw values for the open stripe and records group boundaries.
class ColumnBuilder {
 public:
  explicit ColumnBuilder(const TypeDescription* type) : type_(type) {
    for (const TypePtr& child : type->children()) {
      children_.push_back(std::make_unique<ColumnBuilder>(child.get()));
    }
  }

  const TypeDescription* type() const { return type_; }
  const std::vector<std::unique_ptr<ColumnBuilder>>& children() const {
    return children_;
  }

  Status AddValue(const Value& value) {
    if (value.is_null()) {
      present_.push_back(0);
      any_null_ = true;
      current_stats_.MarkNull();
      return Status::OK();
    }
    present_.push_back(1);
    ++nonnull_count_;
    switch (type_->kind()) {
      case TypeKind::kBoolean: {
        int64_t v = value.AsBool() ? 1 : 0;
        ints_.push_back(v);
        current_stats_.UpdateInt(v);
        return Status::OK();
      }
      case TypeKind::kTinyInt:
      case TypeKind::kSmallInt:
      case TypeKind::kInt:
      case TypeKind::kBigInt:
      case TypeKind::kTimestamp: {
        int64_t v = value.AsInt();
        ints_.push_back(v);
        current_stats_.UpdateInt(v);
        return Status::OK();
      }
      case TypeKind::kFloat:
      case TypeKind::kDouble: {
        double v = value.AsDouble();
        doubles_.push_back(v);
        current_stats_.UpdateDouble(v);
        return Status::OK();
      }
      case TypeKind::kString: {
        const std::string& v = value.AsString();
        ints_.push_back(Intern(v));
        current_stats_.UpdateString(v);
        return Status::OK();
      }
      case TypeKind::kArray: {
        const Value::Array& elements = value.AsArray();
        ints_.push_back(static_cast<int64_t>(elements.size()));
        current_stats_.UpdateInt(static_cast<int64_t>(elements.size()));
        for (const Value& e : elements) {
          MINIHIVE_RETURN_IF_ERROR(children_[0]->AddValue(e));
        }
        return Status::OK();
      }
      case TypeKind::kMap: {
        const Value::MapEntries& entries = value.AsMap();
        ints_.push_back(static_cast<int64_t>(entries.size()));
        current_stats_.UpdateInt(static_cast<int64_t>(entries.size()));
        for (const auto& [k, v] : entries) {
          MINIHIVE_RETURN_IF_ERROR(children_[0]->AddValue(k));
          MINIHIVE_RETURN_IF_ERROR(children_[1]->AddValue(v));
        }
        return Status::OK();
      }
      case TypeKind::kStruct: {
        const Value::StructFields& fields = value.AsStruct();
        if (fields.size() != children_.size()) {
          return Status::InvalidArgument("struct arity mismatch");
        }
        current_stats_.IncrementCount();
        for (size_t i = 0; i < children_.size(); ++i) {
          MINIHIVE_RETURN_IF_ERROR(children_[i]->AddValue(fields[i]));
        }
        return Status::OK();
      }
      case TypeKind::kUnion: {
        const Value::UnionValue& u = value.AsUnion();
        if (u.tag < 0 || static_cast<size_t>(u.tag) >= children_.size()) {
          return Status::InvalidArgument("union tag out of range");
        }
        ints_.push_back(u.tag);
        current_stats_.UpdateInt(u.tag);
        return children_[u.tag]->AddValue(u.value);
      }
    }
    return Status::Internal("unreachable");
  }

  /// Adds a top-level row directly (avoids wrapping it in a struct Value).
  Status AddRootRow(const Row& row) {
    if (row.size() != children_.size()) {
      return Status::InvalidArgument("row arity does not match schema");
    }
    present_.push_back(1);
    ++nonnull_count_;
    current_stats_.IncrementCount();
    for (size_t i = 0; i < children_.size(); ++i) {
      MINIHIVE_RETURN_IF_ERROR(children_[i]->AddValue(row[i]));
    }
    return Status::OK();
  }

  void MarkGroupBoundary() {
    mark_instances_.push_back(present_.size());
    mark_nonnull_.push_back(nonnull_count_);
    group_stats_.push_back(current_stats_);
    current_stats_.Reset();
    for (auto& child : children_) child->MarkGroupBoundary();
  }

  /// Buffered bytes for the stripe-size check. Each distinct string is
  /// charged 48 bytes beyond its own, a modelled per-entry cost (what a
  /// node-based hash map would take) kept so stripe cuts do not depend on
  /// how the interning table is laid out.
  size_t MemoryUsage() const {
    size_t total = present_.size() + ints_.size() * 8 + doubles_.size() * 8 +
                   arena_.size() + ends_.size() * 48;
    for (const auto& child : children_) total += child->MemoryUsage();
    return total;
  }

  void Reset() {
    present_.clear();
    any_null_ = false;
    nonnull_count_ = 0;
    ints_.clear();
    doubles_.clear();
    arena_.clear();
    ends_.clear();
    std::fill(slots_.begin(), slots_.end(), Slot{});
    mark_instances_.clear();
    mark_nonnull_.clear();
    group_stats_.clear();
    current_stats_.Reset();
    for (auto& child : children_) child->Reset();
  }

  // Accessors for the encoding phase.
  const std::vector<uint8_t>& present() const { return present_; }
  bool any_null() const { return any_null_; }
  uint64_t nonnull_count() const { return nonnull_count_; }
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  size_t distinct_count() const { return ends_.size(); }
  /// The bytes of interned string `id`. Valid until the next Intern().
  std::string_view dict_value(size_t id) const {
    size_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(arena_).substr(begin, ends_[id] - begin);
  }
  const std::vector<uint64_t>& mark_instances() const {
    return mark_instances_;
  }
  const std::vector<uint64_t>& mark_nonnull() const { return mark_nonnull_; }
  const std::vector<ColumnStatistics>& group_stats() const {
    return group_stats_;
  }

  void Flatten(std::vector<ColumnBuilder*>* out) {
    out->push_back(this);
    for (auto& child : children_) child->Flatten(out);
  }

 private:
  /// One slot of the open-addressing id table: `id + 1` (0 = empty) and
  /// the high half of the value's hash, so most mismatches skip the bytes.
  struct Slot {
    uint32_t id_plus_one = 0;
    uint32_t tag = 0;
  };

  static uint64_t HashBytes(std::string_view value) {
    return std::hash<std::string_view>{}(value);
  }

  /// The slot holding `value`, or the empty slot where it belongs.
  size_t FindSlot(uint64_t hash, std::string_view value) const {
    const uint32_t tag = static_cast<uint32_t>(hash >> 32);
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].id_plus_one != 0 &&
           (slots_[i].tag != tag ||
            dict_value(slots_[i].id_plus_one - 1) != value)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Returns the id of `value`, ids in first-seen order. A new value is
  /// appended to the arena; a duplicate allocates nothing.
  int64_t Intern(std::string_view value) {
    if ((ends_.size() + 1) * 2 > slots_.size()) GrowSlots();
    const uint64_t hash = HashBytes(value);
    Slot& slot = slots_[FindSlot(hash, value)];
    if (slot.id_plus_one == 0) {
      arena_.append(value);
      ends_.push_back(arena_.size());
      slot = {static_cast<uint32_t>(ends_.size()),
              static_cast<uint32_t>(hash >> 32)};
    }
    return slot.id_plus_one - 1;
  }

  /// Doubles the id table, so its load factor stays at most 1/2, and
  /// reinserts every id.
  void GrowSlots() {
    slots_.assign(std::max<size_t>(64, slots_.size() * 2), Slot{});
    for (size_t id = 0; id < ends_.size(); ++id) {
      const uint64_t hash = HashBytes(dict_value(id));
      slots_[FindSlot(hash, dict_value(id))] = {
          static_cast<uint32_t>(id + 1), static_cast<uint32_t>(hash >> 32)};
    }
  }

  const TypeDescription* type_;
  std::vector<std::unique_ptr<ColumnBuilder>> children_;
  std::vector<uint8_t> present_;
  bool any_null_ = false;
  uint64_t nonnull_count_ = 0;
  /// Universal integer storage: int-family data, booleans, dictionary ids
  /// for strings, array/map lengths, and union tags.
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  /// String interning: the distinct values seen this stripe, concatenated
  /// in first-seen order, the end offset of each, and the id table over
  /// them. Also the input to the dictionary-encoding decision. Reset()
  /// keeps all three allocations for the next stripe.
  std::string arena_;
  std::vector<size_t> ends_;
  std::vector<Slot> slots_;
  std::vector<uint64_t> mark_instances_;  // Cumulative, one per group.
  std::vector<uint64_t> mark_nonnull_;
  std::vector<ColumnStatistics> group_stats_;
  ColumnStatistics current_stats_;
};

}  // namespace

class OrcWriter::Impl {
 public:
  Impl(std::unique_ptr<dfs::WritableFile> file, TypePtr schema,
       OrcWriterOptions options, uint64_t block_size)
      : file_(std::move(file)),
        schema_(std::move(schema)),
        options_(options),
        block_size_(block_size),
        root_(schema_.get()),
        codec_(codec::GetCodec(options.compression)) {
    schema_->AssignColumnIds(0);
    num_columns_ = schema_->ColumnCount();
    file_stats_.resize(num_columns_);
    if (options_.memory_manager != nullptr) {
      options_.memory_manager->AddWriter(this, options_.stripe_size);
    }
  }

  ~Impl() {
    if (options_.memory_manager != nullptr) {
      options_.memory_manager->RemoveWriter(this);
    }
  }

  Status AddRow(const Row& row) {
    if (closed_) return Status::IoError("AddRow on closed ORC writer");
    if (!header_written_) {
      MINIHIVE_RETURN_IF_ERROR(file_->Append(kOrcMagic));
      header_written_ = true;
    }
    MINIHIVE_RETURN_IF_ERROR(root_.AddRootRow(row));
    ++rows_in_stripe_;
    ++total_rows_;
    if (rows_in_stripe_ % options_.row_index_stride == 0) {
      root_.MarkGroupBoundary();
    }
    // Checking memory usage is O(columns); amortize it.
    if ((rows_in_stripe_ & 0xFF) == 0) {
      buffered_estimate_ = root_.MemoryUsage();
      if (buffered_estimate_ >= EffectiveStripeSize()) {
        return FlushStripe();
      }
    }
    return Status::OK();
  }

  Status Close() {
    if (closed_) return Status::OK();
    if (!header_written_) {
      MINIHIVE_RETURN_IF_ERROR(file_->Append(kOrcMagic));
      header_written_ = true;
    }
    MINIHIVE_RETURN_IF_ERROR(FlushStripe());
    MINIHIVE_RETURN_IF_ERROR(WriteTail());
    closed_ = true;
    if (options_.memory_manager != nullptr) {
      options_.memory_manager->RemoveWriter(this);
      // Late removal in the destructor becomes a no-op.
    }
    return file_->Close();
  }

  uint64_t rows_written() const { return total_rows_; }
  uint64_t buffered_bytes() const { return buffered_estimate_; }
  uint64_t stripes_written() const { return stripes_.size(); }

 private:
  uint64_t EffectiveStripeSize() const {
    double scale = options_.memory_manager != nullptr
                       ? options_.memory_manager->Scale()
                       : 1.0;
    uint64_t size =
        static_cast<uint64_t>(static_cast<double>(options_.stripe_size) * scale);
    return std::max<uint64_t>(size, 64 * 1024);
  }

  /// Encodes one group slice of one stream into raw_ and frames it onto
  /// the stripe's data_.
  Status EncodeSegment(const ColumnBuilder& col, StreamKind kind,
                       ColumnEncoding encoding,
                       const std::vector<uint32_t>& dict_remap,
                       uint64_t inst_begin, uint64_t inst_end,
                       uint64_t nn_begin, uint64_t nn_end) {
    raw_.clear();
    switch (kind) {
      case StreamKind::kPresent: {
        BitFieldEncoder enc;
        for (uint64_t i = inst_begin; i < inst_end; ++i) {
          enc.Add(col.present()[i] != 0);
        }
        enc.Finish(&raw_);
        break;
      }
      case StreamKind::kData: {
        switch (col.type()->kind()) {
          case TypeKind::kBoolean: {
            BitFieldEncoder enc;
            for (uint64_t i = nn_begin; i < nn_end; ++i) {
              enc.Add(col.ints()[i] != 0);
            }
            enc.Finish(&raw_);
            break;
          }
          case TypeKind::kTinyInt:
          case TypeKind::kUnion: {
            RunLengthByteEncoder enc;
            for (uint64_t i = nn_begin; i < nn_end; ++i) {
              enc.Add(static_cast<uint8_t>(col.ints()[i]));
            }
            enc.Finish(&raw_);
            break;
          }
          case TypeKind::kSmallInt:
          case TypeKind::kInt:
          case TypeKind::kBigInt:
          case TypeKind::kTimestamp: {
            IntRleEncoder enc;
            for (uint64_t i = nn_begin; i < nn_end; ++i) {
              enc.Add(col.ints()[i]);
            }
            enc.Finish(&raw_);
            break;
          }
          case TypeKind::kFloat:
          case TypeKind::kDouble: {
            // The little-endian bits of each value, as PutDoubleBits
            // writes them: on a little-endian host, one copy.
            const double* values = col.doubles().data() + nn_begin;
            const uint64_t n = nn_end - nn_begin;
            if constexpr (std::endian::native == std::endian::little) {
              raw_.append(reinterpret_cast<const char*>(values),
                          n * sizeof(double));
            } else {
              for (uint64_t i = 0; i < n; ++i) PutDoubleBits(&raw_, values[i]);
            }
            break;
          }
          case TypeKind::kString: {
            if (encoding == ColumnEncoding::kDictionary) {
              IntRleEncoder enc;
              for (uint64_t i = nn_begin; i < nn_end; ++i) {
                enc.Add(dict_remap[static_cast<size_t>(col.ints()[i])]);
              }
              enc.Finish(&raw_);
            } else {
              // Direct: concatenated value bytes.
              for (uint64_t i = nn_begin; i < nn_end; ++i) {
                raw_.append(col.dict_value(static_cast<size_t>(col.ints()[i])));
              }
            }
            break;
          }
          default:
            return Status::Internal("unexpected DATA stream");
        }
        break;
      }
      case StreamKind::kLength: {
        IntRleEncoder enc;
        if (col.type()->kind() == TypeKind::kString) {
          for (uint64_t i = nn_begin; i < nn_end; ++i) {
            enc.Add(static_cast<int64_t>(
                col.dict_value(static_cast<size_t>(col.ints()[i])).size()));
          }
        } else {  // Array/Map sizes.
          for (uint64_t i = nn_begin; i < nn_end; ++i) {
            enc.Add(col.ints()[i]);
          }
        }
        enc.Finish(&raw_);
        break;
      }
      default:
        return Status::Internal("EncodeSegment on stripe-scoped stream");
    }
    return codec::CompressToUnits(codec_, raw_,
                                  options_.compression_unit_size, &data_);
  }

  Status FlushStripe() {
    if (rows_in_stripe_ == 0) return Status::OK();
    // Ensure a final (possibly partial) group boundary.
    if (rows_in_stripe_ % options_.row_index_stride != 0) {
      root_.MarkGroupBoundary();
    }
    std::vector<ColumnBuilder*> columns;
    root_.Flatten(&columns);
    const uint32_t num_groups =
        static_cast<uint32_t>(root_.mark_instances().size());

    StripeFooter footer;
    footer.num_groups = num_groups;
    footer.encodings.resize(columns.size(), ColumnEncoding::kDirect);
    footer.dictionary_sizes.resize(columns.size(), 0);
    footer.instance_counts.assign(columns.size(),
                                  std::vector<uint64_t>(num_groups, 0));
    footer.nonnull_counts.assign(columns.size(),
                                 std::vector<uint64_t>(num_groups, 0));
    StripeIndex index;
    index.group_stats.resize(columns.size());

    data_.clear();
    std::vector<ColumnStatistics> stripe_stats(columns.size());

    for (size_t c = 0; c < columns.size(); ++c) {
      ColumnBuilder* col = columns[c];
      // Per-group counts from cumulative marks.
      uint64_t prev_inst = 0, prev_nn = 0;
      for (uint32_t g = 0; g < num_groups; ++g) {
        footer.instance_counts[c][g] = col->mark_instances()[g] - prev_inst;
        footer.nonnull_counts[c][g] = col->mark_nonnull()[g] - prev_nn;
        prev_inst = col->mark_instances()[g];
        prev_nn = col->mark_nonnull()[g];
      }
      index.group_stats[c] = col->group_stats();
      for (const ColumnStatistics& gs : col->group_stats()) {
        stripe_stats[c].Merge(gs);
      }

      // Decide the string encoding (paper §4.3): dictionary when the ratio
      // of distinct entries to encoded values is at most the threshold.
      ColumnEncoding encoding = ColumnEncoding::kDirect;
      std::vector<uint32_t> dict_remap;
      std::vector<uint32_t> sorted_ids;
      if (col->type()->kind() == TypeKind::kString &&
          col->nonnull_count() > 0) {
        double ratio = static_cast<double>(col->distinct_count()) /
                       static_cast<double>(col->nonnull_count());
        if (ratio <= options_.dictionary_key_ratio) {
          encoding = ColumnEncoding::kDictionary;
          // Sort dictionary entries; remap insertion ids to sorted ids.
          sorted_ids.resize(col->distinct_count());
          std::iota(sorted_ids.begin(), sorted_ids.end(), 0);
          std::sort(sorted_ids.begin(), sorted_ids.end(),
                    [&](uint32_t a, uint32_t b) {
                      return col->dict_value(a) < col->dict_value(b);
                    });
          dict_remap.resize(col->distinct_count());
          for (uint32_t rank = 0; rank < sorted_ids.size(); ++rank) {
            dict_remap[sorted_ids[rank]] = rank;
          }
          footer.dictionary_sizes[c] =
              static_cast<uint32_t>(col->distinct_count());
        }
      }
      footer.encodings[c] = encoding;

      for (StreamKind kind :
           StreamsForColumn(col->type()->kind(), col->any_null(), encoding)) {
        const size_t stream_begin = data_.size();
        std::vector<uint64_t> ends;
        if (IsStripeScoped(kind)) {
          raw_.clear();
          if (kind == StreamKind::kDictionaryData) {
            for (uint32_t id : sorted_ids) raw_.append(col->dict_value(id));
          } else {  // kDictionaryLength
            IntRleEncoder enc;
            for (uint32_t id : sorted_ids) {
              enc.Add(static_cast<int64_t>(col->dict_value(id).size()));
            }
            enc.Finish(&raw_);
          }
          MINIHIVE_RETURN_IF_ERROR(codec::CompressToUnits(
              codec_, raw_, options_.compression_unit_size, &data_));
          ends.push_back(data_.size() - stream_begin);
        } else {
          uint64_t ib = 0, nb = 0;
          for (uint32_t g = 0; g < num_groups; ++g) {
            uint64_t ie = col->mark_instances()[g];
            uint64_t ne = col->mark_nonnull()[g];
            MINIHIVE_RETURN_IF_ERROR(EncodeSegment(*col, kind, encoding,
                                                   dict_remap, ib, ie, nb, ne));
            ends.push_back(data_.size() - stream_begin);
            ib = ie;
            nb = ne;
          }
        }
        // Checksum each on-disk segment (what a PPD reader fetches) and the
        // stream as a whole (what a full-scan reader fetches).
        const std::string_view stream =
            std::string_view(data_).substr(stream_begin);
        std::vector<uint32_t> crcs;
        crcs.reserve(ends.size());
        uint64_t seg_begin = 0;
        for (uint64_t end : ends) {
          crcs.push_back(Crc32(stream.substr(seg_begin, end - seg_begin)));
          seg_begin = end;
        }
        footer.streams.push_back(
            {static_cast<uint32_t>(c), kind, stream.size(), Crc32(stream)});
        index.segment_ends.push_back(std::move(ends));
        index.segment_crcs.push_back(std::move(crcs));
      }
    }

    // Serialize + compress the index and footer sections.
    std::string index_raw, index_bytes;
    index.Serialize(&index_raw);
    MINIHIVE_RETURN_IF_ERROR(codec::CompressToUnits(
        codec_, index_raw, options_.compression_unit_size, &index_bytes));
    std::string footer_raw, footer_bytes;
    footer.Serialize(&footer_raw);
    MINIHIVE_RETURN_IF_ERROR(codec::CompressToUnits(
        codec_, footer_raw, options_.compression_unit_size, &footer_bytes));

    uint64_t stripe_length =
        index_bytes.size() + data_.size() + footer_bytes.size();
    if (options_.align_stripes_to_blocks && stripe_length <= block_size_ &&
        stripe_length > file_->RemainingInBlock()) {
      // Pad so the stripe starts at the next block boundary (paper §4.1).
      MINIHIVE_RETURN_IF_ERROR(file_->PadToBlockBoundary());
    }

    StripeInformation info;
    info.offset = file_->Size();
    info.index_length = index_bytes.size();
    info.data_length = data_.size();
    info.footer_length = footer_bytes.size();
    info.num_rows = rows_in_stripe_;
    info.index_crc = Crc32(index_bytes);
    info.footer_crc = Crc32(footer_bytes);
    MINIHIVE_RETURN_IF_ERROR(file_->Append(index_bytes));
    MINIHIVE_RETURN_IF_ERROR(file_->Append(data_));
    MINIHIVE_RETURN_IF_ERROR(file_->Append(footer_bytes));
    stripes_.push_back(info);
    stripe_stats_.push_back(stripe_stats);
    for (size_t c = 0; c < columns.size(); ++c) {
      file_stats_[c].Merge(stripe_stats[c]);
    }

    root_.Reset();
    rows_in_stripe_ = 0;
    buffered_estimate_ = 0;
    return Status::OK();
  }

  Status WriteTail() {
    FileTail tail;
    tail.schema = schema_;
    tail.num_rows = total_rows_;
    tail.stripes = stripes_;
    tail.file_stats = file_stats_;
    tail.stripe_stats = stripe_stats_;
    tail.compression = options_.compression;
    tail.compression_unit = options_.compression_unit_size;
    tail.row_index_stride = options_.row_index_stride;

    std::string metadata_raw, metadata_bytes;
    SerializeFileMetadata(tail, &metadata_raw);
    MINIHIVE_RETURN_IF_ERROR(codec::CompressToUnits(
        codec_, metadata_raw, options_.compression_unit_size, &metadata_bytes));
    std::string footer_raw, footer_bytes;
    SerializeFileFooter(tail, &footer_raw);
    MINIHIVE_RETURN_IF_ERROR(codec::CompressToUnits(
        codec_, footer_raw, options_.compression_unit_size, &footer_bytes));

    // Postscript (uncompressed): footer length, metadata length, codec,
    // unit size, stride, section checksums, magic.
    std::string postscript;
    PutVarint64(&postscript, footer_bytes.size());
    PutVarint64(&postscript, metadata_bytes.size());
    postscript.push_back(static_cast<char>(options_.compression));
    PutVarint64(&postscript, options_.compression_unit_size);
    PutVarint64(&postscript, options_.row_index_stride);
    PutFixed32(&postscript, Crc32(footer_bytes));
    PutFixed32(&postscript, Crc32(metadata_bytes));
    postscript.append(kOrcMagic, kOrcMagicLen);
    if (postscript.size() > 255) {
      return Status::Internal("postscript too large");
    }

    MINIHIVE_RETURN_IF_ERROR(file_->Append(metadata_bytes));
    MINIHIVE_RETURN_IF_ERROR(file_->Append(footer_bytes));
    MINIHIVE_RETURN_IF_ERROR(file_->Append(postscript));
    std::string ps_len(1, static_cast<char>(postscript.size()));
    return file_->Append(ps_len);
  }

  friend class OrcWriter;

  std::unique_ptr<dfs::WritableFile> file_;
  TypePtr schema_;
  OrcWriterOptions options_;
  uint64_t block_size_;
  ColumnBuilder root_;
  const codec::Codec* codec_;
  int num_columns_ = 0;
  uint64_t rows_in_stripe_ = 0;
  uint64_t total_rows_ = 0;
  uint64_t buffered_estimate_ = 0;
  bool header_written_ = false;
  bool closed_ = false;
  std::vector<StripeInformation> stripes_;
  std::vector<std::vector<ColumnStatistics>> stripe_stats_;
  std::vector<ColumnStatistics> file_stats_;
  /// Flush buffers, reused across segments and stripes: one segment's
  /// encoded bytes, and the open stripe's streams, framed and concatenated.
  std::string raw_;
  std::string data_;
};

OrcWriter::OrcWriter(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
OrcWriter::~OrcWriter() = default;

Result<std::unique_ptr<OrcWriter>> OrcWriter::Create(dfs::FileSystem* fs,
                                                     const std::string& path,
                                                     TypePtr schema,
                                                     OrcWriterOptions options) {
  if (schema == nullptr || schema->kind() != TypeKind::kStruct) {
    return Status::InvalidArgument("ORC schema must be a struct");
  }
  MINIHIVE_ASSIGN_OR_RETURN(std::unique_ptr<dfs::WritableFile> file,
                            fs->Create(path));
  auto impl = std::make_unique<Impl>(std::move(file), std::move(schema),
                                     options, fs->block_size());
  return std::unique_ptr<OrcWriter>(new OrcWriter(std::move(impl)));
}

Status OrcWriter::AddRow(const Row& row) { return impl_->AddRow(row); }
Status OrcWriter::Close() { return impl_->Close(); }
uint64_t OrcWriter::rows_written() const { return impl_->rows_written(); }
uint64_t OrcWriter::buffered_bytes() const { return impl_->buffered_bytes(); }
uint64_t OrcWriter::stripes_written() const {
  return impl_->stripes_written();
}

}  // namespace minihive::orc
