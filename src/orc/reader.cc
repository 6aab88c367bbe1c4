#include "orc/reader.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <map>
#include <optional>

#include "common/cache.h"
#include "common/crc32.h"
#include "common/fault.h"
#include "mr/engine.h"
#include "orc/stream_encoding.h"
#include "vec/simd.h"

namespace minihive::orc {

namespace {

/// Watches the fault injector across a parse's reads: if any read in the
/// watched window was delayed or byte-flipped, the parse is "tainted" and
/// must not populate the metadata cache — the fault model says those bytes
/// came from a misbehaving replica, and a cache hit would let one injected
/// fault leak into every later query of the session.
class TaintWatch {
 public:
  explicit TaintWatch(const FaultInjector* injector) : injector_(injector) {
    if (injector_ != nullptr) {
      delays_ = injector_->stats().read_delays.load();
      flips_ = injector_->stats().byte_flips.load();
    }
  }
  bool tainted() const {
    return injector_ != nullptr &&
           (injector_->stats().read_delays.load() != delays_ ||
            injector_->stats().byte_flips.load() != flips_);
  }

 private:
  const FaultInjector* injector_;
  uint64_t delays_ = 0;
  uint64_t flips_ = 0;
};

// Approximate heap charges for cached metadata objects. These only need to
// be honest to within a small factor — the budget is a resource-control
// bound, not an allocator audit.
size_t ChargeOf(const ColumnStatistics& stats) {
  return sizeof(ColumnStatistics) + stats.string_min().size() +
         stats.string_max().size();
}

size_t ChargeOf(const std::vector<ColumnStatistics>& stats) {
  size_t total = sizeof(stats);
  for (const ColumnStatistics& s : stats) total += ChargeOf(s);
  return total;
}

size_t CountTypeNodes(const TypeDescription* type) {
  size_t n = 1;
  for (const TypePtr& child : type->children()) {
    n += CountTypeNodes(child.get());
  }
  return n;
}

size_t ChargeOf(const FileTail& tail) {
  size_t total = sizeof(FileTail);
  if (tail.schema != nullptr) {
    total += CountTypeNodes(tail.schema.get()) * 64;
  }
  total += tail.stripes.size() * sizeof(StripeInformation);
  total += ChargeOf(tail.file_stats);
  for (const auto& per_stripe : tail.stripe_stats) {
    total += ChargeOf(per_stripe);
  }
  return total;
}

size_t ChargeOf(const StripeFooter& footer) {
  size_t total = sizeof(StripeFooter);
  total += footer.streams.size() * sizeof(StreamInfo);
  total += footer.encodings.size() * sizeof(ColumnEncoding);
  total += footer.dictionary_sizes.size() * sizeof(uint32_t);
  for (const auto& v : footer.instance_counts) {
    total += sizeof(v) + v.size() * sizeof(uint64_t);
  }
  for (const auto& v : footer.nonnull_counts) {
    total += sizeof(v) + v.size() * sizeof(uint64_t);
  }
  return total;
}

size_t ChargeOf(const StripeIndex& index) {
  size_t total = sizeof(StripeIndex);
  for (const auto& v : index.segment_ends) {
    total += sizeof(v) + v.size() * sizeof(uint64_t);
  }
  for (const auto& v : index.segment_crcs) {
    total += sizeof(v) + v.size() * sizeof(uint32_t);
  }
  for (const auto& v : index.group_stats) {
    total += ChargeOf(v);
  }
  return total;
}

/// A maximal run of consecutive selected index groups [first, last].
struct GroupRun {
  uint32_t first;
  uint32_t last;
};

Status VerifyCrc(std::string_view stored, uint32_t expected,
                 const char* what) {
  uint32_t actual = Crc32(stored);
  if (actual != expected) {
    return Status::Corruption(std::string("ORC checksum mismatch in ") + what +
                              ": stored crc " + std::to_string(expected) +
                              ", computed " + std::to_string(actual));
  }
  return Status::OK();
}

/// Reads one stream of one stripe. Two modes:
///  - full: the entire stream, already read and verified as one section, is
///    handed over at init; groups are decoded strictly in order with
///    persistent decoders (no index data required — per-group value counts
///    come from the stripe footer);
///  - ppd: group byte ranges come from the row index; runs of consecutive
///    selected groups are fetched with one positional read, and each group
///    is decompressed and decoded with fresh decoders (encoders restart at
///    group boundaries, so a group is independently decodable).
/// Decoders read `data_`, a view of the decoded bytes: into the fetched
/// bytes when they are one stored unit (codec::ViewUnits), else into the
/// reused decompression buffer. In ppd mode each StartGroup replaces it;
/// in full mode it is the whole stream for the stripe.
class StreamReader {
 public:
  Status InitFull(std::string stored, const codec::Codec* codec) {
    full_mode_ = true;
    stored_ = std::move(stored);
    MINIHIVE_RETURN_IF_ERROR(
        codec::ViewUnits(codec, stored_, &decompressed_, &data_));
    ResetDecoders();
    return Status::OK();
  }

  void InitPpd(dfs::ReadableFile* file, uint64_t file_start,
               const std::vector<uint64_t>* segment_ends,
               const std::vector<uint32_t>* segment_crcs,
               const std::vector<GroupRun>* runs, const codec::Codec* codec,
               int host, bool verify) {
    full_mode_ = false;
    file_ = file;
    file_start_ = file_start;
    seg_ends_ = segment_ends;
    seg_crcs_ = segment_crcs;
    runs_ = runs;
    codec_ = codec;
    host_ = host;
    verify_ = verify;
    run_valid_ = false;
  }

  /// Prepares decoding of group `g`. In full mode groups must be visited in
  /// increasing order; this just realigns the bit decoder.
  Status StartGroup(uint32_t g) {
    if (full_mode_) {
      if (bit_dec_.has_value()) bit_dec_->AlignToByte();
      return Status::OK();
    }
    uint64_t seg_start = g == 0 ? 0 : (*seg_ends_)[g - 1];
    uint64_t seg_end = (*seg_ends_)[g];
    if (!run_valid_ || g < run_first_ || g > run_last_) {
      MINIHIVE_RETURN_IF_ERROR(FetchRun(g));
    }
    std::string_view slice =
        std::string_view(stored_)
            .substr(seg_start - run_base_, seg_end - seg_start);
    if (verify_ && seg_crcs_ != nullptr && g < seg_crcs_->size()) {
      MINIHIVE_RETURN_IF_ERROR(
          VerifyCrc(slice, (*seg_crcs_)[g], "stream segment"));
    }
    MINIHIVE_RETURN_IF_ERROR(
        codec::ViewUnits(codec_, slice, &decompressed_, &data_));
    ResetDecoders();
    return Status::OK();
  }

  /// Decodes n booleans into *out as 0/1 bytes.
  Status ReadBits(uint64_t n, std::vector<uint8_t>* out) {
    if (!bit_dec_.has_value()) bit_dec_.emplace(data_);
    out->resize(n);
    return bit_dec_->NextBatch(out->data(), n);
  }

  Status ReadInts(uint64_t n, std::vector<int64_t>* out) {
    if (!int_dec_.has_value()) int_dec_.emplace(data_);
    out->resize(n);
    return int_dec_->NextBatch(out->data(), n);
  }

  Status ReadRleBytes(uint64_t n, std::vector<uint8_t>* out) {
    if (!byte_dec_.has_value()) byte_dec_.emplace(data_);
    out->resize(n);
    return byte_dec_->NextBatch(out->data(), n);
  }

  /// Views the next n raw bytes; valid until the next StartGroup.
  Status ReadView(uint64_t n, std::string_view* out) {
    if (n > data_.size() - cursor_) {
      return Status::Corruption("raw stream exhausted");
    }
    *out = data_.substr(cursor_, n);
    cursor_ += n;
    return Status::OK();
  }

  /// Decodes n doubles, stored as their little-endian bits: one bounds
  /// check and one copy.
  Status ReadDoubles(uint64_t n, std::vector<double>* out) {
    static_assert(std::endian::native == std::endian::little,
                  "DOUBLE streams hold little-endian bits");
    if (n > (data_.size() - cursor_) / sizeof(double)) {
      return Status::Corruption("raw stream exhausted");
    }
    out->resize(n);
    if (n == 0) return Status::OK();  // memcpy may not see a null pointer.
    std::memcpy(out->data(), data_.data() + cursor_, n * sizeof(double));
    cursor_ += n * sizeof(double);
    return Status::OK();
  }

 private:
  void ResetDecoders() {
    cursor_ = 0;
    int_dec_.reset();
    byte_dec_.reset();
    bit_dec_.reset();
  }

  Status FetchRun(uint32_t g) {
    // Find the run containing g.
    const GroupRun* run = nullptr;
    for (const GroupRun& r : *runs_) {
      if (g >= r.first && g <= r.last) {
        run = &r;
        break;
      }
    }
    if (run == nullptr) return Status::Internal("group not in any run");
    uint64_t start = run->first == 0 ? 0 : (*seg_ends_)[run->first - 1];
    uint64_t end = (*seg_ends_)[run->last];
    stored_.clear();
    if (end > start) {
      MINIHIVE_RETURN_IF_ERROR(
          file_->ReadAt(file_start_ + start, end - start, &stored_, host_));
    }
    run_base_ = start;
    run_first_ = run->first;
    run_last_ = run->last;
    run_valid_ = true;
    return Status::OK();
  }

  bool full_mode_ = true;
  dfs::ReadableFile* file_ = nullptr;
  uint64_t file_start_ = 0;
  const codec::Codec* codec_ = nullptr;
  int host_ = -1;
  const std::vector<uint64_t>* seg_ends_ = nullptr;
  const std::vector<uint32_t>* seg_crcs_ = nullptr;
  const std::vector<GroupRun>* runs_ = nullptr;
  bool verify_ = false;

  std::string stored_;        // Full mode: the stream; ppd: the fetched run.
  std::string decompressed_;  // Reused when data_ cannot view stored_.
  std::string_view data_;
  size_t cursor_ = 0;         // ReadView/ReadDoubles position in data_.
  std::optional<IntRleDecoder> int_dec_;
  std::optional<RunLengthByteDecoder> byte_dec_;
  std::optional<BitFieldDecoder> bit_dec_;

  uint64_t run_base_ = 0;
  uint32_t run_first_ = 0;
  uint32_t run_last_ = 0;
  bool run_valid_ = false;
};

/// Reader-side column tree node holding stripe streams and the current
/// decoded group.
struct ColumnNode {
  const TypeDescription* type = nullptr;
  int column_id = 0;
  bool needed = false;
  std::vector<std::unique_ptr<ColumnNode>> children;
  // Projected top-level fields: the subtree (all needed), in decode order.
  std::vector<ColumnNode*> decode_order;

  // Per-stripe state.
  ColumnEncoding encoding = ColumnEncoding::kDirect;
  std::vector<std::string> dict;
  uint64_t dict_version = 0;  // vec::NextDictionaryVersion() of `dict`.
  std::unique_ptr<StreamReader> present_stream;
  std::unique_ptr<StreamReader> data_stream;
  std::unique_ptr<StreamReader> length_stream;

  // Current decoded group. The buffers keep their capacity across groups.
  std::vector<uint8_t> present;  // Empty => no nulls in group.
  std::vector<int64_t> ints;     // Data ints / lengths / dictionary ids.
  std::vector<double> doubles;
  std::vector<uint8_t> bytes;    // TinyInt values / union tags / booleans.
  std::string_view arena;        // Direct string bytes, in the data stream.
  std::vector<std::pair<uint64_t, uint32_t>> str_spans;  // (offset, len).
  uint64_t instance_count = 0;
  uint64_t nonnull_count = 0;
  size_t inst_cur = 0;
  size_t nn_cur = 0;

  void Build(const TypeDescription* t) {
    type = t;
    column_id = t->column_id();
    for (const TypePtr& child : t->children()) {
      auto node = std::make_unique<ColumnNode>();
      node->Build(child.get());
      children.push_back(std::move(node));
    }
  }

  void MarkNeeded() {
    needed = true;
    for (auto& child : children) child->MarkNeeded();
  }

  void Flatten(std::vector<ColumnNode*>* out) {
    out->push_back(this);
    for (auto& child : children) child->Flatten(out);
  }
};

}  // namespace

class OrcReader::Impl {
 public:
  Impl(dfs::FileSystem* fs, std::string path,
       std::shared_ptr<dfs::ReadableFile> file, OrcReadOptions options)
      : fs_(fs),
        path_(std::move(path)),
        file_(std::move(file)),
        options_(std::move(options)),
        generation_(file_->Generation()),
        // Held for the reader's lifetime: the installing session can be
        // destroyed while this reader still inserts and looks up.
        cache_manager_(fs_->cache_manager()),
        mcache_(cache_manager_ != nullptr ? cache_manager_->metadata_cache()
                                          : nullptr) {}

  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;

  // Folds this reader's scan counts into its task attempt's counters, once.
  ~Impl() {
    mr::JobCounters* c = options_.counters;
    if (c == nullptr) return;
    c->stripes_read += stripes_read_;
    c->stripes_skipped += stripes_skipped_;
    c->groups_read += groups_read_;
    c->groups_skipped += groups_skipped_;
    c->rows_late_skipped += rows_late_skipped_;
    c->lazy_decodes_avoided += lazy_decodes_avoided_;
    c->metadata_cache_hits += metadata_cache_hits_;
    c->metadata_cache_misses += metadata_cache_misses_;
  }

  Status Open() {
    MINIHIVE_RETURN_IF_ERROR(ReadTail());
    root_.Build(tail_->schema.get());
    root_.Flatten(&all_nodes_);
    // Mark needed columns.
    root_.needed = true;
    if (options_.projected_fields.empty()) {
      for (auto& child : root_.children) child->MarkNeeded();
      for (size_t i = 0; i < root_.children.size(); ++i) {
        projected_.push_back(static_cast<int>(i));
      }
    } else {
      projected_ = options_.projected_fields;
      for (int field : projected_) {
        if (field < 0 ||
            static_cast<size_t>(field) >= root_.children.size()) {
          return Status::InvalidArgument("projected field out of range");
        }
        root_.children[field]->MarkNeeded();
      }
    }
    // Select stripes: split ownership by starting offset, then SARG pruning
    // against stripe-level statistics (paper §4.2).
    uint64_t split_end = options_.split_length == 0
                             ? UINT64_MAX
                             : options_.split_offset + options_.split_length;
    // Only a SARG makes index groups independently decodable (ppd mode);
    // without one, streams are read whole and decoded strictly in order.
    ppd_mode_ = options_.sarg != nullptr && !options_.sarg->empty();
    // Late-materialization setup: pushed-down leaves that can be evaluated
    // row-by-row with exact engine semantics, restricted to projected
    // primitive columns (filter columns are always projected by the planner;
    // an unprojected column would force extra stream reads). Phase 1 needs
    // ppd mode: a group it rejects is never decoded further.
    if (options_.enable_late_materialization && ppd_mode_) {
      for (const LeafPredicate& leaf : options_.sarg->leaves()) {
        if (leaf.column < 0 ||
            static_cast<size_t>(leaf.column) >= root_.children.size()) {
          continue;
        }
        if (std::find(projected_.begin(), projected_.end(), leaf.column) ==
            projected_.end()) {
          continue;
        }
        ColumnNode* node = root_.children[leaf.column].get();
        if (!node->children.empty()) continue;
        if (!SearchArgument::LeafRowEvaluable(leaf, node->type->kind())) {
          continue;
        }
        row_leaves_.push_back({&leaf, node});
        if (std::find(filter_nodes_.begin(), filter_nodes_.end(), node) ==
            filter_nodes_.end()) {
          filter_nodes_.push_back(node);
        }
      }
    }
    // Eager decode is the same split with no filter nodes: every projected
    // field is lazy.
    for (int field : projected_) {
      ColumnNode* node = root_.children[field].get();
      if (node->decode_order.empty()) node->Flatten(&node->decode_order);
      if (std::find(filter_nodes_.begin(), filter_nodes_.end(), node) ==
              filter_nodes_.end() &&
          std::find(lazy_nodes_.begin(), lazy_nodes_.end(), node) ==
              lazy_nodes_.end()) {
        lazy_nodes_.push_back(node);
      }
    }
    // File-absolute first-row ordinal of every stripe, computed over ALL
    // stripes (not just this split's) so delete-bitmap ordinals line up no
    // matter how the file is split across tasks.
    stripe_row_starts_.resize(tail_->stripes.size());
    uint64_t stripe_row_base = 0;
    for (size_t s = 0; s < tail_->stripes.size(); ++s) {
      stripe_row_starts_[s] = stripe_row_base;
      stripe_row_base += tail_->stripes[s].num_rows;
    }
    for (size_t s = 0; s < tail_->stripes.size(); ++s) {
      const StripeInformation& stripe = tail_->stripes[s];
      if (stripe.offset < options_.split_offset || stripe.offset >= split_end) {
        continue;
      }
      if (ppd_mode_) {
        const std::vector<ColumnStatistics>& by_id = tail_->stripe_stats[s];
        auto stats_of = [&by_id](int id) -> const ColumnStatistics* {
          return id >= 0 && static_cast<size_t>(id) < by_id.size()
                     ? &by_id[id]
                     : nullptr;
        };
        if (options_.sarg->CanSkip(TopLevelStats(stats_of))) {
          ++stripes_skipped_;
          continue;
        }
      }
      selected_stripes_.push_back(s);
    }
    return Status::OK();
  }

  const FileTail& tail() const { return *tail_; }
  bool tail_cache_hit() const { return tail_cache_hit_; }

  Result<bool> NextRow(Row* row) {
    for (;;) {
      MINIHIVE_RETURN_IF_ERROR(EnsureGroup());
      if (done_) return false;
      // A dead row (rejected by phase 1 or deleted) is never built: its
      // values are only stepped over, which keeps the sequential per-node
      // cursors aligned with the next live row.
      const bool dead =
          group_sel_active_ && group_sel_[rows_in_group_cursor_] == 0;
      ++rows_in_group_cursor_;
      if (dead) {
        for (int field : projected_) SkipValue(root_.children[field].get());
        continue;
      }
      row->assign(root_.children.size(), Value::Null());
      for (int field : projected_) {
        MINIHIVE_RETURN_IF_ERROR(
            ReconstructValue(root_.children[field].get(), &(*row)[field]));
      }
      return true;
    }
  }

  Result<std::unique_ptr<vec::VectorizedRowBatch>> CreateBatch() const {
    auto batch = std::make_unique<vec::VectorizedRowBatch>(options_.batch_size);
    for (int field : projected_) {
      const TypeDescription* t = root_.children[field]->type;
      if (!IsPrimitive(t->kind())) {
        return Status::InvalidArgument(
            "vectorized reading requires primitive columns");
      }
      batch->AddColumn(t->kind());
    }
    return batch;
  }

  Result<bool> NextBatch(vec::VectorizedRowBatch* batch) {
    batch->Reset();
    MINIHIVE_RETURN_IF_ERROR(EnsureGroup());
    if (done_) return false;
    uint64_t avail = current_group_rows_ - rows_in_group_cursor_;
    int n = static_cast<int>(
        std::min<uint64_t>(avail, static_cast<uint64_t>(batch->capacity())));
    // Phase-1 verdicts for this chunk of the group (null when the whole
    // chunk survived phase 1 or late materialization is off).
    const uint8_t* sel_mask =
        group_sel_active_ ? group_sel_.data() + rows_in_group_cursor_
                          : nullptr;
    for (size_t i = 0; i < projected_.size(); ++i) {
      ColumnNode* node = root_.children[projected_[i]].get();
      MINIHIVE_RETURN_IF_ERROR(
          FillVector(node, batch, static_cast<int>(i), n, sel_mask));
    }
    if (sel_mask != nullptr) {
      batch->selected_size = simd::MaskToSelected(sel_mask, n,
                                                  batch->selected.data());
      batch->selected_in_use = true;
    }
    rows_in_group_cursor_ += n;
    batch->size = n;
    return true;
  }

  uint64_t stripes_read() const { return stripes_read_; }
  uint64_t stripes_skipped() const { return stripes_skipped_; }
  uint64_t groups_read() const { return groups_read_; }
  uint64_t groups_skipped() const { return groups_skipped_; }
  uint64_t rows_late_skipped() const { return rows_late_skipped_; }
  uint64_t lazy_decodes_avoided() const { return lazy_decodes_avoided_; }
  uint64_t rows_deleted_skipped() const { return rows_deleted_skipped_; }

 private:
  /// Key of one cached metadata object of this file incarnation. The tag
  /// separates entry kinds; `stripe_offset` is 0 for file-level entries.
  std::string MetaKey(std::string_view tag, uint64_t stripe_offset) const {
    return cache::KeyBuilder(tag)
        .Add(path_)
        .Add(generation_)
        .Add(stripe_offset)
        .Take();
  }

  /// The metadata-cache protocol shared by the tail, stripe footers and
  /// stripe indexes: a hit (counted) serves the cached parse, skipping its
  /// reads, CRC checks, decompression and deserialization; a miss runs
  /// `parse` and populates the cache only from a checksum-verified,
  /// fault-free parse — a cached entry is served without re-verification,
  /// so unverified or tainted bytes must never seed it. Either way the
  /// returned shared_ptr keeps the parse alive while this reader uses it,
  /// evicted or not. `*hit` (optional) reports whether the cache served it.
  template <typename T, typename Parse>
  Result<std::shared_ptr<const T>> CachedParse(std::string_view tag,
                                               uint64_t stripe_offset,
                                               Parse parse,
                                               bool* hit = nullptr) {
    std::string key;
    if (mcache_ != nullptr) {
      key = MetaKey(tag, stripe_offset);
      std::shared_ptr<const void> cached = mcache_->Lookup(key);
      ++(cached != nullptr ? metadata_cache_hits_ : metadata_cache_misses_);
      if (cached != nullptr) {
        if (hit != nullptr) *hit = true;
        return std::static_pointer_cast<const T>(std::move(cached));
      }
    }
    TaintWatch taint(fs_->fault_injector());
    auto parsed = std::make_shared<T>();
    MINIHIVE_RETURN_IF_ERROR(parse(parsed.get()));
    if (mcache_ != nullptr && options_.verify_checksums && !taint.tainted()) {
      size_t charge = ChargeOf(*parsed) + key.size() + cache::kEntryOverhead;
      mcache_->Insert(key, parsed, charge);
    }
    return std::shared_ptr<const T>(std::move(parsed));
  }

  /// Reads the file section [offset, offset + length) into *stored and
  /// verifies its CRC (when checksums are on). Every whole-section read goes
  /// through here: file footer and metadata, stripe footers and indexes
  /// (via ReadSection), and full-mode streams.
  Status ReadStored(uint64_t offset, uint64_t length, uint32_t crc,
                    const char* what, std::string* stored) {
    if (length > 0) {
      MINIHIVE_RETURN_IF_ERROR(
          file_->ReadAt(offset, length, stored, options_.reader_host));
    }
    if (options_.verify_checksums) {
      MINIHIVE_RETURN_IF_ERROR(VerifyCrc(*stored, crc, what));
    }
    return Status::OK();
  }

  /// ReadStored, then decompresses the section into *raw.
  Status ReadSection(uint64_t offset, uint64_t length, uint32_t crc,
                     const char* what, std::string* raw) {
    std::string stored;
    MINIHIVE_RETURN_IF_ERROR(ReadStored(offset, length, crc, what, &stored));
    raw->clear();
    return codec::DecompressUnits(codec_, stored, raw);
  }

  /// The parsed tail (postscript, footer, metadata), held by tail_ for the
  /// reader's lifetime: an eviction cannot take it from under a long scan.
  Status ReadTail() {
    MINIHIVE_ASSIGN_OR_RETURN(
        tail_, CachedParse<FileTail>(
                   "orc.tail", 0,
                   [this](FileTail* tail) { return ParseTail(tail); },
                   &tail_cache_hit_));
    codec_ = codec::GetCodec(tail_->compression);
    return Status::OK();
  }

  Status ParseTail(FileTail* tail) {
    uint64_t size = file_->Size();
    if (size < kOrcMagicLen + 2) return Status::Corruption("file too small");
    // Read a generous tail chunk to cover ps_len + postscript.
    uint64_t probe = std::min<uint64_t>(size, 256);
    std::string tail_bytes;
    MINIHIVE_RETURN_IF_ERROR(file_->ReadAt(size - probe, probe, &tail_bytes,
                                           options_.reader_host));
    uint8_t ps_len = static_cast<uint8_t>(tail_bytes.back());
    if (ps_len + 1 > static_cast<int>(tail_bytes.size())) {
      return Status::Corruption("postscript larger than probe");
    }
    std::string_view postscript =
        std::string_view(tail_bytes)
            .substr(tail_bytes.size() - 1 - ps_len, ps_len);
    ByteReader ps(postscript);
    uint64_t footer_len, metadata_len;
    MINIHIVE_RETURN_IF_ERROR(ps.GetVarint64(&footer_len));
    MINIHIVE_RETURN_IF_ERROR(ps.GetVarint64(&metadata_len));
    uint8_t codec_byte;
    MINIHIVE_RETURN_IF_ERROR(ps.GetByte(&codec_byte));
    tail->compression = static_cast<codec::CompressionKind>(codec_byte);
    MINIHIVE_RETURN_IF_ERROR(ps.GetVarint64(&tail->compression_unit));
    MINIHIVE_RETURN_IF_ERROR(ps.GetVarint64(&tail->row_index_stride));
    MINIHIVE_RETURN_IF_ERROR(ps.GetFixed32(&tail->footer_crc));
    MINIHIVE_RETURN_IF_ERROR(ps.GetFixed32(&tail->metadata_crc));
    std::string_view magic;
    MINIHIVE_RETURN_IF_ERROR(ps.GetBytes(kOrcMagicLen, &magic));
    if (magic != std::string_view(kOrcMagic, kOrcMagicLen)) {
      return Status::Corruption("bad ORC postscript magic");
    }
    codec_ = codec::GetCodec(tail->compression);
    // Guard each section length separately before summing: a corrupt varint
    // can be near 2^64, where the summed tail length would wrap around and
    // pass a naive `tail_length > size` check.
    if (footer_len > size || metadata_len > size ||
        footer_len + metadata_len > size) {
      return Status::Corruption("bad tail section length");
    }
    tail->tail_length = 1 + ps_len + footer_len + metadata_len;
    if (tail->tail_length > size) return Status::Corruption("bad tail length");

    uint64_t footer_off = size - 1 - ps_len - footer_len;
    std::string raw;
    MINIHIVE_RETURN_IF_ERROR(ReadSection(footer_off, footer_len,
                                         tail->footer_crc, "file footer", &raw));
    MINIHIVE_RETURN_IF_ERROR(DeserializeFileFooter(raw, tail));
    MINIHIVE_RETURN_IF_ERROR(ReadSection(footer_off - metadata_len,
                                         metadata_len, tail->metadata_crc,
                                         "file metadata", &raw));
    return DeserializeFileMetadata(raw, tail);
  }

  /// Per-top-level-field statistics for SARG evaluation; `stats_of(id)`
  /// yields a column id's statistics, or null when there are none (an
  /// unknown column never lets the SARG skip anything).
  template <typename StatsOf>
  std::vector<ColumnStatistics> TopLevelStats(StatsOf stats_of) const {
    std::vector<ColumnStatistics> result;
    for (const TypePtr& child : tail_->schema->children()) {
      const ColumnStatistics* stats = stats_of(child->column_id());
      result.push_back(stats != nullptr ? *stats : ColumnStatistics());
    }
    return result;
  }

  /// Advances to the next group with rows remaining; loads stripes and
  /// decodes groups as needed. Sets done_ at end of the split.
  Status EnsureGroup() {
    while (!done_ && rows_in_group_cursor_ >= current_group_rows_) {
      // Cancellation point: one check per index group (thousands of rows)
      // keeps a governed scan responsive at negligible per-row cost.
      if (options_.governor != nullptr) {
        MINIHIVE_RETURN_IF_ERROR(options_.governor->CheckAlive());
      }
      if (stripe_loaded_ && group_iter_ < selected_groups_.size()) {
        MINIHIVE_RETURN_IF_ERROR(DecodeGroup(selected_groups_[group_iter_++]));
        continue;
      }
      if (stripe_iter_ >= selected_stripes_.size()) {
        done_ = true;
        return Status::OK();
      }
      MINIHIVE_RETURN_IF_ERROR(LoadStripe(selected_stripes_[stripe_iter_++]));
    }
    return Status::OK();
  }

  Status LoadStripe(size_t stripe_index) {
    const StripeInformation& info = tail_->stripes[stripe_index];
    const uint64_t size = file_->Size();
    if (info.offset > size || info.index_length > size ||
        info.data_length > size || info.footer_length > size ||
        info.offset + info.index_length + info.data_length +
                info.footer_length > size) {
      return Status::Corruption("ORC stripe runs past the end of the file");
    }
    ++stripes_read_;
    MINIHIVE_ASSIGN_OR_RETURN(
        stripe_footer_,
        CachedParse<StripeFooter>(
            "orc.sf", info.offset,
            [&](StripeFooter* footer) -> Status {
              std::string raw;
              MINIHIVE_RETURN_IF_ERROR(ReadSection(
                  info.offset + info.index_length + info.data_length,
                  info.footer_length, info.footer_crc, "stripe footer", &raw));
              return StripeFooter::Deserialize(raw, footer);
            }));
    if (stripe_footer_->encodings.size() != all_nodes_.size()) {
      return Status::Corruption("ORC stripe footer has the wrong column count");
    }

    // Group selection.
    group_sel_active_ = false;
    selected_groups_.clear();
    group_runs_.clear();
    stripe_index_ = nullptr;
    if (ppd_mode_) {
      // Row index: position pointers + per-group statistics.
      MINIHIVE_ASSIGN_OR_RETURN(
          stripe_index_,
          CachedParse<StripeIndex>(
              "orc.si", info.offset,
              [&](StripeIndex* index) -> Status {
                std::string raw;
                MINIHIVE_RETURN_IF_ERROR(ReadSection(info.offset,
                                                     info.index_length,
                                                     info.index_crc,
                                                     "stripe index", &raw));
                return StripeIndex::Deserialize(raw, index);
              }));
      const auto& group_stats = stripe_index_->group_stats;
      for (uint32_t g = 0; g < stripe_footer_->num_groups; ++g) {
        auto stats_of = [&](int id) -> const ColumnStatistics* {
          if (id < 0 || static_cast<size_t>(id) >= group_stats.size() ||
              g >= group_stats[id].size()) {
            return nullptr;
          }
          return &group_stats[id][g];
        };
        if (options_.sarg->CanSkip(TopLevelStats(stats_of))) {
          ++groups_skipped_;
        } else {
          selected_groups_.push_back(g);
        }
      }
      // Maximal consecutive runs for coalesced fetching.
      for (size_t i = 0; i < selected_groups_.size();) {
        size_t j = i;
        while (j + 1 < selected_groups_.size() &&
               selected_groups_[j + 1] == selected_groups_[j] + 1) {
          ++j;
        }
        group_runs_.push_back({selected_groups_[i], selected_groups_[j]});
        i = j + 1;
      }
    } else {
      for (uint32_t g = 0; g < stripe_footer_->num_groups; ++g) {
        selected_groups_.push_back(g);
      }
    }
    groups_read_ += selected_groups_.size();

    // Wire up stream readers for needed columns.
    for (ColumnNode* node : all_nodes_) {
      node->present_stream.reset();
      node->data_stream.reset();
      node->length_stream.reset();
      node->dict.clear();
      node->encoding = ColumnEncoding::kDirect;
    }
    uint64_t stream_start = info.offset + info.index_length;
    const uint64_t data_end = stream_start + info.data_length;
    for (size_t si = 0; si < stripe_footer_->streams.size(); ++si) {
      const StreamInfo& s = stripe_footer_->streams[si];
      if (s.column >= all_nodes_.size() ||
          s.length > data_end - stream_start) {
        return Status::Corruption("ORC stream outside its stripe");
      }
      ColumnNode* node = all_nodes_[s.column];
      uint64_t start = stream_start;
      stream_start += s.length;
      if (!node->needed) continue;
      node->encoding = stripe_footer_->encodings[s.column];
      auto stream = std::make_unique<StreamReader>();
      if (ppd_mode_ && !IsStripeScoped(s.kind)) {
        const auto& all_ends = stripe_index_->segment_ends;
        const std::vector<uint64_t>* ends =
            si < all_ends.size() ? &all_ends[si] : nullptr;
        if (ends == nullptr || ends->size() < stripe_footer_->num_groups ||
            !std::is_sorted(ends->begin(), ends->end()) ||
            (!ends->empty() && ends->back() > s.length)) {
          return Status::Corruption("ORC row index does not fit its stream");
        }
        const std::vector<uint32_t>* crcs =
            si < stripe_index_->segment_crcs.size()
                ? &stripe_index_->segment_crcs[si]
                : nullptr;
        stream->InitPpd(file_.get(), start, ends, crcs, &group_runs_, codec_,
                        options_.reader_host, options_.verify_checksums);
      } else {
        // Full mode; dictionary streams are read whole in either mode.
        std::string stored;
        MINIHIVE_RETURN_IF_ERROR(
            ReadStored(start, s.length, s.crc, "stream", &stored));
        MINIHIVE_RETURN_IF_ERROR(stream->InitFull(std::move(stored), codec_));
      }
      switch (s.kind) {
        case StreamKind::kPresent:
          node->present_stream = std::move(stream);
          break;
        case StreamKind::kData:
          node->data_stream = std::move(stream);
          break;
        case StreamKind::kLength:
          node->length_stream = std::move(stream);
          break;
        case StreamKind::kDictionaryData:
          dict_data_tmp_[s.column] = std::move(stream);
          break;
        case StreamKind::kDictionaryLength:
          dict_length_tmp_[s.column] = std::move(stream);
          break;
      }
    }
    // Decode dictionaries.
    for (auto& [column, data_stream] : dict_data_tmp_) {
      auto it = dict_length_tmp_.find(column);
      if (it == dict_length_tmp_.end()) {
        return Status::Corruption("dictionary data without lengths");
      }
      ColumnNode* node = all_nodes_[column];
      uint32_t dict_size = stripe_footer_->dictionary_sizes[column];
      uint64_t values = 0;
      for (uint64_t n : stripe_footer_->nonnull_counts[column]) values += n;
      if (dict_size > values) {
        return Status::Corruption("ORC dictionary larger than its column");
      }
      MINIHIVE_RETURN_IF_ERROR(it->second->ReadInts(dict_size, &lengths_));
      node->dict.resize(dict_size);
      std::string_view entry;
      for (uint32_t i = 0; i < dict_size; ++i) {
        MINIHIVE_RETURN_IF_ERROR(
            data_stream->ReadView(static_cast<uint64_t>(lengths_[i]), &entry));
        node->dict[i] = entry;
      }
      node->dict_version = vec::NextDictionaryVersion();
    }
    dict_data_tmp_.clear();
    dict_length_tmp_.clear();

    stripe_loaded_ = true;
    group_iter_ = 0;
    current_group_rows_ = 0;
    rows_in_group_cursor_ = 0;
    // Per-group first-row ordinals within this stripe (delete-bitmap
    // addressing): group g's absolute base is the stripe's base plus the
    // rows of every earlier group, independent of SARG group skipping.
    stripe_row_base_ = stripe_row_starts_[stripe_index];
    group_row_base_.assign(stripe_footer_->num_groups, 0);
    uint64_t group_base = 0;
    for (uint32_t g = 0; g < stripe_footer_->num_groups; ++g) {
      group_row_base_[g] = group_base;
      group_base += stripe_footer_->instance_counts[0][g];
    }
    return Status::OK();
  }

  /// Folds the file's delete bitmap into the current group's selection
  /// mask. Activates the mask lazily: groups with no deleted rows keep the
  /// dense (mask-free) fast path.
  void ApplyDeleteBitmap(uint64_t instances) {
    const DeleteBitmap* bitmap = options_.delete_bitmap;
    if (bitmap == nullptr || bitmap->empty()) return;
    for (uint64_t i = 0; i < instances; ++i) {
      if (!bitmap->IsDeleted(group_abs_base_ + i)) continue;
      if (!group_sel_active_) {
        group_sel_.assign(instances, 1);
        group_sel_active_ = true;
      }
      if (group_sel_[i] != 0) {
        group_sel_[i] = 0;
        ++rows_deleted_skipped_;
      }
    }
  }

  /// Decodes group `g` for rows and batches alike (PREWHERE-style late
  /// materialization): decode the filter columns, evaluate the row-evaluable
  /// leaves into the per-row mask (phase 1), decode the lazy columns only
  /// when some row survived (phase 2), then fold in the delete bitmap. An
  /// all-dead group costs just its filter-column decode. With no filter
  /// columns this is the eager decode: every projected field is lazy.
  Status DecodeGroup(uint32_t g) {
    const uint64_t instances = stripe_footer_->instance_counts[0][g];
    group_sel_active_ = false;
    current_group_rows_ = 0;
    rows_in_group_cursor_ = 0;
    for (ColumnNode* node : filter_nodes_) {
      MINIHIVE_RETURN_IF_ERROR(DecodeSubtree(node, g));
    }
    if (!row_leaves_.empty()) {
      group_sel_.assign(instances, 1);
      for (const RowLeaf& rl : row_leaves_) {
        ColumnSlice slice = MakeSlice(rl.node, static_cast<int>(instances));
        SearchArgument::EvaluateLeafRows(*rl.leaf, rl.node->type->kind(),
                                         slice, group_sel_.data(),
                                         &leaf_scratch_);
      }
      uint64_t survivors = 0;
      for (uint64_t i = 0; i < instances; ++i) survivors += group_sel_[i];
      rows_late_skipped_ += instances - survivors;
      if (survivors == 0) {
        // The group is fully dead: skip every lazy decode and hand control
        // back to EnsureGroup (zero rows => it advances to the next group).
        // Only ppd mode has row leaves, so the skipped streams are never
        // needed in order.
        lazy_decodes_avoided_ += lazy_nodes_.size();
        return Status::OK();
      }
      group_sel_active_ = survivors < instances;
    }
    for (ColumnNode* node : lazy_nodes_) {
      MINIHIVE_RETURN_IF_ERROR(DecodeSubtree(node, g));
    }
    current_group_rows_ = instances;
    group_abs_base_ = stripe_row_base_ + group_row_base_[g];
    ApplyDeleteBitmap(instances);
    return Status::OK();
  }

  /// Decodes the whole top-level subtree of `node` for group `g`.
  Status DecodeSubtree(ColumnNode* node, uint32_t g) {
    for (ColumnNode* n : node->decode_order) {
      size_t c = static_cast<size_t>(n->column_id);
      MINIHIVE_RETURN_IF_ERROR(
          DecodeColumnGroup(n, g, stripe_footer_->instance_counts[c][g],
                            stripe_footer_->nonnull_counts[c][g]));
    }
    return Status::OK();
  }

  /// Packed-value view of a decoded filter column for row-level SARG
  /// evaluation. String columns materialize views once per group (dict:
  /// id -> entry; direct: span into the arena).
  ColumnSlice MakeSlice(ColumnNode* node, int rows) {
    ColumnSlice slice;
    slice.rows = rows;
    slice.present = node->present.empty() ? nullptr : node->present.data();
    switch (node->type->kind()) {
      case TypeKind::kFloat:
      case TypeKind::kDouble:
        slice.doubles = node->doubles.data();
        break;
      case TypeKind::kString: {
        str_views_.resize(node->nonnull_count);
        if (node->encoding == ColumnEncoding::kDictionary) {
          for (uint64_t j = 0; j < node->nonnull_count; ++j) {
            str_views_[j] = node->dict[static_cast<size_t>(node->ints[j])];
          }
        } else {
          for (uint64_t j = 0; j < node->nonnull_count; ++j) {
            auto [off, len] = node->str_spans[j];
            str_views_[j] = std::string_view(node->arena).substr(off, len);
          }
        }
        slice.strings = str_views_.data();
        break;
      }
      default:
        slice.longs = node->ints.data();
        break;
    }
    return slice;
  }

  /// Decodes one column's segments of group `g` into the node's reused
  /// buffers, a whole group per decoder call.
  Status DecodeColumnGroup(ColumnNode* node, uint32_t g, uint64_t instances,
                           uint64_t nonnull) {
    node->instance_count = instances;
    node->nonnull_count = nonnull;
    node->inst_cur = 0;
    node->nn_cur = 0;

    if (node->present_stream != nullptr) {
      MINIHIVE_RETURN_IF_ERROR(node->present_stream->StartGroup(g));
      MINIHIVE_RETURN_IF_ERROR(
          node->present_stream->ReadBits(instances, &node->present));
    } else {
      node->present.clear();
    }
    // Every value cursor below stays inside the decoded values only if the
    // present bits and the footer's non-null count agree.
    uint64_t present_count = instances;
    if (!node->present.empty()) {
      present_count = 0;
      for (uint8_t bit : node->present) present_count += bit;
    }
    if (present_count != nonnull) {
      return Status::Corruption("present bits disagree with non-null count");
    }
    switch (node->type->kind()) {
      case TypeKind::kBoolean: {
        MINIHIVE_RETURN_IF_ERROR(node->data_stream->StartGroup(g));
        MINIHIVE_RETURN_IF_ERROR(
            node->data_stream->ReadBits(nonnull, &node->bytes));
        node->ints.assign(node->bytes.begin(), node->bytes.end());
        break;
      }
      case TypeKind::kTinyInt: {
        MINIHIVE_RETURN_IF_ERROR(node->data_stream->StartGroup(g));
        MINIHIVE_RETURN_IF_ERROR(
            node->data_stream->ReadRleBytes(nonnull, &node->bytes));
        node->ints.resize(nonnull);
        for (uint64_t i = 0; i < nonnull; ++i) {
          node->ints[i] = static_cast<int8_t>(node->bytes[i]);
        }
        break;
      }
      case TypeKind::kSmallInt:
      case TypeKind::kInt:
      case TypeKind::kBigInt:
      case TypeKind::kTimestamp: {
        MINIHIVE_RETURN_IF_ERROR(node->data_stream->StartGroup(g));
        MINIHIVE_RETURN_IF_ERROR(
            node->data_stream->ReadInts(nonnull, &node->ints));
        break;
      }
      case TypeKind::kFloat:
      case TypeKind::kDouble: {
        MINIHIVE_RETURN_IF_ERROR(node->data_stream->StartGroup(g));
        MINIHIVE_RETURN_IF_ERROR(
            node->data_stream->ReadDoubles(nonnull, &node->doubles));
        break;
      }
      case TypeKind::kString: {
        MINIHIVE_RETURN_IF_ERROR(node->data_stream->StartGroup(g));
        if (node->encoding == ColumnEncoding::kDictionary) {
          MINIHIVE_RETURN_IF_ERROR(
              node->data_stream->ReadInts(nonnull, &node->ints));
          for (int64_t id : node->ints) {
            if (static_cast<uint64_t>(id) >= node->dict.size()) {
              return Status::Corruption("dictionary id out of range");
            }
          }
        } else {
          MINIHIVE_RETURN_IF_ERROR(node->length_stream->StartGroup(g));
          MINIHIVE_RETURN_IF_ERROR(
              node->length_stream->ReadInts(nonnull, &lengths_));
          node->str_spans.resize(nonnull);
          uint64_t at = 0;
          for (uint64_t i = 0; i < nonnull; ++i) {
            if (lengths_[i] < 0 || lengths_[i] > UINT32_MAX) {
              return Status::Corruption("bad string length");
            }
            node->str_spans[i] = {at, static_cast<uint32_t>(lengths_[i])};
            at += static_cast<uint64_t>(lengths_[i]);
          }
          MINIHIVE_RETURN_IF_ERROR(
              node->data_stream->ReadView(at, &node->arena));
        }
        break;
      }
      case TypeKind::kArray:
      case TypeKind::kMap: {
        MINIHIVE_RETURN_IF_ERROR(node->length_stream->StartGroup(g));
        MINIHIVE_RETURN_IF_ERROR(
            node->length_stream->ReadInts(nonnull, &node->ints));
        break;
      }
      case TypeKind::kStruct:
        break;
      case TypeKind::kUnion: {
        MINIHIVE_RETURN_IF_ERROR(node->data_stream->StartGroup(g));
        MINIHIVE_RETURN_IF_ERROR(
            node->data_stream->ReadRleBytes(nonnull, &node->bytes));
        for (uint8_t tag : node->bytes) {
          if (tag >= node->children.size()) {
            return Status::Corruption("union tag out of range");
          }
        }
        break;
      }
    }
    return Status::OK();
  }

  /// Reconstructs the next value of `node` (row mode).
  Status ReconstructValue(ColumnNode* node, Value* out) {
    bool is_present =
        node->present.empty() || node->present[node->inst_cur] != 0;
    ++node->inst_cur;
    if (!is_present) {
      *out = Value::Null();
      return Status::OK();
    }
    size_t j = node->nn_cur++;
    switch (node->type->kind()) {
      case TypeKind::kBoolean:
        *out = Value::Bool(node->ints[j] != 0);
        return Status::OK();
      case TypeKind::kTinyInt:
      case TypeKind::kSmallInt:
      case TypeKind::kInt:
      case TypeKind::kBigInt:
      case TypeKind::kTimestamp:
        *out = Value::Int(node->ints[j]);
        return Status::OK();
      case TypeKind::kFloat:
      case TypeKind::kDouble:
        *out = Value::Double(node->doubles[j]);
        return Status::OK();
      case TypeKind::kString: {
        if (node->encoding == ColumnEncoding::kDictionary) {
          *out = Value::String(node->dict[static_cast<size_t>(node->ints[j])]);
        } else {
          auto [off, len] = node->str_spans[j];
          *out = Value::String(std::string(node->arena.substr(off, len)));
        }
        return Status::OK();
      }
      case TypeKind::kArray: {
        int64_t n = node->ints[j];
        Value::Array elements(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) {
          MINIHIVE_RETURN_IF_ERROR(
              ReconstructValue(node->children[0].get(), &elements[i]));
        }
        *out = Value::MakeArray(std::move(elements));
        return Status::OK();
      }
      case TypeKind::kMap: {
        int64_t n = node->ints[j];
        Value::MapEntries entries(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) {
          MINIHIVE_RETURN_IF_ERROR(
              ReconstructValue(node->children[0].get(), &entries[i].first));
          MINIHIVE_RETURN_IF_ERROR(
              ReconstructValue(node->children[1].get(), &entries[i].second));
        }
        *out = Value::MakeMap(std::move(entries));
        return Status::OK();
      }
      case TypeKind::kStruct: {
        Value::StructFields fields(node->children.size());
        for (size_t i = 0; i < node->children.size(); ++i) {
          MINIHIVE_RETURN_IF_ERROR(
              ReconstructValue(node->children[i].get(), &fields[i]));
        }
        *out = Value::MakeStruct(std::move(fields));
        return Status::OK();
      }
      case TypeKind::kUnion: {
        int tag = node->bytes[j];
        Value inner;
        MINIHIVE_RETURN_IF_ERROR(
            ReconstructValue(node->children[tag].get(), &inner));
        *out = Value::MakeUnion(tag, std::move(inner));
        return Status::OK();
      }
    }
    return Status::Internal("unreachable");
  }

  /// Steps the cursors of `node` (and its children) over its next value
  /// without building it: a dead row's values in row mode.
  void SkipValue(ColumnNode* node) {
    bool is_present =
        node->present.empty() || node->present[node->inst_cur] != 0;
    ++node->inst_cur;
    if (!is_present) return;
    size_t j = node->nn_cur++;
    switch (node->type->kind()) {
      case TypeKind::kArray:
      case TypeKind::kMap:
        for (int64_t i = 0; i < node->ints[j]; ++i) {
          for (auto& child : node->children) SkipValue(child.get());
        }
        return;
      case TypeKind::kStruct:
        for (auto& child : node->children) SkipValue(child.get());
        return;
      case TypeKind::kUnion:
        SkipValue(node->children[node->bytes[j]].get());
        return;
      default:
        return;
    }
  }

  /// Copies n rows of a primitive top-level column into a batch vector
  /// (paper §6.5: the reader deserializes into column vectors and sets the
  /// no-null flag). `sel_mask` (phase-1 verdicts for these n rows, or null)
  /// lets string columns skip arena copies for rows that are already dead;
  /// numeric columns copy unconditionally — the copy is cheaper than a
  /// branch, and the packed-value cursors must advance either way. With no
  /// NULLs a numeric column is one memcpy.
  Status FillVector(ColumnNode* node, vec::VectorizedRowBatch* batch,
                    int vector_index, int n,
                    const uint8_t* sel_mask = nullptr) {
    bool no_nulls = node->present.empty();
    vec::ColumnVector* base = batch->columns[vector_index].get();
    if (!no_nulls) {
      base->no_nulls = false;
      for (int i = 0; i < n; ++i) {
        base->not_null[i] = node->present[node->inst_cur + i];
      }
    }
    switch (base->kind()) {
      case vec::VectorKind::kLong: {
        auto* vec = static_cast<vec::LongColumnVector*>(base);
        if (no_nulls) {
          std::memcpy(vec->vector.data(), node->ints.data() + node->nn_cur,
                      n * sizeof(int64_t));
          node->nn_cur += n;
          break;
        }
        for (int i = 0; i < n; ++i) {
          bool p = no_nulls || node->present[node->inst_cur + i];
          vec->vector[i] = p ? node->ints[node->nn_cur++] : 0;
        }
        break;
      }
      case vec::VectorKind::kDouble: {
        auto* vec = static_cast<vec::DoubleColumnVector*>(base);
        if (no_nulls) {
          std::memcpy(vec->vector.data(), node->doubles.data() + node->nn_cur,
                      n * sizeof(double));
          node->nn_cur += n;
          break;
        }
        for (int i = 0; i < n; ++i) {
          bool p = no_nulls || node->present[node->inst_cur + i];
          vec->vector[i] = p ? node->doubles[node->nn_cur++] : 0;
        }
        break;
      }
      case vec::VectorKind::kBytes: {
        auto* vec = static_cast<vec::BytesColumnVector*>(base);
        if (node->encoding == ColumnEncoding::kDictionary) {
          FillDictionaryCodes(node, vec, n);
          break;
        }
        vec->dictionary = nullptr;
        for (int i = 0; i < n; ++i) {
          bool p = no_nulls || node->present[node->inst_cur + i];
          if (!p) {
            vec->SetVal(i, std::string_view());
            continue;
          }
          size_t j = node->nn_cur++;
          if (sel_mask != nullptr && sel_mask[i] == 0) {
            // Dead row: keep offsets defined but skip the byte copy.
            vec->SetVal(i, std::string_view());
            continue;
          }
          auto [off, len] = node->str_spans[j];
          vec->SetVal(i, std::string_view(node->arena).substr(off, len));
        }
        break;
      }
    }
    node->inst_cur += n;
    return Status::OK();
  }

  /// Dictionary-encoded string column: hands the stripe dictionary to the
  /// vector and writes one code per slot (-1 for NULL) instead of copying
  /// value bytes, so dead rows cost nothing extra. A batch referencing a
  /// single entry with no nulls is marked is-repeating (paper §6.2).
  /// Advances the non-null cursor; the caller advances the instance cursor.
  void FillDictionaryCodes(ColumnNode* node, vec::BytesColumnVector* vec,
                           int n) {
    const bool no_nulls = node->present.empty();
    vec->dictionary = &node->dict;
    vec->dictionary_version = node->dict_version;
    int32_t* codes = vec->codes.data();
    const int64_t* ids = node->ints.data() + node->nn_cur;
    int nonnull = 0;
    for (int i = 0; i < n; ++i) {
      if (!no_nulls && !node->present[node->inst_cur + i]) {
        codes[i] = -1;
        continue;
      }
      codes[i] = static_cast<int32_t>(ids[nonnull++]);
    }
    if (no_nulls && n > 0 &&
        std::all_of(codes + 1, codes + n,
                    [first = codes[0]](int32_t c) { return c == first; })) {
      vec->is_repeating = true;
    }
    node->nn_cur += nonnull;
  }

  friend class OrcReader;

  dfs::FileSystem* fs_;
  std::string path_;
  std::shared_ptr<dfs::ReadableFile> file_;
  OrcReadOptions options_;
  // (path_, generation_) names this exact file incarnation — the metadata
  // cache key. The cache pointer is null when the filesystem has no
  // CacheManager installed; all cache logic hides behind that test.
  uint64_t generation_ = 0;
  std::shared_ptr<cache::CacheManager> cache_manager_;  // Keeps mcache_ alive.
  cache::Cache* mcache_ = nullptr;
  bool tail_cache_hit_ = false;
  std::shared_ptr<const FileTail> tail_;
  const codec::Codec* codec_ = nullptr;
  ColumnNode root_;
  std::vector<int> projected_;

  std::vector<size_t> selected_stripes_;
  // Delete-bitmap addressing: file-absolute first-row ordinal of every
  // stripe / of each group in the loaded stripe / of the decoded group.
  std::vector<uint64_t> stripe_row_starts_;
  uint64_t stripe_row_base_ = 0;
  std::vector<uint64_t> group_row_base_;
  uint64_t group_abs_base_ = 0;
  size_t stripe_iter_ = 0;
  bool stripe_loaded_ = false;
  bool ppd_mode_ = false;
  std::shared_ptr<const StripeFooter> stripe_footer_;
  std::shared_ptr<const StripeIndex> stripe_index_;
  std::vector<uint32_t> selected_groups_;
  std::vector<GroupRun> group_runs_;
  size_t group_iter_ = 0;
  uint64_t current_group_rows_ = 0;
  uint64_t rows_in_group_cursor_ = 0;
  bool done_ = false;

  std::map<uint32_t, std::unique_ptr<StreamReader>> dict_data_tmp_;
  std::map<uint32_t, std::unique_ptr<StreamReader>> dict_length_tmp_;

  // Late materialization: the group-decode split of the projected fields.
  struct RowLeaf {
    const LeafPredicate* leaf;
    ColumnNode* node;
  };
  std::vector<RowLeaf> row_leaves_;
  std::vector<ColumnNode*> filter_nodes_;  // Decoded in phase 1.
  std::vector<ColumnNode*> lazy_nodes_;    // Decoded only if rows survive.
  bool group_sel_active_ = false;  // Current group has a partial selection.
  std::vector<uint8_t> group_sel_;  // Per-row phase-1 verdicts (group-rel).
  std::vector<uint8_t> leaf_scratch_;
  std::vector<std::string_view> str_views_;
  std::vector<ColumnNode*> all_nodes_;  // The column tree, flattened.
  std::vector<int64_t> lengths_;        // String lengths of one group.

  uint64_t stripes_read_ = 0;
  uint64_t stripes_skipped_ = 0;
  uint64_t groups_read_ = 0;
  uint64_t groups_skipped_ = 0;
  uint64_t rows_late_skipped_ = 0;
  uint64_t lazy_decodes_avoided_ = 0;
  uint64_t rows_deleted_skipped_ = 0;
  uint64_t metadata_cache_hits_ = 0;
  uint64_t metadata_cache_misses_ = 0;
};

OrcReader::OrcReader(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
OrcReader::~OrcReader() = default;

Result<std::unique_ptr<OrcReader>> OrcReader::Open(dfs::FileSystem* fs,
                                                   const std::string& path,
                                                   OrcReadOptions options) {
  MINIHIVE_ASSIGN_OR_RETURN(
      std::shared_ptr<dfs::ReadableFile> file,
      fs->Open(path, options.counters != nullptr ? &options.counters->bytes_read
                                                 : nullptr));
  auto impl =
      std::make_unique<Impl>(fs, path, std::move(file), std::move(options));
  MINIHIVE_RETURN_IF_ERROR(impl->Open());
  return std::unique_ptr<OrcReader>(new OrcReader(std::move(impl)));
}

const FileTail& OrcReader::tail() const { return impl_->tail(); }
const TypePtr& OrcReader::schema() const { return impl_->tail().schema; }

Result<bool> OrcReader::NextRow(Row* row) { return impl_->NextRow(row); }

Result<std::unique_ptr<vec::VectorizedRowBatch>> OrcReader::CreateBatch()
    const {
  return impl_->CreateBatch();
}

Result<bool> OrcReader::NextBatch(vec::VectorizedRowBatch* batch) {
  return impl_->NextBatch(batch);
}

uint64_t OrcReader::stripes_read() const { return impl_->stripes_read(); }
uint64_t OrcReader::stripes_skipped() const {
  return impl_->stripes_skipped();
}
uint64_t OrcReader::groups_read() const { return impl_->groups_read(); }
uint64_t OrcReader::groups_skipped() const { return impl_->groups_skipped(); }
uint64_t OrcReader::rows_late_skipped() const {
  return impl_->rows_late_skipped();
}
uint64_t OrcReader::lazy_decodes_avoided() const {
  return impl_->lazy_decodes_avoided();
}
uint64_t OrcReader::rows_deleted_skipped() const {
  return impl_->rows_deleted_skipped();
}
bool OrcReader::tail_cache_hit() const { return impl_->tail_cache_hit(); }

}  // namespace minihive::orc
