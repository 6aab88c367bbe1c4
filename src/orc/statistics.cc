#include "orc/statistics.h"

#include <algorithm>

#include "common/wrap_arith.h"

namespace minihive::orc {

void ColumnStatistics::UpdateInt(int64_t value) {
  ++num_values_;
  if (!has_int_stats_) {
    has_int_stats_ = true;
    int_min_ = int_max_ = value;
    int_sum_ = value;
    return;
  }
  int_min_ = std::min(int_min_, value);
  int_max_ = std::max(int_max_, value);
  // Wrapping sum: overflow merely disables the sum's usefulness; min/max
  // pruning is unaffected.
  int_sum_ = WrapAdd(int_sum_, value);
}

void ColumnStatistics::UpdateDouble(double value) {
  ++num_values_;
  if (!has_double_stats_) {
    has_double_stats_ = true;
    double_min_ = double_max_ = value;
    double_sum_ = value;
    return;
  }
  double_min_ = std::min(double_min_, value);
  double_max_ = std::max(double_max_, value);
  double_sum_ += value;
}

void ColumnStatistics::UpdateString(std::string_view value) {
  ++num_values_;
  total_length_ += value.size();
  if (!has_string_stats_) {
    has_string_stats_ = true;
    string_min_.assign(value);
    string_max_.assign(value);
    return;
  }
  if (value < string_min_) string_min_.assign(value);
  if (value > string_max_) string_max_.assign(value);
}

void ColumnStatistics::Merge(const ColumnStatistics& other) {
  num_values_ += other.num_values_;
  has_null_ = has_null_ || other.has_null_;
  if (other.has_int_stats_) {
    if (!has_int_stats_) {
      has_int_stats_ = true;
      int_min_ = other.int_min_;
      int_max_ = other.int_max_;
      int_sum_ = other.int_sum_;
    } else {
      int_min_ = std::min(int_min_, other.int_min_);
      int_max_ = std::max(int_max_, other.int_max_);
      int_sum_ = WrapAdd(int_sum_, other.int_sum_);
    }
  }
  if (other.has_double_stats_) {
    if (!has_double_stats_) {
      has_double_stats_ = true;
      double_min_ = other.double_min_;
      double_max_ = other.double_max_;
      double_sum_ = other.double_sum_;
    } else {
      double_min_ = std::min(double_min_, other.double_min_);
      double_max_ = std::max(double_max_, other.double_max_);
      double_sum_ += other.double_sum_;
    }
  }
  if (other.has_string_stats_) {
    if (!has_string_stats_) {
      has_string_stats_ = true;
      string_min_ = other.string_min_;
      string_max_ = other.string_max_;
    } else {
      string_min_ = std::min(string_min_, other.string_min_);
      string_max_ = std::max(string_max_, other.string_max_);
    }
  }
  total_length_ += other.total_length_;
}

void ColumnStatistics::Serialize(std::string* out) const {
  uint8_t flags = (has_null_ ? 1 : 0) | (has_int_stats_ ? 2 : 0) |
                  (has_double_stats_ ? 4 : 0) | (has_string_stats_ ? 8 : 0);
  out->push_back(static_cast<char>(flags));
  PutVarint64(out, num_values_);
  if (has_int_stats_) {
    PutVarintSigned64(out, int_min_);
    PutVarintSigned64(out, int_max_);
    PutVarintSigned64(out, int_sum_);
  }
  if (has_double_stats_) {
    PutDoubleBits(out, double_min_);
    PutDoubleBits(out, double_max_);
    PutDoubleBits(out, double_sum_);
  }
  if (has_string_stats_) {
    PutLengthPrefixed(out, string_min_);
    PutLengthPrefixed(out, string_max_);
    PutVarint64(out, total_length_);
  }
}

Status ColumnStatistics::Deserialize(ByteReader* reader,
                                     ColumnStatistics* stats) {
  stats->Reset();
  uint8_t flags;
  MINIHIVE_RETURN_IF_ERROR(reader->GetByte(&flags));
  stats->has_null_ = (flags & 1) != 0;
  stats->has_int_stats_ = (flags & 2) != 0;
  stats->has_double_stats_ = (flags & 4) != 0;
  stats->has_string_stats_ = (flags & 8) != 0;
  MINIHIVE_RETURN_IF_ERROR(reader->GetVarint64(&stats->num_values_));
  if (stats->has_int_stats_) {
    MINIHIVE_RETURN_IF_ERROR(reader->GetVarintSigned64(&stats->int_min_));
    MINIHIVE_RETURN_IF_ERROR(reader->GetVarintSigned64(&stats->int_max_));
    MINIHIVE_RETURN_IF_ERROR(reader->GetVarintSigned64(&stats->int_sum_));
  }
  if (stats->has_double_stats_) {
    MINIHIVE_RETURN_IF_ERROR(reader->GetDoubleBits(&stats->double_min_));
    MINIHIVE_RETURN_IF_ERROR(reader->GetDoubleBits(&stats->double_max_));
    MINIHIVE_RETURN_IF_ERROR(reader->GetDoubleBits(&stats->double_sum_));
  }
  if (stats->has_string_stats_) {
    std::string_view v;
    MINIHIVE_RETURN_IF_ERROR(reader->GetLengthPrefixed(&v));
    stats->string_min_.assign(v);
    MINIHIVE_RETURN_IF_ERROR(reader->GetLengthPrefixed(&v));
    stats->string_max_.assign(v);
    MINIHIVE_RETURN_IF_ERROR(reader->GetVarint64(&stats->total_length_));
  }
  return Status::OK();
}

std::string ColumnStatistics::ToString() const {
  std::string s = "count=" + std::to_string(num_values_);
  if (has_null_) s += " hasNull";
  if (has_int_stats_) {
    s += " int[" + std::to_string(int_min_) + "," + std::to_string(int_max_) +
         "] sum=" + std::to_string(int_sum_);
  }
  if (has_double_stats_) {
    s += " double[" + std::to_string(double_min_) + "," +
         std::to_string(double_max_) + "] sum=" + std::to_string(double_sum_);
  }
  if (has_string_stats_) {
    s += " string[" + string_min_ + "," + string_max_ +
         "] len=" + std::to_string(total_length_);
  }
  return s;
}

}  // namespace minihive::orc
