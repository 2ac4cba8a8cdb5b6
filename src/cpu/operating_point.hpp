// DVS operating points (frequency / supply-voltage pairs).
//
// The default table is the paper's Table 1: the five Enhanced SpeedStep
// points of the Pentium M 1.4 GHz used in every NEMO node.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

namespace pcd::cpu {

/// One DVS operating point.  DVS changes frequency and voltage together
/// (paper footnote 3); we follow the paper in naming points by frequency.
struct OperatingPoint {
  int freq_mhz = 0;
  double voltage = 0.0;

  friend bool operator==(const OperatingPoint&, const OperatingPoint&) = default;
};

/// An ordered set of operating points (ascending frequency).
///
/// The points are immutable once validated, so copies share one storage
/// block: every Cpu of a cluster holds a copy of its NodeConfig's table,
/// and sharing makes that an 8-byte pointer per node instead of a vector.
class OperatingPointTable {
 public:
  OperatingPointTable() = default;
  // Copy-only: a move would leave the source's data_ pointing into storage
  // it no longer owns, so rvalues copy too (one reference-count bump).
  OperatingPointTable(const OperatingPointTable&) = default;
  OperatingPointTable& operator=(const OperatingPointTable&) = default;

  explicit OperatingPointTable(std::vector<OperatingPoint> points) {
    if (points.empty()) throw std::invalid_argument("empty operating point table");
    std::sort(points.begin(), points.end(),
              [](const OperatingPoint& a, const OperatingPoint& b) {
                return a.freq_mhz < b.freq_mhz;
              });
    for (std::size_t i = 1; i < points.size(); ++i) {
      if (points[i].freq_mhz == points[i - 1].freq_mhz) {
        throw std::invalid_argument("duplicate frequency in operating point table");
      }
      if (points[i].voltage < points[i - 1].voltage) {
        throw std::invalid_argument("voltage must be non-decreasing with frequency");
      }
    }
    storage_ = std::make_shared<const std::vector<OperatingPoint>>(std::move(points));
    data_ = storage_->data();
    size_ = storage_->size();
  }

  /// The paper's Table 1: Pentium M 1.4 GHz SpeedStep points.  Every call
  /// returns a copy of one process-wide table.
  static OperatingPointTable pentium_m_1400() {
    static const OperatingPointTable table({{600, 0.956},
                                            {800, 1.180},
                                            {1000, 1.308},
                                            {1200, 1.436},
                                            {1400, 1.484}});
    return table;
  }

  std::size_t size() const { return size_; }
  const OperatingPoint& at(std::size_t i) const { return points().at(i); }

  /// Unchecked access for hot paths (accounting, power readback) where the
  /// index is a maintained invariant — Cpu validates op_index_ at assignment.
  const OperatingPoint& get(std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  const OperatingPoint& lowest() const { return get(0); }
  const OperatingPoint& highest() const { return get(size_ - 1); }
  const std::vector<OperatingPoint>& points() const {
    static const std::vector<OperatingPoint> kNone;
    return storage_ ? *storage_ : kNone;
  }

  /// Index of the point with exactly this frequency; throws if absent.
  std::size_t index_of(int freq_mhz) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (data_[i].freq_mhz == freq_mhz) return i;
    }
    throw std::invalid_argument("frequency not in operating point table");
  }

  bool contains(int freq_mhz) const {
    return std::any_of(data_, data_ + size_,
                       [freq_mhz](const OperatingPoint& p) { return p.freq_mhz == freq_mhz; });
  }

  /// The lowest point with frequency >= freq_mhz (clamped to the highest).
  std::size_t index_at_least(int freq_mhz) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (data_[i].freq_mhz >= freq_mhz) return i;
    }
    return size_ - 1;
  }

 private:
  std::shared_ptr<const std::vector<OperatingPoint>> storage_;
  const OperatingPoint* data_ = nullptr;  // storage_->data(), for get()
  std::size_t size_ = 0;
};

}  // namespace pcd::cpu
