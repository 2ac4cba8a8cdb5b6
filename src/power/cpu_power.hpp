// CPU power model: the paper's Eq. (1), P ≈ A·C·V²·f, plus a leakage floor.
//
// Power is split into a dynamic part that scales with activity·V²·f and a
// leakage part that scales with V².  Both are normalized against the top
// operating point of the model's table.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "cpu/operating_point.hpp"

namespace pcd::power {

struct CpuPowerParams {
  /// Core dynamic power at the top operating point with activity 1.0
  /// (scales with V²·f — the paper's Eq. 1).
  double dynamic_watts_max = 17.5;
  /// Clock-distribution / I/O dynamic power at the top point (runs from a
  /// fixed auxiliary rail, so it scales with f only).
  double clock_watts_max = 2.9;
  /// Leakage at the top operating point's voltage (scales with V²).
  double leakage_watts_vmax = 1.8;

  friend bool operator==(const CpuPowerParams&, const CpuPowerParams&) = default;

  /// Busy power at the top operating point (activity 1.0).
  double busy_watts_max() const {
    return dynamic_watts_max + clock_watts_max + leakage_watts_vmax;
  }

  /// Pentium M 1.4 GHz (NEMO node): ~22 W busy at 1.4 GHz / 1.484 V.
  static CpuPowerParams pentium_m() { return CpuPowerParams{14.0, 6.4, 1.8}; }
  /// Pentium III server node for the Figure 1 breakdown: "nearly 45 watts".
  static CpuPowerParams pentium_iii() { return CpuPowerParams{33.0, 5.0, 4.5}; }
};

class CpuPowerModel {
 public:
  /// A model over `table`, normalized against its highest point.  Each
  /// point's leakage term L[i] and activity slope D[i] are precomputed, so
  /// watts_at(i, a) = L[i] + a * D[i] is one multiply and one add.
  CpuPowerModel(CpuPowerParams params, cpu::OperatingPointTable table)
      : params_(params), table_(std::move(table)) {
    coeffs_.reserve(table_.size());
    for (const cpu::OperatingPoint& op : table_.points()) {
      const double vr = op.voltage / top().voltage;
      const double fr = static_cast<double>(op.freq_mhz) / top().freq_mhz;
      // The same operations, in the same order, as watts(): the cached
      // form is bit-identical to it.
      coeffs_.push_back({params_.leakage_watts_vmax * vr * vr,
                         params_.dynamic_watts_max * vr * vr * fr + params_.clock_watts_max * fr});
    }
  }

  /// Instantaneous CPU power at `op` with power activity factor `activity`.
  double watts(const cpu::OperatingPoint& op, double activity) const {
    const double vr = op.voltage / top().voltage;
    const double fr = static_cast<double>(op.freq_mhz) / top().freq_mhz;
    return params_.leakage_watts_vmax * vr * vr +
           activity * (params_.dynamic_watts_max * vr * vr * fr +
                       params_.clock_watts_max * fr);
  }

  /// watts(table().get(i), activity), from the precomputed coefficients.
  double watts_at(std::size_t i, double activity) const {
    const Coeffs& c = coeffs_[i];
    return c.leakage + activity * c.slope;
  }

  const CpuPowerParams& params() const { return params_; }
  const cpu::OperatingPointTable& table() const { return table_; }
  const cpu::OperatingPoint& top() const { return table_.highest(); }

 private:
  struct Coeffs {
    double leakage;  // L[i] = leak * vr * vr
    double slope;    // D[i] = dyn * vr * vr * fr + clock * fr
  };

  CpuPowerParams params_;
  cpu::OperatingPointTable table_;
  std::vector<Coeffs> coeffs_;
};

}  // namespace pcd::power
