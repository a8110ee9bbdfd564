// Return-value coverage, the paper's C.(%) metric.
//
// "The Coverage (C.(%)) subcolumn describes the percentage of the return
// values that we received. 100% indicates that we received all the return
// values." One collector per operation: it samples the operation's return
// register every temporal step and records which documented codes showed up.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace esv::stimulus {

class ReturnCodeCoverage {
 public:
  explicit ReturnCodeCoverage(std::vector<std::uint32_t> expected_codes)
      : expected_(std::move(expected_codes)) {}

  /// Samples one observation; 0 ("no return yet") and undocumented values
  /// are ignored (undocumented values are counted separately as anomalies).
  void observe(std::uint32_t value);

  double percent() const {
    if (expected_.empty()) return 100.0;
    return 100.0 * static_cast<double>(observed_.size()) /
           static_cast<double>(expected_.size());
  }
  bool complete() const { return observed_.size() == expected_.size(); }
  std::size_t observed_count() const { return observed_.size(); }
  const std::set<std::uint32_t>& observed() const { return observed_; }
  /// Non-zero values seen that are NOT in the documented set — a real
  /// specification violation if it ever happens.
  std::uint64_t anomaly_count() const { return anomalies_; }

  /// Merges another collector's observations into this one (campaign-style
  /// aggregation across seeds). Only codes in *this* collector's expected set
  /// count as observed; everything else the other collector saw is folded
  /// into the anomaly count, so merging collectors with mismatched expected
  /// sets cannot inflate the coverage percentage.
  void merge(const ReturnCodeCoverage& other);

  void reset() {
    observed_.clear();
    anomalies_ = 0;
  }

 private:
  std::vector<std::uint32_t> expected_;
  std::set<std::uint32_t> observed_;
  std::uint64_t anomalies_ = 0;
};

}  // namespace esv::stimulus
