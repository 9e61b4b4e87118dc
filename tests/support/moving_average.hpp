// The smoothing oracle: the run-length-encoded moving average the anomaly
// scorer used before its block kernel fused smoothing into one loop
// (ts::StreamingAnomalyScorer::Cursor). Nothing in src/ calls it. The
// kernel bit-identity tests smooth raw scores through it, and its own
// tests (test_common) pin it to a plain sample ring. GTest-free.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/contracts.hpp"

namespace dynriver::testsupport {

/// Fixed-capacity moving average over a stream of doubles.
///
/// Matches the paper's `saxanomaly` smoothing stage: "The moving average
/// window size specifies the number of anomaly scores to use for computing a
/// mean anomaly score".  Until the window fills, the average is over the
/// values seen so far.
class MovingAverage {
 public:
  explicit MovingAverage(std::size_t window)
      : window_(window), run_cap_(window + 1), tail_(window) {
    DR_EXPECTS(window >= 1);
    // Capacity for the distinct-consecutive-values worst case (every sample
    // its own run); only ~window/run_length entries are ever touched when
    // the input is frame-constant.
    runs_.assign(run_cap_, Run{0.0, 0});
  }

  /// Push a value and return the current windowed mean. Header-inline: the
  /// anomaly scorer calls this once per input sample, and the outlined call
  /// was a measurable slice of per-sample extraction cost.
  ///
  /// The window contents live as a FIFO ring of (value, count) runs rather
  /// than one slot per sample: the anomaly scorer smooths a raw score that
  /// only changes once per energy frame, so a 2250-sample window is a
  /// couple of dozen runs (~1.5 KiB touched instead of an 18 KiB sample
  /// ring that thrashes L1 when several scorers interleave). Eviction pops
  /// samples off the oldest run; the per-step arithmetic — sum_ minus the
  /// evicted value plus the new one, then a reciprocal multiply — is
  /// exactly the sample-ring sequence, so outputs are bit-identical for
  /// any input (distinct consecutive values simply become length-1 runs).
  double push(double x) {
    if (size_ == window_) {
      Run& oldest = runs_[head_];
      sum_ -= oldest.value;
      if (--oldest.count == 0) {
        // Conditional wrap instead of % — the integer division is
        // measurable at one call per sample.
        if (++head_ == run_cap_) head_ = 0;
        --n_runs_;
      }
    } else {
      // The divide only happens while the window fills; afterwards every
      // value() is a multiply by the cached reciprocal.
      ++size_;
      inv_size_ = 1.0 / static_cast<double>(size_);
    }
    if (n_runs_ != 0 && runs_[tail_].value == x) {
      ++runs_[tail_].count;
    } else {
      if (++tail_ == run_cap_) tail_ = 0;
      runs_[tail_] = {x, 1};
      ++n_runs_;
    }
    sum_ += x;
    return sum_ * inv_size_;
  }

  /// Push the same value k times, writing the k successive means to out
  /// (static_cast to Out). Exactly k calls of push(x) — the per-step
  /// arithmetic, including rounding order, is identical — with the run
  /// bookkeeping hoisted: the k new samples extend the newest run once,
  /// then evictions drain the oldest runs step by step. The anomaly
  /// scorer's energy mode smooths an unchanged raw score for frame-1
  /// consecutive samples, which is this call.
  template <typename Out>
  void push_run(double x, std::size_t k, Out* out) {
    std::size_t i = 0;
    // While the window is still filling, sizes (and the reciprocal) change
    // per step: take the scalar push.
    for (; i < k && size_ != window_; ++i) out[i] = static_cast<Out>(push(x));
    if (i == k) return;
    std::size_t remaining = k - i;
    if (n_runs_ != 0 && runs_[tail_].value == x) {
      runs_[tail_].count += remaining;
    } else {
      if (++tail_ == run_cap_) tail_ = 0;
      runs_[tail_] = {x, remaining};
      ++n_runs_;
    }
    const double inv = inv_size_;
    while (remaining != 0) {
      Run& oldest = runs_[head_];
      const double evicted = oldest.value;
      const std::size_t take = std::min(remaining, oldest.count);
      for (std::size_t t = 0; t < take; ++t) {
        sum_ -= evicted;
        sum_ += x;
        out[i++] = static_cast<Out>(sum_ * inv);
      }
      oldest.count -= take;
      if (oldest.count == 0) {
        if (++head_ == run_cap_) head_ = 0;
        --n_runs_;
      }
      remaining -= take;
    }
  }

  [[nodiscard]] double value() const {
    if (size_ == 0) return 0.0;
    return sum_ * inv_size_;
  }
  [[nodiscard]] std::size_t window() const { return window_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  void reset() {
    head_ = 0;
    tail_ = run_cap_ - 1;
    n_runs_ = 0;
    size_ = 0;
    sum_ = 0.0;
    inv_size_ = 0.0;
  }

 private:
  struct Run {
    double value;
    std::size_t count;
  };

  std::vector<Run> runs_;  ///< FIFO ring of runs; capacity run_cap_
  std::size_t window_;
  std::size_t run_cap_;    ///< window_ + 1 (distinct values: one run each)
  std::size_t head_ = 0;   ///< oldest run
  std::size_t tail_;       ///< newest run; pre-wrapped so first push lands at 0
  std::size_t n_runs_ = 0;
  std::size_t size_ = 0;   ///< number of buffered samples
  double sum_ = 0.0;
  double inv_size_ = 0.0;  ///< 1.0 / size_; 0 while empty
};

}  // namespace dynriver::testsupport
