// The one true cutter automaton.
//
// detail::StreamCutter runs the trigger-run -> gap-merge -> length-floor
// state machine over C synchronized channels, buffering only the open
// ensemble and the merge-gap lookahead. It is the single implementation of
// the paper's cutter semantics: the sessions' one extraction loop
// (MultiStreamSession; StreamSession is its C = 1 case) and the river
// operator CutterOp both delegate to it, so the operator path and the
// sessions cannot diverge (tests/test_core_ops.cpp proves them
// bit-identical under every chunking).
//
// Every sample it buffers goes through ts::finite_or_zero, the rule the
// scorer applies to what it symbolizes: a NaN or ±inf sample never reaches
// an ensemble, features or MESO.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "ts/anomaly.hpp"

namespace dynriver::core::detail {

/// The trigger-run -> gap-merge -> length-floor automaton over C
/// synchronized channels, buffering only the open ensemble and the merge
/// gap.
class StreamCutter {
 public:
  StreamCutter(std::size_t channels, std::size_t merge_gap_samples,
               std::size_t min_ensemble_samples);

  /// Feed one frame: the trigger value plus one sample per channel
  /// (`frame[c]`, c < channels). Header-inline so the per-sample fast path
  /// (background sample, nothing open: two branches) fuses into the
  /// caller's loop; the triggered/pending paths are outlined.
  void step(bool trig, const float* frame) {
    const std::size_t i = pos_++;
    if (trig) {
      step_triggered(i, frame);
      return;
    }
    if (cutting_) {
      cutting_ = false;
      pending_ = true;
    }
    if (pending_) {
      for (std::size_t c = 0; c < channels_; ++c) {
        gaps_[c].push_back(ts::finite_or_zero(frame[c]));
      }
      // Gap too wide to merge: the ensemble's fate is decided now, so it
      // emits immediately instead of waiting for end of stream.
      if (gaps_[0].size() > merge_gap_) finalize();
    }
  }

  /// Batch twin of step(): feed `len` consecutive frames that all share one
  /// trigger value — `channels[c] + offset` points at channel c's first
  /// sample. Bit-identical to `len` single steps, but the open ensemble and
  /// merge gap grow by bulk range inserts instead of per-sample push_back,
  /// which is what keeps batch extraction at range-slicing speed: trigger
  /// runs are thousands of samples long, so callers flush per *run*, not
  /// per sample (see MultiStreamSession::push).
  void step_run(bool trig, const float* const* channels, std::size_t offset,
                std::size_t len);

  /// End of stream: close the open run, decide the pending ensemble.
  void finish();
  void reset();

  /// True between ensembles: no open run, no pending merge decision. The
  /// safe boundary for re-parameterization — set_bounds() here cannot
  /// retroactively change any in-flight ensemble's fate.
  [[nodiscard]] bool idle() const { return !cutting_ && !pending_; }

  /// Re-parameterize the automaton. Callers re-tuning a live stream should
  /// wait for idle() (MultiStreamSession::reconfigure does); changing bounds
  /// mid-ensemble legally applies the new values to the open decision.
  void set_bounds(std::size_t merge_gap_samples,
                  std::size_t min_ensemble_samples) {
    merge_gap_ = merge_gap_samples;
    min_len_ = min_ensemble_samples;
  }

  struct Cut {
    std::size_t start_sample = 0;
    std::vector<std::vector<float>> channels;  ///< equal-length cuts
  };
  /// Oldest completed ensemble, if any.
  [[nodiscard]] std::optional<Cut> pop();
  [[nodiscard]] std::size_t ready() const { return ready_.size(); }

  /// Per-channel samples currently buffered (open ensemble + merge gap +
  /// undrained cuts) — the quantity the bounded-memory soak test pins down.
  [[nodiscard]] std::size_t buffered_samples() const;

 private:
  /// Absorb a pending merge gap or open a fresh run starting at frame `i`
  /// — the one copy of the re-fire/start bookkeeping shared by step() and
  /// step_run().
  void open_run(std::size_t i);
  void step_triggered(std::size_t i, const float* frame);
  void finalize();

  std::size_t channels_;
  std::size_t merge_gap_;
  std::size_t min_len_;
  std::size_t pos_ = 0;  ///< absolute index of the next frame
  bool cutting_ = false;
  bool pending_ = false;
  std::size_t start_ = 0;
  std::vector<std::vector<float>> bufs_;  ///< open ensemble, per channel
  std::vector<std::vector<float>> gaps_;  ///< merge-gap lookahead, per channel
  std::deque<Cut> ready_;
};

}  // namespace dynriver::core::detail
