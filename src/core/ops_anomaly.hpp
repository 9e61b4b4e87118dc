// The ensemble-extraction segment: saxanomaly -> trigger -> cutter
// (paper, Section 3, Figure 5).
//
// saxanomaly outputs the moving average of the SAX bitmap anomaly score in
// addition to the original acoustic data. trigger transforms the score into
// a discrete 0/1 signal using an adaptive threshold (mu0 + k*sigma0 estimated
// over untriggered scores). cutter consumes both streams and cuts the
// original signal into ensembles delimited by OpenScope/CloseScope pairs of
// scope type `scope_ensemble`, nested inside the clip scope.
#pragma once

#include <cmath>
#include <optional>
#include <vector>

#include "core/params.hpp"
#include "core/stream_cutter.hpp"
#include "river/operator.hpp"
#include "ts/anomaly.hpp"

namespace dynriver::core {

/// saxanomaly: per audio Data record, forwards the original record and emits
/// a parallel kSubtypeAnomalyScore record of smoothed per-sample scores.
/// Scorer state resets at every clip OpenScope. Like the sessions, it scores
/// a NaN or ±inf sample as 0.0f; the forwarded record keeps the raw value.
class SaxAnomalyOp final : public river::Operator {
 public:
  explicit SaxAnomalyOp(const ts::AnomalyParams& params);

  void process(river::Record rec, river::Emitter& out) override;
  [[nodiscard]] std::string_view name() const override { return "saxanomaly"; }

 private:
  ts::StreamingAnomalyScorer scorer_;
};

/// Sample-wise adaptive trigger state machine, shared by the TriggerOp
/// operator and the batch extraction facade.
///
/// mu0/sigma0 are estimated incrementally from scores observed while the
/// trigger is 0; the trigger emits 1 while score > mu0 + sigma_threshold *
/// sigma0 (after a minimum baseline has accumulated).
class TriggerState {
 public:
  /// `hold_samples` keeps the trigger active for that many consecutive
  /// below-threshold samples before releasing -- bridging brief lulls inside
  /// a vocalization (e.g. syllable interiors) so one song cuts as one
  /// ensemble rather than fragments.
  TriggerState(double sigma_threshold, std::size_t min_baseline,
               std::size_t hold_samples = 0);

  /// Feed one (smoothed) anomaly score; returns the trigger value (0 or 1).
  /// Header-inline: one call per sample in every session/operator scoring
  /// loop — outlined, the call plus the baseline update were a measurable
  /// slice of per-sample extraction cost.
  [[nodiscard]] bool push(double score) {
    // The anomaly scorer emits exact zeros until its windows warm up;
    // feeding them into the baseline would zero sigma0 and make the first
    // real score fire the trigger spuriously.
    if (!seen_nonzero_) {
      if (score == 0.0) return false;
      seen_nonzero_ = true;
    }

    // Decision in squared space: score > mu0 + sigma_threshold*sigma0 with
    // d = score - mu0 is (d > 0) && (d^2 * count > sigma_threshold^2 * m2),
    // since sigma0^2 = m2/count. Same decision as the literal formula
    // (both sides non-negative, squaring is monotonic) but division- and
    // sqrt-free — the old per-sample stddev() dominated this loop.
    const double d = score - mean_;
    const bool above = count_ >= min_baseline_ && d > 0.0 &&
                       d * d * static_cast<double>(count_) > sigma_sq_ * m2_;
    if (above) {
      active_ = true;
      below_count_ = 0;
      return true;
    }
    if (active_ && below_count_ < hold_samples_) {
      // Hold: bridge brief lulls without updating the baseline.
      ++below_count_;
      return true;
    }
    // Untriggered scores feed the incremental mu0/sigma0 estimate; scores
    // seen while triggered are deliberately excluded so events do not
    // poison the baseline. Welford, with the divide hoisted out of the
    // mean_ dependency chain: 1/count depends only on the sample counter,
    // so the division pipelines ahead of the serial add+multiply chain
    // instead of stalling it (a measurable slice of per-sample cost).
    active_ = false;
    below_count_ = 0;
    ++count_;
    mean_ += d * (1.0 / static_cast<double>(count_));
    m2_ += d * (score - mean_);
    return false;
  }

  /// Block twin of push(): feed n scores pulled from `next()`; `flip(j)`
  /// marks each j whose output (active() after it) differs from the one
  /// before. Bit-identical to n push() calls, with the state in locals and
  /// the loop split by state, so the hot baseline loop (absorb until a
  /// score exceeds the threshold) has one predictable exit.
  template <typename Next, typename Flip>
  void push_block(std::size_t n, Next&& next, Flip&& flip) {
    const std::size_t min_baseline = min_baseline_;
    const std::size_t hold = hold_samples_;
    const double sigma_sq = sigma_sq_;
    std::size_t count = count_;
    double mean = mean_;
    double m2 = m2_;
    std::size_t below = below_count_;
    bool active = active_;
    const auto exceeds = [&](double d) {  // push()'s squared-space decision
      return count >= min_baseline && d > 0.0 &&
             d * d * static_cast<double>(count) > sigma_sq * m2;
    };
    const auto absorb = [&](double score, double d) {  // push()'s Welford
      ++count;
      mean += d * (1.0 / static_cast<double>(count));
      m2 += d * (score - mean);
    };
    std::size_t j = 0;
    // Warm-up zeros, then the first real score, which is absorbed: with no
    // baseline yet it cannot exceed the threshold.
    for (; j < n && !seen_nonzero_; ++j) {
      const double score = next();
      if (score == 0.0) continue;
      seen_nonzero_ = true;
      absorb(score, score - mean);
    }
    while (j < n) {
      if (!active) {
        for (; j < n; ++j) {
          const double score = next();
          const double d = score - mean;
          if (exceeds(d)) break;
          absorb(score, d);
        }
        if (j == n) break;
        active = true;
      } else {
        for (; j < n; ++j) {
          const double score = next();
          const double d = score - mean;
          if (exceeds(d)) {
            below = 0;
          } else if (below < hold) {
            ++below;  // hold: bridge a brief lull, baseline untouched
          } else {
            absorb(score, d);
            break;
          }
        }
        if (j == n) break;
        active = false;
      }
      below = 0;
      flip(j++);
    }
    count_ = count;
    mean_ = mean;
    m2_ = m2;
    below_count_ = below;
    active_ = active;
  }

  [[nodiscard]] double mu0() const { return mean_; }
  [[nodiscard]] double sigma0() const {
    return count_ < 2 ? 0.0
                      : std::sqrt(m2_ / static_cast<double>(count_));
  }
  [[nodiscard]] bool active() const { return active_; }
  void reset();

  /// Re-tune the decision thresholds while keeping the accumulated
  /// mu0/sigma0 baseline (live session re-parameterization). Callers should
  /// be between trigger runs (active() false) so no run straddles the
  /// old and new rules; StreamSession::reconfigure guarantees that.
  void set_thresholding(double sigma_threshold, std::size_t min_baseline,
                        std::size_t hold_samples);

 private:
  double sigma_sq_;  ///< sigma_threshold^2, for the squared-space decision
  std::size_t min_baseline_;
  std::size_t hold_samples_;
  /// Inline Welford baseline (mu0/sigma0 over untriggered scores). Kept as
  /// raw members rather than a RunningStats so push() can fold the decision
  /// and the update over one shared `d = score - mean_` without an outlined
  /// variance call per sample.
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  bool active_ = false;
  bool seen_nonzero_ = false;  // skip the scorer's warmup zeros
  std::size_t below_count_ = 0;
};

/// trigger: consumes kSubtypeAnomalyScore records (dropping them) and emits
/// kSubtypeTrigger records of equal length with values in {0, 1}. All other
/// records pass through. State resets at every clip OpenScope.
class TriggerOp final : public river::Operator {
 public:
  TriggerOp(double sigma_threshold, std::size_t min_baseline,
            std::size_t hold_samples = 0);

  void process(river::Record rec, river::Emitter& out) override;
  [[nodiscard]] std::string_view name() const override { return "trigger"; }

 private:
  TriggerState state_;
};

/// cutter: pairs audio records with trigger records sample-by-sample and
/// cuts out the stretches where the trigger is 1 as ensembles. Each ensemble
/// is emitted as OpenScope(scope_ensemble) + audio Data records +
/// CloseScope, nested inside the enclosing clip scope. Clip attributes
/// (sample rate, clip id, ground-truth labels) are copied onto each ensemble
/// OpenScope together with its start sample and length; ensembles shorter
/// than `min_ensemble_samples` are suppressed.
///
/// The pending/merge-gap/length-floor decisions are NOT implemented here:
/// the operator delegates to detail::StreamCutter — the same automaton
/// behind StreamSession, which cuts a NaN or ±inf sample as 0.0f — and only
/// handles record pairing, clip scopes, and ensemble serialization. The
/// operator pipeline and the sessions therefore cannot diverge
/// (bit-identity is pinned by tests/test_core_ops.cpp).
class CutterOp final : public river::Operator {
 public:
  explicit CutterOp(const PipelineParams& params);

  void process(river::Record rec, river::Emitter& out) override;
  void flush(river::Emitter& out) override;
  [[nodiscard]] std::string_view name() const override { return "cutter"; }

  /// Total ensembles emitted (across all clips).
  [[nodiscard]] std::size_t ensembles_emitted() const { return ensembles_; }

 private:
  void pump(river::Emitter& out);
  void emit_ready(river::Emitter& out, bool bad);
  void emit_cut(river::Emitter& out, detail::StreamCutter::Cut cut, bool bad);

  PipelineParams params_;
  // Clip context.
  river::AttrMap clip_attrs_;
  std::uint32_t clip_depth_ = 0;
  bool in_clip_ = false;
  // Paired FIFOs (samples).
  std::vector<float> audio_fifo_;
  std::vector<float> trigger_fifo_;
  /// The shared trigger-run -> gap-merge -> length-floor automaton
  /// (reset per clip; its frame index is the clip sample cursor).
  detail::StreamCutter cutter_;
  std::size_t ensembles_ = 0;
  std::uint64_t next_ensemble_id_ = 0;
};

}  // namespace dynriver::core
