// The per-sample extraction oracle: one sample at a time through
// ts::StreamingAnomalyScorer::push (for its raw score), the smoothing
// oracle MovingAverage::push, core::TriggerState::push and the cutter's
// single-sample step — the path the sessions took before the scorer's block
// kernel fused smoothing and trigger into one loop. The kernel tests hold
// every session to it bit for bit. Live reconfigure follows the session
// contract: the new rules land before the first sample at which the cutter
// is idle. Header-only and GTest-free.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/ops_anomaly.hpp"
#include "core/params.hpp"
#include "core/stream_cutter.hpp"
#include "moving_average.hpp"
#include "river/sample_io.hpp"
#include "ts/anomaly.hpp"

namespace dynriver::testsupport {

class ExtractionOracle {
 public:
  explicit ExtractionOracle(const core::PipelineParams& params)
      : scorer_(params.anomaly),
        ma_(params.anomaly.ma_window),
        trigger_(params.trigger_sigma, params.trigger_min_baseline,
                 params.trigger_hold_samples),
        cutter_(1, params.merge_gap_samples, params.min_ensemble_samples) {}

  void push(std::span<const float> xs) {
    for (const float x : xs) {
      if (pending_ && cutter_.idle()) apply();
      scorer_.push(x);
      const double score = ma_.push(scorer_.raw_score());
      const bool trig = trigger_.push(score);
      scores_.push_back(static_cast<float>(score));
      trigger_series_.push_back(trig ? 1 : 0);
      cutter_.step(trig, &x);
      drain();
    }
  }

  void reconfigure(const core::PipelineParams& params) {
    pending_ = params;
    if (cutter_.idle()) apply();
  }

  void finish() {
    cutter_.finish();
    if (pending_) apply();
    drain();
  }

  [[nodiscard]] const std::vector<river::Ensemble>& ensembles() const {
    return ensembles_;
  }
  [[nodiscard]] const std::vector<float>& scores() const { return scores_; }
  [[nodiscard]] const std::vector<std::uint8_t>& trigger() const {
    return trigger_series_;
  }

 private:
  void apply() {
    const core::PipelineParams& p = *pending_;
    trigger_.set_thresholding(p.trigger_sigma, p.trigger_min_baseline,
                              p.trigger_hold_samples);
    cutter_.set_bounds(p.merge_gap_samples, p.min_ensemble_samples);
    pending_.reset();
  }

  void drain() {
    while (auto cut = cutter_.pop()) {
      ensembles_.push_back(
          {cut->start_sample, std::move(cut->channels.front())});
    }
  }

  ts::StreamingAnomalyScorer scorer_;
  MovingAverage ma_;
  core::TriggerState trigger_;
  core::detail::StreamCutter cutter_;
  std::optional<core::PipelineParams> pending_;
  std::vector<float> scores_;
  std::vector<std::uint8_t> trigger_series_;
  std::vector<river::Ensemble> ensembles_;
};

}  // namespace dynriver::testsupport
