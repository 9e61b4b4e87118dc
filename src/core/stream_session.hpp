// Push-based streaming extraction sessions.
//
// MultiStreamSession runs the znorm/SAX/bitmap/trigger/cutter automaton
// incrementally over C synchronized channels: one scorer per channel, the
// smoothed scores fused in fixed channel order, one shared trigger and
// cutter. push() accepts any chunking of the signal — whole clip,
// record-size blocks, single samples — and completed ensembles become
// available the moment their trigger closes (plus the merge-gap lookahead).
// Memory is bounded by O(anomaly window + open ensemble + merge gap) per
// channel, never O(stream), so days of audio stream through a fixed
// footprint.
//
// StreamSession is the paper's single-signal session: a MultiStreamSession
// with C = 1, whose fused score is the channel's own score bit for bit. Its
// push() and drain() only adapt the one-channel spans and ensembles.
//
// Contract: for every chunking, the ensembles, scores, and trigger series
// are bit-identical to the batch facades — EnsembleExtractor::extract and
// MultiStreamExtractor::extract are themselves thin wrappers over sessions
// (tests/test_core_stream.cpp sweeps chunk sizes including 1).
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/features.hpp"
#include "core/multistream.hpp"
#include "core/ops_anomaly.hpp"
#include "core/params.hpp"
#include "core/stream_cutter.hpp"
#include "river/sample_io.hpp"
#include "ts/anomaly.hpp"

namespace dynriver::core {

/// Bounded history of the per-sample score + trigger signals (Fig. 6 taps).
/// A flat-vector ring: long-running sessions retain the most recent
/// `capacity` samples instead of growing a per-sample vector for the
/// stream's lifetime; kUnbounded opts into full history (plain appends, the
/// batch facade's keep_signals).
class SignalTap {
 public:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  explicit SignalTap(std::size_t capacity = 0) : capacity_(capacity) {}

  void push(float score, bool trig) {
    ++total_;
    if (capacity_ == 0) return;
    if (scores_.size() < capacity_) {  // filling (or unbounded: always)
      scores_.push_back(score);
      trigger_.push_back(trig ? 1 : 0);
      return;
    }
    scores_[head_] = score;  // full ring: overwrite the oldest
    trigger_[head_] = trig ? 1 : 0;
    if (++head_ == capacity_) head_ = 0;
  }
  void reset();

  [[nodiscard]] bool enabled() const { return capacity_ != 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Absolute sample index of the oldest retained entry.
  [[nodiscard]] std::size_t first_index() const { return total_ - scores_.size(); }
  /// Total samples ever observed (== the session's consumed count).
  [[nodiscard]] std::size_t end_index() const { return total_; }
  [[nodiscard]] std::size_t size() const { return scores_.size(); }

  /// Copies of the retained window, oldest first.
  [[nodiscard]] std::vector<float> scores() const;
  [[nodiscard]] std::vector<std::uint8_t> trigger() const;

 private:
  std::size_t capacity_;
  std::size_t total_ = 0;
  std::size_t head_ = 0;  ///< oldest entry once the ring is full
  std::vector<float> scores_;
  std::vector<std::uint8_t> trigger_;
};

/// True when `a` and `b` differ only in the trigger/cutter decision
/// parameters (sigma, baseline, hold, merge gap, length floor) — the
/// precondition of MultiStreamSession::reconfigure. Everything upstream of the
/// trigger (scoring) and downstream of the cutter (spectral featurization)
/// is immutable for the life of a session.
[[nodiscard]] bool reconfigure_compatible(const PipelineParams& a,
                                          const PipelineParams& b);

/// Observation knobs shared by the streaming sessions.
struct SessionOptions {
  /// Ring capacity (in samples) of the score/trigger tap; 0 disables the
  /// tap, SignalTap::kUnbounded keeps full history (batch keep_signals).
  std::size_t tap_capacity = 0;
  /// Optional per-sample observer (absolute index, smoothed score,
  /// trigger) — a zero-memory alternative to the tap for live telemetry.
  std::function<void(std::size_t, float, bool)> on_signal;
};

/// Multi-channel streaming extraction session: one scorer per synchronized
/// stream, fused score (max/mean in fixed channel order), one shared trigger
/// and cutter — identical boundaries across channels (see
/// core/multistream.hpp).
class MultiStreamSession {
 public:
  /// `engine` lets the session share one SpectralEngine with other spectral
  /// consumers; nullptr builds a private engine from `params.base`.
  explicit MultiStreamSession(
      MultiStreamParams params, std::size_t channels,
      SessionOptions options = {},
      std::shared_ptr<const SpectralEngine> engine = nullptr);

  /// Push the next chunk of every channel (chunks.size() == channels(),
  /// all the same length, any length including 1). Returns the number of
  /// completed ensembles now waiting in drain().
  std::size_t push(std::span<const std::span<const float>> chunks);

  /// Move out the completed ensembles, oldest first.
  [[nodiscard]] std::vector<MultiEnsemble> drain();

  /// End of stream: closes the open run, decides the pending ensemble, and
  /// returns every remaining ensemble (earlier undrained ones included).
  [[nodiscard]] std::vector<MultiEnsemble> finish();

  /// Restart for a new stream: extraction state, taps, and counters clear;
  /// the engine, plans, and window tables are reused.
  void reset();

  /// Live re-parameterization: adopt new trigger / merge-gap / length-floor
  /// parameters for every channel without restarting the stream. The scorer
  /// and spectral configuration (sample rate, anomaly params, DFT/pattern
  /// settings) must be unchanged — swapping those would discard the warmed
  /// automata — and the fusion rule stays fixed.
  ///
  /// The new parameters take effect at the next safe automaton boundary:
  /// immediately when the cutter is idle (no open or pending ensemble),
  /// otherwise at the first sample after the in-flight ensemble's fate is
  /// decided — the open ensemble is neither lost nor re-judged under the new
  /// rules. From that boundary on, behaviour is bit-identical to a session
  /// that had been constructed with the new parameters and fed the same
  /// stream (tests/test_core_stream.cpp pins this).
  void reconfigure(const PipelineParams& params);

  /// True while a reconfigure() is waiting for the ensemble boundary.
  [[nodiscard]] bool reconfigure_pending() const {
    return pending_params_.has_value();
  }

  /// Per-channel spectral patterns of one multi-ensemble.
  [[nodiscard]] std::vector<std::vector<std::vector<float>>> featurize(
      const MultiEnsemble& ensemble) const;

  [[nodiscard]] std::size_t channels() const { return scorers_.size(); }
  [[nodiscard]] std::size_t samples_consumed() const { return consumed_; }
  /// Non-finite samples read as 0.0f (ts::finite_or_zero), all channels.
  [[nodiscard]] std::size_t samples_replaced() const;
  /// Per-channel samples currently buffered inside the session (open
  /// ensemble + merge gap + undrained ensembles). Bounded for any stream
  /// length.
  [[nodiscard]] std::size_t buffered_samples() const {
    return cutter_.buffered_samples();
  }
  [[nodiscard]] const SignalTap& tap() const { return tap_; }
  [[nodiscard]] const MultiStreamParams& params() const { return params_; }
  /// The spectral front end behind featurize(), on engine().
  [[nodiscard]] const FeatureExtractor& features() const { return features_; }
  [[nodiscard]] const std::shared_ptr<const SpectralEngine>& engine() const {
    return features_.engine();
  }

 private:
  /// The extraction loop: score, fuse, trigger and cut frames
  /// [offset, offset + n) of `chunks`.
  void extract_frames(std::span<const std::span<const float>> chunks,
                      std::size_t offset, std::size_t n);
  void apply_reconfigure();

  MultiStreamParams params_;
  SessionOptions options_;
  FeatureExtractor features_;  ///< shares the engine; powers featurize()
  std::vector<ts::StreamingAnomalyScorer> scorers_;
  TriggerState trigger_;
  detail::StreamCutter cutter_;
  SignalTap tap_;
  std::size_t consumed_ = 0;
  std::vector<const float*> channel_data_;   ///< hoisted chunk pointers
  /// Per-channel scratch blocks for the scorers' batched scores (flat,
  /// channels x block), allocated once scores are fused or observed.
  std::vector<double> score_block_;
  /// Parameters adopted at the next ensemble boundary (live reconfigure).
  std::optional<PipelineParams> pending_params_;
};

/// Single-signal streaming extraction session: the C = 1 MultiStreamSession.
/// Every member forwards to it with the MultiStreamSession meaning; push()
/// takes the one channel's chunk, drain()/finish() return its ensembles.
class StreamSession {
 public:
  using Options = SessionOptions;

  /// `engine` lets the session share one SpectralEngine with other spectral
  /// consumers; nullptr builds a private engine from `params`.
  explicit StreamSession(PipelineParams params, Options options = {},
                         std::shared_ptr<const SpectralEngine> engine = nullptr);

  std::size_t push(std::span<const float> samples) {
    const std::span<const float> chunks[] = {samples};
    return session_.push(chunks);
  }
  [[nodiscard]] std::vector<river::Ensemble> drain() {
    return single_channel(session_.drain());
  }
  [[nodiscard]] std::vector<river::Ensemble> finish() {
    return single_channel(session_.finish());
  }
  void reset() { session_.reset(); }
  void reconfigure(const PipelineParams& params) { session_.reconfigure(params); }
  [[nodiscard]] bool reconfigure_pending() const {
    return session_.reconfigure_pending();
  }

  /// Spectral patterns of one extracted ensemble through the shared engine.
  [[nodiscard]] std::vector<std::vector<float>> featurize(
      const river::Ensemble& ensemble) const {
    return session_.features().patterns(ensemble.samples);
  }

  [[nodiscard]] std::size_t samples_consumed() const {
    return session_.samples_consumed();
  }
  [[nodiscard]] std::size_t samples_replaced() const {
    return session_.samples_replaced();
  }
  [[nodiscard]] std::size_t buffered_samples() const {
    return session_.buffered_samples();
  }
  [[nodiscard]] const SignalTap& tap() const { return session_.tap(); }
  [[nodiscard]] const PipelineParams& params() const {
    return session_.params().base;
  }
  [[nodiscard]] const std::shared_ptr<const SpectralEngine>& engine() const {
    return session_.engine();
  }

 private:
  static std::vector<river::Ensemble> single_channel(
      std::vector<MultiEnsemble> ensembles);

  MultiStreamSession session_;
};

/// Pump a source through a session into a sink in `chunk_samples` blocks
/// (0 = params().record_size). Completed ensembles are delivered after each
/// chunk; finish() is forwarded at end of source.
struct StreamPumpStats {
  std::size_t samples_in = 0;
  std::size_t ensembles_out = 0;
  /// Largest session buffer observed between chunks (bounded-memory audit).
  std::size_t peak_buffered_samples = 0;
};
StreamPumpStats run_stream(river::SampleSource& source, StreamSession& session,
                           river::EnsembleSink& sink,
                           std::size_t chunk_samples = 0);

}  // namespace dynriver::core
