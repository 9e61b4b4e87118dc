// SAX-bitmap anomaly scoring over streams (paper, Sections 2-3).
//
// Two adjacent windows slide over the signal: a *lag* window (recent past)
// and a *lead* window (most recent samples). Each window is summarized by a
// SAX bitmap; the anomaly score is the Euclidean distance between the two
// frequency matrices. A moving average smoothes score spikes into a window
// of anomalous behaviour usable by the trigger/cutter operators. The score
// rises when the signal's symbolic texture changes -- e.g. when a bird
// vocalization starts against background noise -- and falls when behaviour
// becomes homogeneous again.
//
// Paper defaults: anomaly window 100 samples, alphabet 8, moving average
// window 2250 scores.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "ts/sax.hpp"
#include "ts/znorm.hpp"

namespace dynriver::ts {

struct AnomalyParams {
  std::size_t window = 100;      ///< symbols per bitmap window
  std::size_t alphabet = 8;      ///< SAX alphabet size
  std::size_t level = 2;         ///< bitmap subword length (1..3 typical)
  std::size_t ma_window = 2250;  ///< moving-average smoothing window (samples)
  /// Samples aggregated into one SAX symbol. With frame == 1 the raw sample
  /// value is symbolized (classic SAX texture). With frame > 1 each symbol
  /// encodes the log-RMS energy of a frame -- for audio this makes
  /// background noise concentrate into few symbols (low, stable score)
  /// while the on/off syllable structure of vocalizations keeps the lag and
  /// lead windows differing for the duration of the event.
  std::size_t frame = 1;

  void validate() const;

  friend bool operator==(const AnomalyParams&, const AnomalyParams&) = default;
};

/// The sample-hygiene rule of every extraction path: a NaN or ±inf sample
/// reads as 0.0f (finite values, denormals included, pass unchanged). The
/// scorer applies it to what it symbolizes and the cutter to what it cuts,
/// so one bad sample costs a blip, not the rest of the stream.
[[nodiscard]] inline float finite_or_zero(float x) {
  return std::isfinite(x) ? x : 0.0F;
}

/// Streaming scorer: O(1) amortized per sample — the lag/lead bitmap
/// distance is maintained incrementally (see push_symbol_value) instead of
/// being recomputed over all alphabet^level cells per symbol.
///
/// One block kernel, push_block(), drives every entry point. Its frame pass
/// folds each whole frame into its raw bitmap score; then one loop smooths
/// each sample and hands the smoothed score straight to the caller's
/// consumer, so no score block is written unless the consumer writes one.
class StreamingAnomalyScorer {
 public:
  explicit StreamingAnomalyScorer(const AnomalyParams& params);

  /// The smoothing state, held in the caller's locals for one block.
  /// next() is the moving-average step of the next sample: drop the evicted
  /// raw score, add the sample's, multiply by the cached reciprocal — the
  /// sample-ring arithmetic in its order, so bit-identical to a per-sample
  /// moving average. Raw scores change once per frame, so the window's
  /// history is a ring of per-frame scores (slot k mod cap: after frame k).
  class Cursor {
   public:
    double next() {
      if (++fill_ == frame_) {  // this sample completes a frame
        fill_ = 0;
        x_ = *raw_++;
        if (++slot_ == cap_) slot_ = 0;
        ring_[slot_] = x_;
      }
      if (size_ == window_) {
        // The evicted sample (W back) completes its frame exactly when
        // this one sits at phase W mod frame.
        if (fill_ == evict_phase_ && ++evict_ == cap_) evict_ = 0;
        sum_ -= ring_[evict_];
      } else {
        // The divide only happens while the window fills; afterwards every
        // step is a multiply by the cached reciprocal.
        ++size_;
        inv_ = 1.0 / static_cast<double>(size_);
      }
      sum_ += x_;
      return sum_ * inv_;
    }

   private:
    friend class StreamingAnomalyScorer;
    const double* raw_ = nullptr;  ///< scores of the frames the block ends
    double* ring_ = nullptr;
    std::size_t frame_ = 1, cap_ = 1, window_ = 1, evict_phase_ = 0;
    std::size_t fill_ = 0, slot_ = 0, evict_ = 0, size_ = 0;
    double x_ = 0.0, sum_ = 0.0, inv_ = 0.0;
  };

  /// The block kernel: score x[0, n) and pass the n smoothed scores, in
  /// order, to `consume(Cursor& cursor, std::size_t m)`, which must call
  /// cursor.next() exactly m times (the m sum to n). The consumer is
  /// inlined, so a caller fusing its own per-sample work (the session's
  /// trigger) keeps all state in registers. Bit-identical for every
  /// chunking down to single samples.
  template <typename Consumer>
  void push_block(const float* x, std::size_t n, Consumer&& consume) {
    while (n != 0) {
      smoothing_.fill_ = frame_fill_;
      const std::size_t m = fold_frames(x, n);
      Cursor cursor = smoothing_;
      cursor.raw_ = raw_block_.data();
      cursor.ring_ = ring_.data();
      consume(cursor, m);
      smoothing_ = cursor;
      x += m;
      n -= m;
    }
  }

  /// Feed one raw sample; returns the *smoothed* anomaly score aligned with
  /// this sample (0 until both windows have filled).
  double push(float sample) {
    double score = 0.0;
    push_block(&sample, 1, [&score](Cursor& cursor, std::size_t) {
      score = cursor.next();
    });
    return score;
  }

  /// Feed n samples, writing the n smoothed scores to out (double, or float
  /// for the record-pipeline layout).
  template <typename Out>
  void push_batch(const float* x, std::size_t n, Out* out) {
    push_block(x, n, [&out](Cursor& cursor, std::size_t m) {
      for (std::size_t j = 0; j < m; ++j) {
        *out++ = static_cast<Out>(cursor.next());
      }
    });
  }

  /// Last unsmoothed bitmap distance.
  [[nodiscard]] double raw_score() const { return raw_score_; }

  /// True once lag and lead windows are both full.
  [[nodiscard]] bool warmed_up() const {
    return lag_total_ == grams_per_window_ && lead_total_ == grams_per_window_;
  }

  /// Non-finite samples read as 0.0f since construction or reset().
  [[nodiscard]] std::size_t samples_replaced() const { return replaced_; }

  [[nodiscard]] const AnomalyParams& params() const { return params_; }

  /// Clear all state (start of a new clip).
  void reset();

 private:
  /// Frames completed per fold_frames() call: bounds raw_block_.
  static constexpr std::size_t kFrameBlock = 256;

  /// The frame pass: consume a prefix of x[0, n) — a buffered frame's
  /// remainder, up to kFrameBlock frame completions in all, and a final
  /// partial frame — writing each completed frame's raw score to
  /// raw_block_ in order. Returns the samples consumed (at least 1).
  std::size_t fold_frames(const float* x, std::size_t n);
  /// Append x[0, n) to the partial frame, applying finite_or_zero.
  void buffer_samples(const float* x, std::size_t n);
  void push_symbol_value(float value);
  /// Shift cell's (lag count - lead count) by delta, keeping the integer
  /// squared-difference sum exact.
  void cell_delta(std::size_t cell, std::int64_t delta) {
    // (d + delta)^2 - d^2 = delta * (2d + delta), all in exact integers.
    std::int64_t& d = diff_[cell];
    sq_sum_ += delta * (2 * d + delta);
    d += delta;
  }

  AnomalyParams params_;
  std::vector<double> breakpoints_;
  StreamingZnorm znorm_;
  std::size_t grams_per_window_;
  std::size_t top_weight_ = 1;  ///< alphabet^(level-1): oldest symbol's weight
  std::size_t gram_ = 0;       ///< rolling cell index of the newest gram
  std::size_t history_ = 0;    ///< recent symbols, one byte each, newest low
  std::size_t symbols_ = 0;    ///< symbols seen, saturating at level
  // Gram cells of both windows, oldest first: a ring of 2 windows + 1.
  std::vector<std::size_t> cells_;
  std::size_t cells_head_ = 0;
  std::size_t cells_size_ = 0;
  std::size_t lag_total_ = 0;
  std::size_t lead_total_ = 0;
  // Incremental distance state: diff_[c] = lag count - lead count of cell c,
  // sq_sum_ = sum of diff^2 — both exact integers, so the incremental score
  // never drifts from a full recomputation no matter how long the stream.
  std::vector<std::int64_t> diff_;
  std::int64_t sq_sum_ = 0;
  double raw_score_ = 0.0;
  std::size_t replaced_ = 0;
  // Samples of the partially filled frame (or of a frame re-folded after a
  // non-finite sample), buffered so the energy fold runs through the same
  // dsp::simd kernel (same operation order) whether a frame arrives whole
  // or in pieces across calls.
  std::vector<float> frame_buf_;
  std::size_t frame_fill_ = 0;
  std::vector<double> raw_block_;  ///< kFrameBlock frame scores
  /// The per-frame score ring: ceil(ma_window / frame) + 1 slots.
  std::vector<double> ring_;
  Cursor smoothing_;  ///< the smoothing state between blocks
};

/// Batch convenience: smoothed score per sample (same length as input).
[[nodiscard]] std::vector<double> anomaly_scores(std::span<const float> series,
                                                 const AnomalyParams& params);

}  // namespace dynriver::ts
