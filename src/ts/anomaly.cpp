#include "ts/anomaly.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "dsp/simd.hpp"

namespace dynriver::ts {

void AnomalyParams::validate() const {
  DR_EXPECTS(window >= 4);
  DR_EXPECTS(alphabet >= 2 && alphabet <= 64);
  DR_EXPECTS(level >= 1 && level <= 4);
  DR_EXPECTS(window > level);
  DR_EXPECTS(ma_window >= 1);
  DR_EXPECTS(frame >= 1);
}

StreamingAnomalyScorer::StreamingAnomalyScorer(const AnomalyParams& params)
    : params_((params.validate(), params)),  // before any size is derived
      breakpoints_(sax_breakpoints(params.alphabet)),
      grams_per_window_(params.window - params.level + 1),
      cells_(2 * grams_per_window_ + 1),
      frame_buf_(params.frame, 0.0F),
      raw_block_(kFrameBlock),
      // The evicted sample trails the newest by ma_window samples, so the
      // two frames they sit in are at most ceil(ma_window / frame) apart.
      ring_((params.ma_window + params.frame - 1) / params.frame + 1, 0.0) {
  for (std::size_t l = 1; l < params.level; ++l) top_weight_ *= params.alphabet;
  diff_.assign(top_weight_ * params.alphabet, 0);
  smoothing_.frame_ = params.frame;
  smoothing_.cap_ = ring_.size();
  smoothing_.window_ = params.ma_window;
  smoothing_.evict_phase_ = params.ma_window % params.frame;
}

void StreamingAnomalyScorer::buffer_samples(const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(x[i])) ++replaced_;
    frame_buf_[frame_fill_++] = finite_or_zero(x[i]);
  }
}

std::size_t StreamingAnomalyScorer::fold_frames(const float* x, std::size_t n) {
  // One symbol per frame: with frame == 1 the sample value itself (classic
  // SAX texture), otherwise the frame's log-RMS energy. First each frame's
  // fold (the sum of squares runs through the same dsp::simd kernel whether
  // the frame sits in the buffer or whole in x), independent across frames
  // so the folds overlap; then the log-RMS values; then the one sequential
  // pass through the z-norm and bitmap state.
  const std::size_t f = params_.frame;
  const auto fold = [f](const float* frame) {
    return f == 1 ? static_cast<double>(frame[0])
                  : dsp::simd::sum_squares_f32(frame, f);
  };
  double* raw = raw_block_.data();
  std::size_t i = 0;
  std::size_t k = 0;
  if (frame_fill_ != 0) {
    // A frame partially buffered by earlier calls finishes first.
    i = std::min(n, f - frame_fill_);
    buffer_samples(x, i);
    if (frame_fill_ != f) return i;
    raw[k++] = fold(frame_buf_.data());
    frame_fill_ = 0;
  }
  for (; k < kFrameBlock && n - i >= f; ++k, i += f) {
    raw[k] = fold(x + i);
    // A NaN or ±inf sample is the only way to a non-finite fold: finite
    // floats cannot overflow a double sum of squares. Such a frame is
    // folded again from its cleaned copy.
    if (!std::isfinite(raw[k])) {
      buffer_samples(x + i, f);
      frame_fill_ = 0;
      raw[k] = fold(frame_buf_.data());
    }
  }
  if (n - i < f) {  // the input ends inside this frame: buffer it
    buffer_samples(x + i, n - i);
    i = n;
  }
  if (f > 1) {
    const double frame_len = static_cast<double>(f);
    for (std::size_t j = 0; j < k; ++j) {
      const double rms = std::sqrt(raw[j] / frame_len);
      raw[j] = static_cast<float>(std::log(rms + 1e-8));
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    push_symbol_value(static_cast<float>(raw[j]));
    raw[j] = raw_score_;
  }
  return i;
}

void StreamingAnomalyScorer::push_symbol_value(float value) {
  const float z = znorm_.push(value);
  const Symbol sym = discretize_value(static_cast<double>(z), breakpoints_);

  // The newest gram's cell: the trailing `level` symbols, rolled in — the
  // symbol leaving the gram (`level` back, one byte each in history_) is
  // subtracted out, so no division sits on the per-symbol chain.
  const std::size_t shift = 8 * (params_.level - 1);
  const std::size_t leaving = (history_ >> shift) & 0xFFU;
  gram_ = (gram_ - leaving * top_weight_) * params_.alphabet + sym;
  history_ = (history_ << 8) | sym;
  if (symbols_ + 1 < params_.level) {
    ++symbols_;
    raw_score_ = 0.0;
    return;
  }
  symbols_ = params_.level;

  const std::size_t cap = cells_.size();
  const std::size_t cell = gram_;
  std::size_t at = cells_head_ + cells_size_;
  cells_[at >= cap ? at - cap : at] = cell;
  ++cells_size_;
  ++lead_total_;
  cell_delta(cell, -1);

  if (lead_total_ > grams_per_window_) {
    // The oldest lead gram crosses the boundary into the lag window: its
    // lag count gains one and its lead count loses one.
    at = cells_head_ + cells_size_ - 1 - grams_per_window_;
    const std::size_t boundary = cells_[at >= cap ? at - cap : at];
    --lead_total_;
    ++lag_total_;
    cell_delta(boundary, 2);
  }
  if (lag_total_ > grams_per_window_) {
    cell_delta(cells_[cells_head_], -1);
    --lag_total_;
    if (++cells_head_ == cap) cells_head_ = 0;
    --cells_size_;
  }

  // Once warmed up both windows hold exactly grams_per_window_ grams, so the
  // bitmap distance reduces to sqrt(sum (lag_count - lead_count)^2) / total
  // — and sq_sum_ tracks that sum incrementally. O(1) per symbol instead of
  // bitmap_distance's O(alphabet^level) walk plus two frequency allocations,
  // which dominated full-clip extraction.
  raw_score_ = warmed_up() ? std::sqrt(static_cast<double>(sq_sum_)) /
                                 static_cast<double>(grams_per_window_)
                           : 0.0;
}

void StreamingAnomalyScorer::reset() {
  znorm_.reset();
  gram_ = 0;
  history_ = 0;
  symbols_ = 0;
  cells_head_ = 0;
  cells_size_ = 0;
  lag_total_ = 0;
  lead_total_ = 0;
  diff_.assign(diff_.size(), 0);
  sq_sum_ = 0;
  raw_score_ = 0.0;
  replaced_ = 0;
  frame_fill_ = 0;
  ring_[0] = 0.0;
  smoothing_.slot_ = smoothing_.evict_ = smoothing_.size_ = 0;
  smoothing_.x_ = smoothing_.sum_ = smoothing_.inv_ = 0.0;
}

std::vector<double> anomaly_scores(std::span<const float> series,
                                   const AnomalyParams& params) {
  StreamingAnomalyScorer scorer(params);
  std::vector<double> out(series.size());
  scorer.push_batch(series.data(), series.size(), out.data());
  return out;
}

}  // namespace dynriver::ts
