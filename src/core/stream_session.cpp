#include "core/stream_session.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "dsp/simd.hpp"

namespace dynriver::core {

// ---------------------------------------------------------------------------
// SignalTap
// ---------------------------------------------------------------------------

void SignalTap::reset() {
  total_ = 0;
  head_ = 0;
  scores_.clear();
  trigger_.clear();
}

namespace {

template <typename T>
std::vector<T> unroll_ring(const std::vector<T>& ring, std::size_t head) {
  std::vector<T> out;
  out.reserve(ring.size());
  out.insert(out.end(), ring.begin() + static_cast<std::ptrdiff_t>(head),
             ring.end());
  out.insert(out.end(), ring.begin(),
             ring.begin() + static_cast<std::ptrdiff_t>(head));
  return out;
}

}  // namespace

std::vector<float> SignalTap::scores() const {
  return unroll_ring(scores_, head_);
}

std::vector<std::uint8_t> SignalTap::trigger() const {
  return unroll_ring(trigger_, head_);
}

bool reconfigure_compatible(const PipelineParams& a, const PipelineParams& b) {
  return a.sample_rate == b.sample_rate && a.record_size == b.record_size &&
         a.anomaly == b.anomaly && a.reslice == b.reslice &&
         a.window == b.window && a.dft_size == b.dft_size &&
         a.cutout_lo_hz == b.cutout_lo_hz && a.cutout_hi_hz == b.cutout_hi_hz &&
         a.use_paa == b.use_paa && a.paa_factor == b.paa_factor &&
         a.pattern_merge == b.pattern_merge &&
         a.pattern_stride == b.pattern_stride;
}

// ---------------------------------------------------------------------------
// MultiStreamSession
// ---------------------------------------------------------------------------

MultiStreamSession::MultiStreamSession(
    MultiStreamParams params, std::size_t channels, SessionOptions options,
    std::shared_ptr<const SpectralEngine> engine)
    : params_(std::move(params)),
      options_(std::move(options)),
      features_(params_.base, std::move(engine)),
      trigger_(params_.base.trigger_sigma, params_.base.trigger_min_baseline,
               params_.base.trigger_hold_samples),
      cutter_(channels, params_.base.merge_gap_samples,
              params_.base.min_ensemble_samples),
      tap_(options_.tap_capacity),
      channel_data_(channels) {
  DR_EXPECTS(channels >= 1);
  params_.base.validate();
  scorers_.reserve(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    scorers_.emplace_back(params_.base.anomaly);
  }
}

namespace {
/// Samples scored per batched block when the scores are fused or observed:
/// small enough that the score scratch stays cache-hot (32 KiB of doubles
/// per channel) next to the input block.
constexpr std::size_t kScoreBlock = 4096;
}  // namespace

std::size_t MultiStreamSession::push(
    std::span<const std::span<const float>> chunks) {
  DR_EXPECTS(chunks.size() == channels());
  const std::size_t n = chunks.front().size();
  for (const auto& chunk : chunks) DR_EXPECTS(chunk.size() == n);

  // A pending reconfigure lands at the first frame boundary where the
  // cutter is idle: until then the loop advances one frame at a time, so
  // the in-flight ensemble's fate is decided under the old rules. Sessions
  // that are not mid-reconfigure take the bulk call straight away.
  std::size_t done = 0;
  while (pending_params_ && done < n) {
    if (cutter_.idle()) {
      apply_reconfigure();
    } else {
      extract_frames(chunks, done++, 1);
    }
  }
  extract_frames(chunks, done, n - done);
  return cutter_.ready();
}

void MultiStreamSession::extract_frames(
    std::span<const std::span<const float>> chunks, std::size_t offset,
    std::size_t n) {
  if (n == 0) return;
  const std::size_t ch = channels();
  for (std::size_t c = 0; c < ch; ++c) {
    channel_data_[c] = chunks[c].data() + offset;
  }
  const float* const* data = channel_data_.data();
  // The cutter is fed whole trigger runs in bulk (trigger runs are
  // thousands of samples long, so its per-sample branches never run here).
  // `run_trig`/`run_start` carry the open trigger run across blocks
  // (indices relative to `data`); flip(i) closes it at a trigger edge.
  bool run_trig = trigger_.active();
  std::size_t run_start = 0;
  const auto flip = [&](std::size_t i) {
    cutter_.step_run(run_trig, data, run_start, i - run_start);
    run_trig = !run_trig;
    run_start = i;
  };
  const bool observed = tap_.enabled() || options_.on_signal != nullptr;

  if (ch == 1 && !observed) {
    // One unobserved channel (every scheduler station): its smoothed score
    // is the fused score, and the scorer's kernel hands each one straight
    // to the trigger's state-split block loop — no score block is written.
    std::size_t base = 0;
    scorers_[0].push_block(
        data[0], n,
        [&](ts::StreamingAnomalyScorer::Cursor& cursor, std::size_t m) {
          trigger_.push_block(
              m, [&cursor] { return cursor.next(); },
              [&](std::size_t j) { flip(base + j); });
          base += m;
        });
  } else {
    // Each channel's scorer writes its scores into its slice of the shared
    // scratch; fusion, trigger and the observers then consume the block.
    // Memory stays O(channels * block) for any chunk size.
    if (score_block_.empty()) score_block_.resize(ch * kScoreBlock);
    const double* scores = score_block_.data();
    const bool fuse_max = params_.fusion == ScoreFusion::kMax;
    for (std::size_t base = 0; base < n; base += kScoreBlock) {
      const std::size_t m = std::min(kScoreBlock, n - base);
      for (std::size_t c = 0; c < ch; ++c) {
        scorers_[c].push_batch(data[c] + base, m,
                               score_block_.data() + c * kScoreBlock);
      }
      // The per-sample fusion fold stays inside the trigger loop on
      // purpose: a separate SIMD max/mean pass over the block was measured
      // slower — the extra fused-score buffer traffic does not overlap
      // anything, while these few scalar ops hide entirely under the
      // trigger's serial Welford chain. The fold is seeded from channel 0
      // and reads channels 1..C-1 in fixed order, so at C = 1 the fused
      // score is the channel's own score.
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t i = base + j;
        double fused = scores[j];
        if (fuse_max) {
          for (std::size_t c = 1; c < ch; ++c) {
            fused = std::max(fused, scores[c * kScoreBlock + j]);
          }
        } else {
          for (std::size_t c = 1; c < ch; ++c) {
            fused += scores[c * kScoreBlock + j];
          }
          fused /= static_cast<double>(ch);
        }
        const bool trig = trigger_.push(fused);
        if (observed) {
          if (tap_.enabled()) tap_.push(static_cast<float>(fused), trig);
          if (options_.on_signal) {
            options_.on_signal(consumed_ + i, static_cast<float>(fused), trig);
          }
        }
        if (trig != run_trig) flip(i);
      }
    }
  }
  cutter_.step_run(run_trig, data, run_start, n - run_start);
  consumed_ += n;
}

void MultiStreamSession::reconfigure(const PipelineParams& params) {
  params.validate();
  DR_EXPECTS(reconfigure_compatible(params, params_.base));
  pending_params_ = params;
  // Between ensembles the new rules can start this very instant; otherwise
  // the in-flight ensemble finishes under the old rules first.
  if (cutter_.idle()) apply_reconfigure();
}

void MultiStreamSession::apply_reconfigure() {
  const PipelineParams& p = *pending_params_;
  // The trigger keeps its baseline statistics (mu0/sigma0 survive the
  // re-tune); only the decision thresholds change.
  trigger_.set_thresholding(p.trigger_sigma, p.trigger_min_baseline,
                            p.trigger_hold_samples);
  cutter_.set_bounds(p.merge_gap_samples, p.min_ensemble_samples);
  params_.base = p;
  pending_params_.reset();
}

std::vector<MultiEnsemble> MultiStreamSession::drain() {
  std::vector<MultiEnsemble> out;
  while (auto cut = cutter_.pop()) {
    MultiEnsemble ensemble;
    ensemble.start_sample = cut->start_sample;
    ensemble.length = cut->channels.front().size();
    ensemble.channel_samples = std::move(cut->channels);
    out.push_back(std::move(ensemble));
  }
  return out;
}

std::vector<MultiEnsemble> MultiStreamSession::finish() {
  cutter_.finish();
  // End of stream decides the in-flight ensemble under the old rules; a
  // still-pending reconfigure lands now that the automaton is idle.
  if (pending_params_) apply_reconfigure();
  return drain();
}

void MultiStreamSession::reset() {
  for (auto& scorer : scorers_) scorer.reset();
  trigger_.reset();
  cutter_.reset();
  tap_.reset();
  consumed_ = 0;
  if (pending_params_) apply_reconfigure();
}

std::size_t MultiStreamSession::samples_replaced() const {
  std::size_t total = 0;
  for (const auto& scorer : scorers_) total += scorer.samples_replaced();
  return total;
}

std::vector<std::vector<std::vector<float>>> MultiStreamSession::featurize(
    const MultiEnsemble& ensemble) const {
  return detail::featurize_channels(features_, ensemble);
}

// ---------------------------------------------------------------------------
// StreamSession
// ---------------------------------------------------------------------------

StreamSession::StreamSession(PipelineParams params, Options options,
                             std::shared_ptr<const SpectralEngine> engine)
    : session_(MultiStreamParams{std::move(params), ScoreFusion::kMax}, 1,
               std::move(options), std::move(engine)) {}

std::vector<river::Ensemble> StreamSession::single_channel(
    std::vector<MultiEnsemble> ensembles) {
  std::vector<river::Ensemble> out;
  out.reserve(ensembles.size());
  for (auto& e : ensembles) {
    out.push_back(river::Ensemble{e.start_sample,
                                  std::move(e.channel_samples.front())});
  }
  return out;
}

// ---------------------------------------------------------------------------
// run_stream
// ---------------------------------------------------------------------------

StreamPumpStats run_stream(river::SampleSource& source, StreamSession& session,
                           river::EnsembleSink& sink,
                           std::size_t chunk_samples) {
  if (chunk_samples == 0) chunk_samples = session.params().record_size;
  DR_EXPECTS(chunk_samples >= 1);

  StreamPumpStats stats;
  std::vector<float> chunk(chunk_samples);
  const auto deliver = [&](std::vector<river::Ensemble> ensembles) {
    for (auto& e : ensembles) {
      ++stats.ensembles_out;
      sink.accept(std::move(e));
    }
  };

  for (;;) {
    const std::size_t n = source.read(chunk);
    if (n == 0) break;
    stats.samples_in += n;
    if (session.push(std::span<const float>(chunk.data(), n)) > 0) {
      deliver(session.drain());
    }
    stats.peak_buffered_samples =
        std::max(stats.peak_buffered_samples, session.buffered_samples());
  }
  deliver(session.finish());
  sink.finish();
  return stats;
}

}  // namespace dynriver::core
