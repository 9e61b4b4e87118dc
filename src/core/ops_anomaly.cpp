#include "core/ops_anomaly.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "core/ops_acoustic.hpp"

namespace dynriver::core {

using river::Record;
using river::RecordType;

SaxAnomalyOp::SaxAnomalyOp(const ts::AnomalyParams& params) : scorer_(params) {}

void SaxAnomalyOp::process(Record rec, river::Emitter& out) {
  if (rec.type == RecordType::kOpenScope &&
      rec.scope_type == river::kScopeClip) {
    scorer_.reset();  // clips are scored independently
    out.emit(std::move(rec));
    return;
  }
  if (rec.type != RecordType::kData || rec.subtype != river::kSubtypeAudio ||
      !rec.is_float()) {
    out.emit(std::move(rec));
    return;
  }

  const auto audio = rec.floats();
  river::FloatVec scores(audio.size());
  scorer_.push_batch(audio.data(), audio.size(), scores.data());
  Record score_rec = Record::data(river::kSubtypeAnomalyScore, std::move(scores));
  score_rec.scope_depth = rec.scope_depth;

  out.emit(std::move(rec));        // original acoustic data first
  out.emit(std::move(score_rec));  // then the aligned anomaly scores
}

TriggerState::TriggerState(double sigma_threshold, std::size_t min_baseline,
                           std::size_t hold_samples)
    : sigma_sq_(sigma_threshold * sigma_threshold),
      min_baseline_(min_baseline),
      hold_samples_(hold_samples) {
  DR_EXPECTS(sigma_threshold > 0.0);
}

void TriggerState::reset() {
  count_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
  active_ = false;
  seen_nonzero_ = false;
  below_count_ = 0;
}

void TriggerState::set_thresholding(double sigma_threshold,
                                    std::size_t min_baseline,
                                    std::size_t hold_samples) {
  DR_EXPECTS(sigma_threshold > 0.0);
  sigma_sq_ = sigma_threshold * sigma_threshold;
  min_baseline_ = min_baseline;
  hold_samples_ = hold_samples;
}

TriggerOp::TriggerOp(double sigma_threshold, std::size_t min_baseline,
                     std::size_t hold_samples)
    : state_(sigma_threshold, min_baseline, hold_samples) {}

void TriggerOp::process(Record rec, river::Emitter& out) {
  if (rec.type == RecordType::kOpenScope &&
      rec.scope_type == river::kScopeClip) {
    state_.reset();
    out.emit(std::move(rec));
    return;
  }
  if (rec.type != RecordType::kData ||
      rec.subtype != river::kSubtypeAnomalyScore || !rec.is_float()) {
    out.emit(std::move(rec));
    return;
  }

  const auto scores = rec.floats();
  river::FloatVec trig(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    trig[i] = state_.push(static_cast<double>(scores[i])) ? 1.0F : 0.0F;
  }
  Record trig_rec = Record::data(river::kSubtypeTrigger, std::move(trig));
  trig_rec.scope_depth = rec.scope_depth;
  out.emit(std::move(trig_rec));
}

CutterOp::CutterOp(const PipelineParams& params)
    : params_(params),
      cutter_(1, params.merge_gap_samples, params.min_ensemble_samples) {
  params_.validate();
}

void CutterOp::process(Record rec, river::Emitter& out) {
  switch (rec.type) {
    case RecordType::kOpenScope:
      if (rec.scope_type == river::kScopeClip) {
        in_clip_ = true;
        clip_attrs_ = rec.attrs;
        clip_depth_ = rec.scope_depth;
        audio_fifo_.clear();
        trigger_fifo_.clear();
        cutter_.reset();  // clips are cut independently; frame index = 0
      }
      out.emit(std::move(rec));
      return;

    case RecordType::kCloseScope:
    case RecordType::kBadCloseScope:
      if (in_clip_ && rec.scope_type == river::kScopeClip) {
        pump(out);
        // Ensembles whose merge gap elapsed inside the clip are good; the
        // one decided only because the clip ended inherits the close kind.
        cutter_.finish();
        emit_ready(out, rec.type == RecordType::kBadCloseScope);
        in_clip_ = false;
      }
      out.emit(std::move(rec));
      return;

    case RecordType::kData:
      break;
  }

  if (!in_clip_) {
    out.emit(std::move(rec));
    return;
  }
  if (rec.subtype == river::kSubtypeAudio && rec.is_float()) {
    const auto f = rec.floats();
    audio_fifo_.insert(audio_fifo_.end(), f.begin(), f.end());
    // Original audio is consumed here; the cutter's output is ensembles.
  } else if (rec.subtype == river::kSubtypeTrigger && rec.is_float()) {
    const auto f = rec.floats();
    trigger_fifo_.insert(trigger_fifo_.end(), f.begin(), f.end());
    pump(out);
  } else {
    out.emit(std::move(rec));  // unrelated data (e.g. anomaly scores kept)
  }
}

void CutterOp::pump(river::Emitter& out) {
  // Pair the FIFOs sample-by-sample into the shared automaton; every
  // decision (merge, suppress, eager finalize) happens inside StreamCutter.
  const std::size_t n = std::min(audio_fifo_.size(), trigger_fifo_.size());
  for (std::size_t i = 0; i < n; ++i) {
    cutter_.step(trigger_fifo_[i] >= 0.5F, &audio_fifo_[i]);
  }
  audio_fifo_.erase(audio_fifo_.begin(),
                    audio_fifo_.begin() + static_cast<std::ptrdiff_t>(n));
  trigger_fifo_.erase(trigger_fifo_.begin(),
                      trigger_fifo_.begin() + static_cast<std::ptrdiff_t>(n));
  emit_ready(out, /*bad=*/false);
}

void CutterOp::emit_ready(river::Emitter& out, bool bad) {
  while (auto cut = cutter_.pop()) emit_cut(out, std::move(*cut), bad);
}

void CutterOp::emit_cut(river::Emitter& out, detail::StreamCutter::Cut cut,
                        bool bad) {
  const std::vector<float>& samples = cut.channels.front();
  const std::uint32_t open_depth = clip_depth_ + 1;
  Record open = Record::open_scope(river::kScopeEnsemble, open_depth);
  open.attrs = clip_attrs_;  // clip context travels with each ensemble
  open.set_attr(kAttrEnsembleId, static_cast<std::int64_t>(next_ensemble_id_++));
  open.set_attr(kAttrStartSample, static_cast<std::int64_t>(cut.start_sample));
  open.set_attr(kAttrNumSamples, static_cast<std::int64_t>(samples.size()));
  out.emit(std::move(open));

  for (std::size_t start = 0; start < samples.size();
       start += params_.record_size) {
    const std::size_t len = std::min(params_.record_size, samples.size() - start);
    river::FloatVec payload(
        samples.begin() + static_cast<std::ptrdiff_t>(start),
        samples.begin() + static_cast<std::ptrdiff_t>(start + len));
    Record rec = Record::data(river::kSubtypeAudio, std::move(payload));
    rec.scope_depth = open_depth + 1;
    out.emit(std::move(rec));
  }

  out.emit(bad ? Record::bad_close_scope(river::kScopeEnsemble, open_depth)
               : Record::close_scope(river::kScopeEnsemble, open_depth));
  ++ensembles_;
}

void CutterOp::flush(river::Emitter& out) {
  // A stream that ends mid-clip without a CloseScope lost its upstream; any
  // accumulated ensemble is closed as bad if long enough.
  if (in_clip_) {
    pump(out);
    cutter_.finish();
    emit_ready(out, /*bad=*/true);
    in_clip_ = false;
  }
}

}  // namespace dynriver::core
