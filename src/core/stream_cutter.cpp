#include "core/stream_cutter.hpp"

#include "common/contracts.hpp"

namespace dynriver::core::detail {

namespace {
/// Append src[0, len) to dst under ts::finite_or_zero.
void append(std::vector<float>& dst, const float* src, std::size_t len) {
  const std::size_t at = dst.size();
  dst.insert(dst.end(), src, src + len);
  for (std::size_t i = at; i < dst.size(); ++i) {
    dst[i] = ts::finite_or_zero(dst[i]);
  }
}
}  // namespace

StreamCutter::StreamCutter(std::size_t channels, std::size_t merge_gap_samples,
                           std::size_t min_ensemble_samples)
    : channels_(channels),
      merge_gap_(merge_gap_samples),
      min_len_(min_ensemble_samples),
      bufs_(channels),
      gaps_(channels) {
  DR_EXPECTS(channels >= 1);
}

void StreamCutter::open_run(std::size_t i) {
  if (pending_) {
    // Trigger re-fired within the merge gap (an eager finalize would have
    // run otherwise): absorb the buffered gap and continue the ensemble.
    for (std::size_t c = 0; c < channels_; ++c) {
      bufs_[c].insert(bufs_[c].end(), gaps_[c].begin(), gaps_[c].end());
      gaps_[c].clear();
    }
    pending_ = false;
    cutting_ = true;
  } else if (!cutting_) {
    cutting_ = true;
    start_ = i;
  }
}

void StreamCutter::step_triggered(std::size_t i, const float* frame) {
  open_run(i);
  for (std::size_t c = 0; c < channels_; ++c) {
    bufs_[c].push_back(ts::finite_or_zero(frame[c]));
  }
}

void StreamCutter::step_run(bool trig, const float* const* channels,
                            std::size_t offset, std::size_t len) {
  if (len == 0) return;
  if (trig) {
    open_run(pos_);
    for (std::size_t c = 0; c < channels_; ++c) {
      append(bufs_[c], channels[c] + offset, len);
    }
  } else {
    if (cutting_) {
      cutting_ = false;
      pending_ = true;
    }
    if (pending_) {
      // Only the first merge_gap_ + 1 gap samples matter: the single step()
      // would finalize right there and ignore the rest of the quiet run.
      const std::size_t take = std::min(len, merge_gap_ + 1 - gaps_[0].size());
      for (std::size_t c = 0; c < channels_; ++c) {
        append(gaps_[c], channels[c] + offset, take);
      }
      if (gaps_[0].size() > merge_gap_) finalize();
    }
  }
  pos_ += len;
}

void StreamCutter::finish() {
  if (cutting_) {
    cutting_ = false;
    pending_ = true;
  }
  if (pending_) finalize();
}

void StreamCutter::finalize() {
  pending_ = false;
  // Gap samples never belong to an ensemble — they are only absorbed when
  // the trigger re-fires inside the merge window.
  for (auto& gap : gaps_) gap.clear();
  if (bufs_[0].size() >= min_len_) {
    Cut cut;
    cut.start_sample = start_;
    cut.channels = std::move(bufs_);
    bufs_.assign(channels_, {});
    ready_.push_back(std::move(cut));
  } else {
    for (auto& buf : bufs_) buf.clear();
  }
}

std::optional<StreamCutter::Cut> StreamCutter::pop() {
  if (ready_.empty()) return std::nullopt;
  Cut cut = std::move(ready_.front());
  ready_.pop_front();
  return cut;
}

std::size_t StreamCutter::buffered_samples() const {
  std::size_t acc = bufs_[0].size() + gaps_[0].size();
  for (const auto& cut : ready_) acc += cut.channels[0].size();
  return acc;
}

void StreamCutter::reset() {
  pos_ = 0;
  cutting_ = false;
  pending_ = false;
  start_ = 0;
  for (auto& buf : bufs_) buf.clear();
  for (auto& gap : gaps_) gap.clear();
  ready_.clear();
}

}  // namespace dynriver::core::detail
