#include "river/sample_io.hpp"

#include <algorithm>

#include "river/wire.hpp"

namespace dynriver::river {

std::size_t BufferSource::read(std::span<float> out) {
  const std::size_t n = std::min(out.size(), samples_.size() - pos_);
  std::copy_n(samples_.begin() + static_cast<std::ptrdiff_t>(pos_), n,
              out.begin());
  pos_ += n;
  return n;
}

std::size_t RecordSampleSource::read(std::span<float> out) {
  std::size_t filled = 0;
  while (filled < out.size()) {
    if (pending_pos_ < pending_.size()) {
      const std::size_t n =
          std::min(out.size() - filled, pending_.size() - pending_pos_);
      std::copy_n(pending_.begin() + static_cast<std::ptrdiff_t>(pending_pos_),
                  n, out.begin() + static_cast<std::ptrdiff_t>(filled));
      pending_pos_ += n;
      filled += n;
      continue;
    }
    if (done_) break;

    switch (next_audio(pending_)) {
      case Next::kEnd:
        done_ = true;
        pending_.clear();
        continue;
      case Next::kLost:
        done_ = true;
        lost_ = true;
        pending_.clear();
        continue;
      case Next::kRecord:
        pending_pos_ = 0;
        break;
    }
  }
  return filled;
}

RecordSampleSource::Next RecordSampleSource::next_audio(FloatVec& pending) {
  Record rec;
  for (;;) {
    const Next next = next_record(rec);
    if (next != Next::kRecord) return next;
    ++records_in_;
    if (rec.type == RecordType::kOpenScope && rec.scope_type == kScopeClip) {
      rate_ = rec.attr_double(kAttrSampleRate, rate_);
    } else if (rec.type == RecordType::kData && rec.subtype == subtype() &&
               rec.is_float()) {
      // Self-describing data records (e.g. from AudioSegmentArchiver) carry
      // the rate too, so a replay that seeks past the opening clip scope
      // still learns it.
      if (rate_ == 0.0) rate_ = rec.attr_double(kAttrSampleRate, 0.0);
      pending = std::move(std::get<FloatVec>(rec.payload));
      return Next::kRecord;
    }
  }
}

RecordSampleSource::Next RecordChannelSource::next_record(Record& rec) {
  switch (channel_->recv(rec)) {
    case RecvStatus::kRecord:
      return Next::kRecord;
    case RecvStatus::kClosed:
      return Next::kEnd;
    case RecvStatus::kDisconnected:
    case RecvStatus::kTimeout:
      return Next::kLost;
  }
  return Next::kLost;
}

std::vector<Record> ensemble_to_records(const Ensemble& ensemble,
                                        std::uint64_t ensemble_id,
                                        double sample_rate) {
  std::vector<Record> records;
  records.reserve(3);

  Record open = Record::open_scope(kScopeEnsemble, 0);
  open.set_attr(kAttrEnsembleId, static_cast<std::int64_t>(ensemble_id));
  open.set_attr(kAttrStartSample,
                static_cast<std::int64_t>(ensemble.start_sample));
  open.set_attr(kAttrNumSamples, static_cast<std::int64_t>(ensemble.length()));
  if (sample_rate > 0.0) open.set_attr(kAttrSampleRate, sample_rate);
  records.push_back(std::move(open));

  records.push_back(Record::data(kSubtypeAudio, ensemble.samples));
  records.push_back(Record::close_scope(kScopeEnsemble, 0));
  return records;
}

void ChannelEnsembleSink::accept(Ensemble ensemble) {
  for (auto& rec : ensemble_to_records(ensemble, next_id_, sample_rate_)) {
    if (!channel_->send(std::move(rec))) ++dropped_;
  }
  ++next_id_;
}

}  // namespace dynriver::river
