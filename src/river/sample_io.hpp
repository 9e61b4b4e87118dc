// Sample sources and ensemble sinks: the adapter layer around streaming
// extraction sessions.
//
// A SampleSource yields raw amplitude samples chunk by chunk — from a WAV
// file, a live record channel (TCP), a segment store, or any callback — with
// O(chunk) memory, so days of audio never need to fit in RAM. An
// EnsembleSink consumes extracted ensembles as they close. Drivers
// (core::run_stream) pump source -> StreamSession -> sink; every adapter
// here is also usable standalone.
//
// The Ensemble value type itself lives here (core::Ensemble is an alias):
// it is stream-model vocabulary — sinks ship it between hosts as scoped
// record streams — and defining it below core keeps the adapter layer free
// of extraction dependencies.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "dsp/wav.hpp"
#include "river/channel.hpp"
#include "river/record.hpp"

namespace dynriver::river {

/// One extracted ensemble: a contiguous stretch of the original signal where
/// the trigger was active.
struct Ensemble {
  std::size_t start_sample = 0;
  std::vector<float> samples;

  [[nodiscard]] std::size_t end_sample() const {
    return start_sample + samples.size();
  }
  [[nodiscard]] std::size_t length() const { return samples.size(); }
};

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Pull-side of a sample stream. Implementations must be cheap to call with
/// any chunk size, including 1 sample.
class SampleSource {
 public:
  virtual ~SampleSource() = default;

  /// Fill up to out.size() samples; returns the count produced, 0 at end of
  /// stream. A short read is NOT end of stream — only 0 is.
  [[nodiscard]] virtual std::size_t read(std::span<float> out) = 0;

  /// Sample rate of the stream, 0 when unknown (e.g. no clip scope seen yet).
  [[nodiscard]] virtual double sample_rate() const = 0;
};

/// Whole buffer already in memory (batch wrappers, tests).
class BufferSource final : public SampleSource {
 public:
  explicit BufferSource(std::span<const float> samples, double sample_rate = 0.0)
      : samples_(samples), rate_(sample_rate) {}

  [[nodiscard]] std::size_t read(std::span<float> out) override;
  [[nodiscard]] double sample_rate() const override { return rate_; }

 private:
  std::span<const float> samples_;
  double rate_;
  std::size_t pos_ = 0;
};

/// Wraps any chunk-producing callable (synthesis loops, decoders, ...). The
/// callable fills the span it is given and returns the sample count; 0 ends
/// the stream.
class FunctionSource final : public SampleSource {
 public:
  using Fn = std::function<std::size_t(std::span<float>)>;
  FunctionSource(Fn fn, double sample_rate)
      : fn_(std::move(fn)), rate_(sample_rate) {}

  [[nodiscard]] std::size_t read(std::span<float> out) override {
    return fn_(out);
  }
  [[nodiscard]] double sample_rate() const override { return rate_; }

 private:
  Fn fn_;
  double rate_;
};

/// Streams a WAV file through dsp::WavStreamReader with O(chunk) memory;
/// multi-channel files are averaged to mono (same values as read_wav +
/// to_mono).
class WavFileSource final : public SampleSource {
 public:
  explicit WavFileSource(const std::filesystem::path& path) : reader_(path) {}

  [[nodiscard]] std::size_t read(std::span<float> out) override {
    return reader_.read_mono(out);
  }
  [[nodiscard]] double sample_rate() const override {
    return static_cast<double>(reader_.sample_rate());
  }
  [[nodiscard]] const dsp::WavStreamReader& reader() const { return reader_; }

 private:
  dsp::WavStreamReader reader_;
};

/// Base for sources that scan a scoped record stream for audio payloads:
/// Data records of `subtype` supply samples, clip OpenScope records supply
/// the sample rate, everything else is skipped. At most one record payload
/// is buffered at a time.
class RecordSampleSource : public SampleSource {
 public:
  [[nodiscard]] std::size_t read(std::span<float> out) final;
  [[nodiscard]] double sample_rate() const final { return rate_; }

  /// False once the stream ended without a clean close (peer died).
  [[nodiscard]] bool clean() const { return !lost_; }
  [[nodiscard]] bool exhausted() const { return done_; }
  [[nodiscard]] std::size_t records_in() const { return records_in_; }

 protected:
  explicit RecordSampleSource(std::uint32_t subtype = kSubtypeAudio)
      : subtype_(subtype) {}

  enum class Next : std::uint8_t {
    kRecord,  ///< `rec` holds the next record
    kEnd,     ///< clean end of stream
    kLost,    ///< abnormal end (disconnect, torn log, ...)
  };
  [[nodiscard]] virtual Next next_record(Record& rec) = 0;

  /// Fill `pending` with the samples of the next matching audio record
  /// (skipping non-audio records, learning the rate on the way) or report
  /// the end of the stream. The base implementation materializes Records via
  /// next_record(); sources with an allocation-free decode path (the segment
  /// store) override it to fill `pending` in place, reusing its capacity,
  /// so steady-state replay performs no per-record heap allocation.
  /// Overrides must bump records_in_ per record visited and update rate_
  /// exactly like the base version.
  [[nodiscard]] virtual Next next_audio(FloatVec& pending);

  [[nodiscard]] std::uint32_t subtype() const { return subtype_; }

  double rate_ = 0.0;
  std::size_t records_in_ = 0;

 private:
  std::uint32_t subtype_;
  FloatVec pending_;
  std::size_t pending_pos_ = 0;
  bool done_ = false;
  bool lost_ = false;
};

/// Pulls audio records from a RecordChannel — in-process or TCP — so a
/// session downstream extracts while the upstream is still sending.
class RecordChannelSource final : public RecordSampleSource {
 public:
  explicit RecordChannelSource(std::shared_ptr<RecordChannel> channel,
                               std::uint32_t subtype = kSubtypeAudio)
      : RecordSampleSource(subtype), channel_(std::move(channel)) {}

 private:
  [[nodiscard]] Next next_record(Record& rec) override;

  std::shared_ptr<RecordChannel> channel_;
};

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Push-side consumer of extracted ensembles.
class EnsembleSink {
 public:
  virtual ~EnsembleSink() = default;

  /// One completed ensemble (emitted as soon as its trigger closes).
  virtual void accept(Ensemble ensemble) = 0;

  /// End of the stream; default: nothing to flush.
  virtual void finish() {}
};

/// Drops every ensemble (score-only consumers, soak tests).
class NullEnsembleSink final : public EnsembleSink {
 public:
  void accept(Ensemble) override {}
};

/// Invokes a callable per ensemble.
class CallbackEnsembleSink final : public EnsembleSink {
 public:
  using Fn = std::function<void(Ensemble)>;
  explicit CallbackEnsembleSink(Fn fn) : fn_(std::move(fn)) {}

  void accept(Ensemble ensemble) override { fn_(std::move(ensemble)); }

 private:
  Fn fn_;
};

/// Accumulates ensembles in memory (batch wrappers, tests).
class CollectingEnsembleSink final : public EnsembleSink {
 public:
  void accept(Ensemble ensemble) override {
    ensembles.push_back(std::move(ensemble));
  }

  std::vector<Ensemble> ensembles;
};

/// The scoped record stream of one ensemble:
///   OpenScope(kScopeEnsemble; ensemble_id, start_sample, num_samples,
///   sample_rate attrs) , Data(subtype audio) , CloseScope.
[[nodiscard]] std::vector<Record> ensemble_to_records(const Ensemble& ensemble,
                                                      std::uint64_t ensemble_id,
                                                      double sample_rate);

/// Ships each ensemble into a RecordChannel as its scoped record stream
/// (live hand-off to a downstream host); closes the channel on finish()
/// when `close_on_finish`.
class ChannelEnsembleSink final : public EnsembleSink {
 public:
  ChannelEnsembleSink(std::shared_ptr<RecordChannel> channel, double sample_rate,
                      bool close_on_finish = true)
      : channel_(std::move(channel)),
        sample_rate_(sample_rate),
        close_on_finish_(close_on_finish) {}

  void accept(Ensemble ensemble) override;
  void finish() override {
    if (close_on_finish_) channel_->close();
  }

  /// Records the channel refused (peer gone).
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

 private:
  std::shared_ptr<RecordChannel> channel_;
  double sample_rate_;
  bool close_on_finish_;
  std::uint64_t next_id_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace dynriver::river
