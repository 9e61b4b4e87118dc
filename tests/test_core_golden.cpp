// Golden end-to-end extraction: a fixed-seed station clip with five planted
// songs must always yield the same ensembles and land on the paper's ~80%
// data reduction (Kasten, McKinley & Gage report 80.6%).
//
// Boundaries are asserted within a small tolerance rather than exactly:
// the trigger threshold sits on floating-point accumulations whose last
// few ULPs may differ across compilers and libm versions, which can shift
// an onset by a handful of samples, never by a syllable.
//
// The cross-path digest below is exact instead: within one build, every
// extraction path (live session at any chunking, tapped or not, batch
// facade, operator pipeline, 1-channel multi-stream session, scheduler
// lanes, packed and raw archive replay) must hash to the same ensembles and
// score/trigger series — on a stream with NaN, ±inf and denormal bursts
// too, which every path reads under the same sample-hygiene rule. No hash
// constant is committed -- the reference is recomputed per build, for the
// same compiler-drift reason as the boundary tolerance above.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "core/birdsong.hpp"
#include "core/extractor.hpp"
#include "core/ops_acoustic.hpp"
#include "core/params.hpp"
#include "core/session_scheduler.hpp"
#include "core/stream_session.hpp"
#include "river/segment_store.hpp"
#include "synth/station.hpp"
#include "test_support.hpp"

namespace core = dynriver::core;
namespace river = dynriver::river;
namespace synth = dynriver::synth;
namespace testsupport = dynriver::testsupport;

namespace {

constexpr std::uint64_t kGoldenSeed = 11;

/// Golden ensemble boundaries for kGoldenSeed (samples at 21.6 kHz).
struct GoldenEnsemble {
  std::size_t start;
  std::size_t end;
};
constexpr GoldenEnsemble kGolden[] = {
    {102946, 132726},
    {206426, 243499},
    {285414, 308885},
    {346764, 369741},
    {412769, 429112},
};

/// ±0.11 s: generous against float/libm drift, far below syllable scale.
constexpr std::size_t kBoundaryTolerance = 2400;

synth::ClipRecording golden_clip() {
  return dynriver::testsupport::record_station_clip(
      kGoldenSeed,
      {synth::SpeciesId::kNOCA, synth::SpeciesId::kTUTI,
       synth::SpeciesId::kBCCH, synth::SpeciesId::kMODO,
       synth::SpeciesId::kRWBL});
}

void expect_near_sample(std::size_t actual, std::size_t expected,
                        const char* what, std::size_t index) {
  const std::size_t diff =
      actual > expected ? actual - expected : expected - actual;
  EXPECT_LE(diff, kBoundaryTolerance)
      << what << " of ensemble " << index << ": got " << actual
      << ", golden " << expected;
}

}  // namespace

TEST(GoldenExtraction, EnsembleCountAndBoundaries) {
  const auto clip = golden_clip();
  const core::EnsembleExtractor extractor((core::PipelineParams()));
  const auto result = extractor.extract(clip.clip.samples);

  ASSERT_EQ(result.ensembles.size(), std::size(kGolden));
  for (std::size_t i = 0; i < std::size(kGolden); ++i) {
    expect_near_sample(result.ensembles[i].start_sample, kGolden[i].start,
                       "start", i);
    expect_near_sample(result.ensembles[i].end_sample(), kGolden[i].end,
                       "end", i);
  }
}

TEST(GoldenExtraction, EveryPlantedSongIsCovered) {
  const auto clip = golden_clip();
  const core::EnsembleExtractor extractor((core::PipelineParams()));
  const auto result = extractor.extract(clip.clip.samples);

  ASSERT_EQ(clip.truth.size(), std::size(kGolden));
  for (const auto& t : clip.truth) {
    bool covered = false;
    for (const auto& e : result.ensembles) {
      if (synth::intervals_overlap(e.start_sample, e.end_sample(),
                                   t.start_sample, t.end_sample(), 0.5)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "planted song at " << t.start_sample
                         << " not covered by any ensemble";
  }
}

TEST(GoldenExtraction, ReductionMatchesPaper) {
  const auto clip = golden_clip();
  const core::EnsembleExtractor extractor((core::PipelineParams()));
  const auto result = extractor.extract(clip.clip.samples);

  // Paper, Table 1: 80.6% reduction. The golden clip measures 0.7999.
  const double reduction = result.reduction_fraction(clip.clip.samples.size());
  EXPECT_NEAR(reduction, 0.806, 0.05);

  // Determinism: a second extraction of the same clip is bit-identical.
  const auto again = extractor.extract(clip.clip.samples);
  ASSERT_EQ(again.ensembles.size(), result.ensembles.size());
  for (std::size_t i = 0; i < result.ensembles.size(); ++i) {
    EXPECT_EQ(again.ensembles[i].start_sample,
              result.ensembles[i].start_sample);
    EXPECT_EQ(again.ensembles[i].end_sample(), result.ensembles[i].end_sample());
  }
  EXPECT_EQ(again.retained_samples(), result.retained_samples());
}

// ---------------------------------------------------------------------------
// Cross-path digest
// ---------------------------------------------------------------------------

namespace {

/// FNV-1a over raw bytes: order- and bit-sensitive, so equal digests mean
/// equal boundaries, samples and series down to the last float bit.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void size(std::size_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    bytes(&u, sizeof u);
  }
  template <typename T>
  void values(const std::vector<T>& v) {
    size(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One path's output: ensembles (boundaries + samples) and the tapped
/// score/trigger series, hashed separately so a path without float-exact
/// taps (the operator pipeline) can still be compared on ensembles.
struct Digest {
  std::uint64_t ensembles = 0;
  std::uint64_t signals = 0;
};

std::uint64_t hash_ensembles(const std::vector<river::Ensemble>& ensembles) {
  Fnv1a h;
  h.size(ensembles.size());
  for (const auto& e : ensembles) {
    h.size(e.start_sample);
    h.values(e.samples);
  }
  return h.value();
}

std::uint64_t hash_signals(const core::SignalTap& tap) {
  EXPECT_EQ(tap.first_index(), 0U) << "digest needs the full series";
  Fnv1a h;
  h.values(tap.scores());
  h.values(tap.trigger());
  return h.value();
}

std::uint64_t hash_signals(const core::ExtractionResult& result) {
  Fnv1a h;
  h.values(result.scores);
  h.values(result.trigger);
  return h.value();
}

core::SessionOptions full_tap() {
  core::SessionOptions options;
  options.tap_capacity = core::SignalTap::kUnbounded;
  return options;
}

/// The live session in `chunk`-sized pushes (0 = whole stream).
Digest live_session(std::span<const float> xs, std::size_t chunk) {
  core::StreamSession session(core::PipelineParams{}, full_tap());
  std::vector<river::Ensemble> got;
  for (std::size_t pos = 0; pos < xs.size();) {
    const std::size_t n =
        chunk == 0 ? xs.size() : std::min(chunk, xs.size() - pos);
    session.push(xs.subspan(pos, n));
    for (auto& e : session.drain()) got.push_back(std::move(e));
    pos += n;
  }
  for (auto& e : session.finish()) got.push_back(std::move(e));
  return {hash_ensembles(got), hash_signals(session.tap())};
}

/// The untapped live session (the fused scorer -> trigger loop) in
/// `chunk`-sized pushes: ensembles only, it keeps no series.
std::uint64_t untapped_session(std::span<const float> xs, std::size_t chunk) {
  core::StreamSession session{core::PipelineParams{}};
  std::vector<river::Ensemble> got;
  for (std::size_t pos = 0; pos < xs.size(); pos += chunk) {
    session.push(xs.subspan(pos, std::min(chunk, xs.size() - pos)));
    for (auto& e : session.drain()) got.push_back(std::move(e));
  }
  for (auto& e : session.finish()) got.push_back(std::move(e));
  return hash_ensembles(got);
}

/// Noise with bursts, salted with NaN (one with a payload), ±inf and
/// denormal bursts: before the first ensemble, inside open ensembles and
/// in a merge gap.
std::vector<float> non_finite_fixture() {
  auto xs = testsupport::noise_with_bursts(120000, 30000, 40000, 13);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (std::size_t i = 10000; i < 10010; ++i) xs[i] = nan;
  for (std::size_t i = 35000; i < 35005; ++i) xs[i] = inf;
  for (std::size_t i = 52000; i < 52003; ++i) xs[i] = -inf;
  xs[61001] = std::bit_cast<float>(0x7FA00001U);  // NaN with a payload
  for (std::size_t i = 80000; i < 80100; ++i) xs[i] = 1e-41F;  // denormal
  for (std::size_t i = 90000; i < 90050; ++i) {
    xs[i] = i % 3 == 0 ? nan : (i % 3 == 1 ? inf : -inf);
  }
  return xs;
}

Digest multi_session(std::span<const float> xs, core::ScoreFusion fusion) {
  core::MultiStreamParams params;
  params.fusion = fusion;
  core::MultiStreamSession session(params, 1, full_tap());
  const std::span<const float> chunks[] = {xs};
  session.push(chunks);
  std::vector<river::Ensemble> got;
  for (auto& e : session.finish()) {
    got.push_back({e.start_sample, std::move(e.channel_samples.front())});
  }
  return {hash_ensembles(got), hash_signals(session.tap())};
}

std::uint64_t operator_pipeline(std::span<const float> xs) {
  const core::PipelineParams params;
  dynriver::dsp::WavClip clip;
  clip.sample_rate = static_cast<std::uint32_t>(params.sample_rate);
  clip.samples.assign(xs.begin(), xs.end());
  auto pipeline = core::make_extraction_pipeline(params);
  const auto records = river::run_pipeline(
      pipeline, core::clip_to_records(clip, 0, params.record_size));
  return hash_ensembles(testsupport::ensembles_from_records(records));
}

/// Every fixture as its own source-fed station (twice over, so lanes share
/// the host), served by `lanes` lanes; digests in station order.
std::vector<Digest> scheduler_stations(
    const std::vector<std::vector<float>>& fixtures, std::size_t lanes) {
  core::SchedulerOptions options;
  options.threads = lanes;
  core::SessionScheduler scheduler(options);
  std::vector<std::shared_ptr<river::CollectingEnsembleSink>> sinks;
  for (std::size_t copy = 0; copy < 2; ++copy) {
    for (const auto& xs : fixtures) {
      core::StationConfig config;
      config.session_options = full_tap();
      sinks.push_back(std::make_shared<river::CollectingEnsembleSink>());
      scheduler.add_station("station" + std::to_string(sinks.size()),
                            std::make_shared<river::BufferSource>(xs),
                            sinks.back(), std::move(config));
    }
  }
  scheduler.run();
  std::vector<Digest> out;
  for (std::size_t id = 0; id < sinks.size(); ++id) {
    out.push_back({hash_ensembles(sinks[id]->ensembles),
                   hash_signals(scheduler.session(id).tap())});
  }
  return out;
}

/// Archive `xs` into a multi-segment store, packed or raw, and replay it
/// through a live session.
Digest archive_replay(std::span<const float> xs, bool pack) {
  const core::PipelineParams params;
  const testsupport::ScopedTempDir dir("golden_digest");
  {
    river::SegmentStoreOptions options;
    options.max_segment_bytes = 256 << 10;  // several segments per clip
    options.pack_payloads = pack;
    river::SegmentedRecordLog log(dir.path(), options);
    river::AudioSegmentArchiver archiver(log, params.sample_rate,
                                         params.record_size);
    archiver.push(xs);
    archiver.finish();
    log.close();
    EXPECT_GT(log.segments().size(), 1U) << "rotation must be exercised";
  }
  river::SegmentStoreSource source(dir.path());
  core::StreamSession session(params, full_tap());
  river::CollectingEnsembleSink sink;
  core::run_stream(source, session, sink);
  EXPECT_TRUE(source.clean());
  return {hash_ensembles(sink.ensembles), hash_signals(session.tap())};
}

void expect_same(const Digest& got, const Digest& want, const char* path) {
  EXPECT_EQ(got.ensembles, want.ensembles) << path << ": ensembles differ";
  EXPECT_EQ(got.signals, want.signals) << path << ": score/trigger differ";
}

}  // namespace

TEST(GoldenExtraction, CrossPathDigestAgrees) {
  // Fixtures: the golden station clip, one synthetic noise-with-bursts
  // stream and one salted with non-finite and denormal bursts, all under
  // the paper's parameters.
  std::vector<std::vector<float>> fixtures;
  fixtures.push_back(golden_clip().clip.samples);
  fixtures.push_back(testsupport::noise_with_bursts(120000, 30000, 40000, 7));
  fixtures.push_back(non_finite_fixture());

  std::vector<Digest> reference;
  for (const auto& xs : fixtures) {
    SCOPED_TRACE(testing::Message() << "fixture of " << xs.size() << " samples");
    // Reference: the batch facade.
    const auto batch = core::EnsembleExtractor(core::PipelineParams{})
                           .extract(xs, /*keep_signals=*/true);
    ASSERT_FALSE(batch.ensembles.empty()) << "fixture must exercise the cutter";
    for (const auto& e : batch.ensembles) {
      for (const float v : e.samples) ASSERT_TRUE(std::isfinite(v));
    }
    const Digest want{hash_ensembles(batch.ensembles), hash_signals(batch)};
    reference.push_back(want);

    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{900}, std::size_t{0}}) {
      SCOPED_TRACE(testing::Message() << "chunk=" << chunk);
      expect_same(live_session(xs, chunk), want, "live session");
    }
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{900}}) {
      SCOPED_TRACE(testing::Message() << "chunk=" << chunk);
      EXPECT_EQ(untapped_session(xs, chunk), want.ensembles)
          << "untapped live session: ensembles differ";
    }
    EXPECT_EQ(operator_pipeline(xs), want.ensembles)
        << "operator pipeline: ensembles differ";
    expect_same(multi_session(xs, core::ScoreFusion::kMax), want,
                "1-channel multi-stream session, max fusion");
    expect_same(multi_session(xs, core::ScoreFusion::kMean), want,
                "1-channel multi-stream session, mean fusion");
    expect_same(archive_replay(xs, /*pack=*/true), want,
                "packed archive replay");
    expect_same(archive_replay(xs, /*pack=*/false), want,
                "raw archive replay");
  }

  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "lanes=" << lanes);
    const auto got = scheduler_stations(fixtures, lanes);
    ASSERT_EQ(got.size(), 2 * fixtures.size());
    for (std::size_t id = 0; id < got.size(); ++id) {
      expect_same(got[id], reference[id % fixtures.size()], "scheduler");
    }
  }
}
