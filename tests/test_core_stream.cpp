// StreamSession / MultiStreamSession: the streaming extraction contract.
//
// The load-bearing property: for EVERY chunking of the input — including
// 1-sample pushes — the session's ensembles, scores, and trigger series are
// byte-identical to EnsembleExtractor::extract (which is itself a wrapper
// over a session, so this also pins batch == streaming). Plus: bounded
// buffering, eager emission, ring taps, reset, and the multi-channel
// counterpart against MultiStreamExtractor.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/extractor.hpp"
#include "core/multistream.hpp"
#include "core/stream_session.hpp"
#include "river/sample_io.hpp"
#include "test_support.hpp"

namespace core = dynriver::core;
namespace river = dynriver::river;
namespace synth = dynriver::synth;
namespace testsupport = dynriver::testsupport;

namespace {

/// Parameters scaled down so short synthetic signals exercise every state
/// transition (trigger, hold, merge, floor) quickly.
core::PipelineParams small_params() {
  core::PipelineParams params;
  params.anomaly = {.window = 50, .alphabet = 6, .level = 2,
                    .ma_window = 400, .frame = 8};
  params.trigger_min_baseline = 1500;
  params.trigger_hold_samples = 300;
  params.min_ensemble_samples = 600;
  params.merge_gap_samples = 2000;
  return params;
}

std::vector<float> random_signal_with_events(std::size_t n, unsigned seed) {
  // Noise with two burst events (and whatever else the trigger finds).
  auto xs = testsupport::noise_with_bursts(n, n / 4, n / 8, seed);
  const auto second = testsupport::noise_with_bursts(n, (3 * n) / 5, n / 10,
                                                     seed + 1);
  for (std::size_t i = (3 * n) / 5; i < std::min(n, (3 * n) / 5 + n / 10); ++i) {
    xs[i] += second[i] * 0.5F;
  }
  return xs;
}

/// Stream `xs` through a fresh session in `chunk`-sized pushes (0 = whole
/// clip), draining after every push, and return everything extract returns.
core::ExtractionResult stream_in_chunks(const core::PipelineParams& params,
                                        std::span<const float> xs,
                                        std::size_t chunk) {
  core::SessionOptions options;
  options.tap_capacity = core::SignalTap::kUnbounded;
  core::StreamSession session(params, std::move(options));

  core::ExtractionResult result;
  std::size_t pos = 0;
  while (pos < xs.size()) {
    const std::size_t n = chunk == 0 ? xs.size() : std::min(chunk, xs.size() - pos);
    session.push(xs.subspan(pos, n));
    for (auto& e : session.drain()) result.ensembles.push_back(std::move(e));
    pos += n;
  }
  for (auto& e : session.finish()) result.ensembles.push_back(std::move(e));
  result.scores = session.tap().scores();
  result.trigger = session.tap().trigger();
  return result;
}

std::vector<float> perturbed_channel(const std::vector<float>& base,
                                     unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<float> noise(0.0F, 0.002F);
  std::vector<float> out(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    out[i] = 0.9F * base[i] + noise(gen);
  }
  return out;
}

/// `channels` synchronized streams for the multi-channel reruns of
/// single-stream tests: `xs` itself, then perturbed copies of it.
std::vector<std::vector<float>> channel_set(const std::vector<float>& xs,
                                            std::size_t channels) {
  std::vector<std::vector<float>> out = {xs};
  for (std::size_t c = 1; c < channels; ++c) {
    out.push_back(perturbed_channel(xs, 100 + static_cast<unsigned>(c)));
  }
  return out;
}

/// Push frames [begin, end) of every stream in one call.
void push_frames(core::MultiStreamSession& session,
                 const std::vector<std::vector<float>>& streams,
                 std::size_t begin, std::size_t end) {
  std::vector<std::span<const float>> chunks;
  for (const auto& stream : streams) {
    chunks.push_back(std::span<const float>(stream).subspan(begin, end - begin));
  }
  session.push(chunks);
}

void expect_identical(const core::ExtractionResult& got,
                      const core::ExtractionResult& want, std::size_t chunk) {
  ASSERT_EQ(got.ensembles.size(), want.ensembles.size()) << "chunk=" << chunk;
  for (std::size_t i = 0; i < got.ensembles.size(); ++i) {
    EXPECT_EQ(got.ensembles[i].start_sample, want.ensembles[i].start_sample)
        << "chunk=" << chunk << " ensemble=" << i;
    // Byte-identical samples: the cuts are copies of the same input.
    ASSERT_EQ(got.ensembles[i].samples, want.ensembles[i].samples)
        << "chunk=" << chunk << " ensemble=" << i;
  }
  // Byte-identical score + trigger series (float equality, no tolerance).
  ASSERT_EQ(got.scores, want.scores) << "chunk=" << chunk;
  ASSERT_EQ(got.trigger, want.trigger) << "chunk=" << chunk;
}

}  // namespace

TEST(StreamSession, ChunkSweepBitIdenticalToBatchExtract) {
  const auto params = small_params();
  const core::EnsembleExtractor extractor(params);

  for (const unsigned seed : {11U, 29U, 47U}) {
    const auto xs = random_signal_with_events(60000, seed);
    const auto want = extractor.extract(xs, /*keep_signals=*/true);
    ASSERT_FALSE(want.ensembles.empty()) << "seed=" << seed
        << " (signal must exercise the cutter)";

    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{256}, std::size_t{900},
                                    std::size_t{0} /* whole clip */}) {
      expect_identical(stream_in_chunks(params, xs, chunk), want, chunk);
    }
  }
}

TEST(StreamSession, ChunkSweepOnStationClip) {
  // The paper's configuration on a real synthesized field clip.
  const auto clip = testsupport::record_station_clip(
      11, {synth::SpeciesId::kNOCA, synth::SpeciesId::kRWBL});
  const core::PipelineParams params;
  const core::EnsembleExtractor extractor(params);
  const auto want = extractor.extract(clip.clip.samples, /*keep_signals=*/true);
  ASSERT_FALSE(want.ensembles.empty());

  for (const std::size_t chunk :
       {std::size_t{256}, std::size_t{900}, std::size_t{0}}) {
    expect_identical(stream_in_chunks(params, clip.clip.samples, chunk), want,
                     chunk);
  }
}

TEST(StreamSession, EnsemblesEmitEagerly) {
  // Every ensemble whose merge gap has elapsed is available BEFORE finish().
  const auto params = small_params();
  const auto xs = random_signal_with_events(60000, 11);
  const auto want = core::EnsembleExtractor(params).extract(xs);
  ASSERT_GE(want.ensembles.size(), 2U);

  core::StreamSession session(params);
  session.push(xs);
  const auto before_finish = session.drain();
  // All but possibly the last (still inside merge-gap lookahead) are out.
  EXPECT_GE(before_finish.size() + 1, want.ensembles.size());
  EXPECT_FALSE(before_finish.empty());

  // And the first ensemble is available as soon as its gap elapses, not at
  // end of signal: push exactly up to first end + gap + 1, then check.
  core::StreamSession early(params);
  const std::size_t horizon = want.ensembles.front().end_sample() +
                              params.merge_gap_samples + 1;
  ASSERT_LT(horizon, xs.size());
  early.push(std::span<const float>(xs.data(), horizon));
  const auto first = early.drain();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.front().start_sample, want.ensembles.front().start_sample);
  EXPECT_EQ(first.front().samples, want.ensembles.front().samples);
}

TEST(StreamSession, BufferingIsBoundedByEnsembleAndGap) {
  const auto params = small_params();
  const auto xs = random_signal_with_events(120000, 5);
  const auto want = core::EnsembleExtractor(params).extract(xs);

  std::size_t longest = params.min_ensemble_samples;
  for (const auto& e : want.ensembles) longest = std::max(longest, e.length());

  constexpr std::size_t kChunk = 256;
  core::StreamSession session(params);
  const std::span<const float> span(xs);
  std::size_t peak = 0;
  std::size_t pos = 0;
  while (pos < xs.size()) {
    const std::size_t n = std::min(kChunk, xs.size() - pos);
    session.push(span.subspan(pos, n));
    (void)session.drain();
    peak = std::max(peak, session.buffered_samples());
    pos += n;
  }
  (void)session.finish();

  // Open ensemble + merge-gap lookahead + one chunk of slack (a completed
  // cut rests in the ready queue until the post-push drain), never O(stream).
  EXPECT_LE(peak, longest + params.merge_gap_samples + 2 * kChunk +
                      params.min_ensemble_samples);
  EXPECT_LT(peak, xs.size() / 4);
  EXPECT_EQ(session.buffered_samples(), 0U);  // drained after finish
}

TEST(StreamSession, RingTapKeepsRecentWindow) {
  const auto params = small_params();
  const auto xs = random_signal_with_events(30000, 3);
  const auto want = core::EnsembleExtractor(params).extract(xs, true);

  constexpr std::size_t kCapacity = 1024;
  core::SessionOptions options;
  options.tap_capacity = kCapacity;
  core::StreamSession session(params, std::move(options));
  session.push(xs);
  (void)session.finish();

  const auto& tap = session.tap();
  EXPECT_EQ(tap.end_index(), xs.size());
  EXPECT_EQ(tap.size(), kCapacity);
  EXPECT_EQ(tap.first_index(), xs.size() - kCapacity);

  const auto scores = tap.scores();
  const auto trigger = tap.trigger();
  for (std::size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(scores[i], want.scores[tap.first_index() + i]) << i;
    EXPECT_EQ(trigger[i], want.trigger[tap.first_index() + i]) << i;
  }
}

TEST(StreamSession, DisabledTapBuffersNothing) {
  const auto params = small_params();
  const auto xs = random_signal_with_events(30000, 3);
  core::StreamSession session(params);  // tap_capacity = 0
  session.push(xs);
  (void)session.finish();
  EXPECT_FALSE(session.tap().enabled());
  EXPECT_EQ(session.tap().size(), 0U);
  EXPECT_EQ(session.tap().end_index(), 0U);  // nothing even counted
}

TEST(StreamSession, OnSignalObserverSeesBatchSeries) {
  const auto params = small_params();
  const auto xs = random_signal_with_events(20000, 9);
  const auto want = core::EnsembleExtractor(params).extract(xs, true);

  std::vector<float> scores;
  std::vector<std::uint8_t> trigger;
  std::size_t next_index = 0;
  core::SessionOptions options;
  options.on_signal = [&](std::size_t i, float score, bool trig) {
    EXPECT_EQ(i, next_index++);
    scores.push_back(score);
    trigger.push_back(trig ? 1 : 0);
  };
  core::StreamSession session(params, std::move(options));
  for (std::size_t pos = 0; pos < xs.size(); pos += 333) {
    session.push(std::span<const float>(xs).subspan(
        pos, std::min<std::size_t>(333, xs.size() - pos)));
  }
  (void)session.finish();
  EXPECT_EQ(scores, want.scores);
  EXPECT_EQ(trigger, want.trigger);
}

TEST(StreamSession, ResetStartsAFreshStream) {
  const auto params = small_params();
  const auto xs = random_signal_with_events(40000, 21);
  const auto want = core::EnsembleExtractor(params).extract(xs);

  core::StreamSession session(params);
  // Pollute with an unrelated stream, then reset.
  session.push(random_signal_with_events(12345, 99));
  session.reset();
  EXPECT_EQ(session.samples_consumed(), 0U);

  session.push(xs);
  const auto ensembles = session.finish();
  ASSERT_EQ(ensembles.size(), want.ensembles.size());
  for (std::size_t i = 0; i < ensembles.size(); ++i) {
    EXPECT_EQ(ensembles[i].start_sample, want.ensembles[i].start_sample);
    EXPECT_EQ(ensembles[i].samples, want.ensembles[i].samples);
  }
}

TEST(StreamSession, FinishCutsTheOpenTailRun) {
  // A burst that runs to the very end of the stream: the run is still open
  // at finish(), which must close it exactly like the batch path.
  const auto params = small_params();
  auto xs = random_signal_with_events(40000, 13);
  const auto tail = testsupport::noise_with_bursts(40000, 32000, 8000, 17);
  for (std::size_t i = 32000; i < 40000; ++i) xs[i] += tail[i];

  const auto want = core::EnsembleExtractor(params).extract(xs);
  ASSERT_FALSE(want.ensembles.empty());
  ASSERT_GT(want.ensembles.back().end_sample(), 39000U)
      << "tail burst must keep the trigger active near the end";

  expect_identical(stream_in_chunks(params, xs, 256),
                   core::EnsembleExtractor(params).extract(xs, true), 256);
}

TEST(StreamSession, FeaturizeMatchesExtractorFeaturize) {
  const auto clip = testsupport::record_station_clip(
      7, {synth::SpeciesId::kBCCH});
  const core::PipelineParams params;
  const core::EnsembleExtractor extractor(params);
  const auto want = extractor.extract(clip.clip.samples);
  ASSERT_FALSE(want.ensembles.empty());

  core::StreamSession session(params);
  session.push(clip.clip.samples);
  const auto ensembles = session.finish();
  ASSERT_EQ(ensembles.size(), want.ensembles.size());
  for (std::size_t i = 0; i < ensembles.size(); ++i) {
    EXPECT_EQ(session.featurize(ensembles[i]),
              extractor.featurize(want.ensembles[i]));
  }
}

// ---------------------------------------------------------------------------
// Live reconfiguration
// ---------------------------------------------------------------------------

TEST(StreamSession, ReconfigureToSameParamsIsIdentity) {
  // Re-applying the current parameters at arbitrary mid-stream points —
  // including mid-ensemble, where application defers to the boundary —
  // must change nothing at all.
  const auto params = small_params();
  const auto xs = random_signal_with_events(60000, 11);
  const auto want =
      core::EnsembleExtractor(params).extract(xs, /*keep_signals=*/true);
  ASSERT_FALSE(want.ensembles.empty());

  core::SessionOptions options;
  options.tap_capacity = core::SignalTap::kUnbounded;
  core::StreamSession session(params, std::move(options));
  core::ExtractionResult got;
  constexpr std::size_t kChunk = 700;
  std::size_t pushes = 0;
  for (std::size_t pos = 0; pos < xs.size(); pos += kChunk) {
    if (++pushes % 5 == 0) session.reconfigure(params);
    session.push(std::span<const float>(xs).subspan(
        pos, std::min(kChunk, xs.size() - pos)));
    for (auto& e : session.drain()) got.ensembles.push_back(std::move(e));
  }
  for (auto& e : session.finish()) got.ensembles.push_back(std::move(e));
  got.scores = session.tap().scores();
  got.trigger = session.tap().trigger();
  expect_identical(got, want, kChunk);
}

TEST(StreamSession, ReconfigureAtQuietBoundaryEqualsRestartWithNewParams) {
  // The headline equivalence: reconfiguring at an ensemble boundary is the
  // same as having restarted with the new parameters at that point. With a
  // trigger-quiet prefix (identical scorer + baseline state under either
  // parameter set), that reduces to: session(P1) + reconfigure(P2) after
  // the prefix == session(P2) from the start — bit-identically. Run at one
  // channel (StreamSession's session) and at two.
  const auto p1 = small_params();
  auto p2 = p1;
  p2.merge_gap_samples = 1000;
  p2.min_ensemble_samples = 900;
  p2.trigger_hold_samples = 500;
  ASSERT_TRUE(core::reconfigure_compatible(p1, p2));

  const std::size_t kPrefix = 20000;
  auto xs = testsupport::noise_with_bursts(80000, 0, 0, 51);  // pure noise...
  const auto events = random_signal_with_events(60000, 52);   // ...then events
  for (std::size_t i = 0; i < events.size(); ++i) xs[kPrefix + i] = events[i];

  for (const std::size_t channels : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "channels=" << channels);
    const auto streams = channel_set(xs, channels);

    // Reference: fresh session under P2 for the whole stream.
    core::SessionOptions tap_all;
    tap_all.tap_capacity = core::SignalTap::kUnbounded;
    core::MultiStreamSession restart({p2, core::ScoreFusion::kMax}, channels,
                                     tap_all);
    push_frames(restart, streams, 0, xs.size());
    const auto want = restart.finish();
    ASSERT_FALSE(want.empty());
    // Premise: the prefix never triggers (so P1 vs P2 cannot diverge there).
    const auto trigger = restart.tap().trigger();
    for (std::size_t i = 0; i < kPrefix; ++i) {
      ASSERT_EQ(trigger[i], 0) << "prefix must stay quiet at " << i;
    }

    core::MultiStreamSession session({p1, core::ScoreFusion::kMax}, channels);
    push_frames(session, streams, 0, kPrefix);
    session.reconfigure(p2);
    // The automaton is between ensembles: the new rules land immediately.
    EXPECT_FALSE(session.reconfigure_pending());
    EXPECT_EQ(session.params().base.merge_gap_samples, p2.merge_gap_samples);
    push_frames(session, streams, kPrefix, xs.size());
    const auto got = session.finish();

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].start_sample, want[i].start_sample) << i;
      ASSERT_EQ(got[i].channel_samples, want[i].channel_samples) << i;
    }
  }
}

TEST(StreamSession, ReconfigureMidEnsembleDefersUntilBoundary) {
  // A reconfigure issued while an ensemble is open must not lose or
  // re-judge it: the in-flight ensemble completes under the old rules, and
  // the new rules only govern what follows. Run at one channel and at two.
  const auto p1 = small_params();
  const auto xs = random_signal_with_events(60000, 11);
  auto p2 = p1;
  p2.min_ensemble_samples = 50000;  // suppress everything after the boundary
  p2.merge_gap_samples = 500;

  for (const std::size_t channels : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "channels=" << channels);
    const auto streams = channel_set(xs, channels);
    const std::vector<std::span<const float>> spans(streams.begin(),
                                                    streams.end());
    const auto want =
        core::MultiStreamExtractor({p1, core::ScoreFusion::kMax}).extract(spans);
    ASSERT_GE(want.ensembles.size(), 2U);
    for (const auto& e : want.ensembles) ASSERT_LT(e.length, 50000U);

    const auto& first = want.ensembles.front();
    const std::size_t mid = first.start_sample + first.length / 2;
    core::MultiStreamSession session({p1, core::ScoreFusion::kMax}, channels);
    push_frames(session, streams, 0, mid);
    session.reconfigure(p2);
    EXPECT_TRUE(session.reconfigure_pending());  // ensemble open: deferred
    EXPECT_EQ(session.params().base.min_ensemble_samples,
              p1.min_ensemble_samples);
    push_frames(session, streams, mid, xs.size());
    const auto got = session.finish();
    EXPECT_FALSE(session.reconfigure_pending());
    EXPECT_EQ(session.params().base.min_ensemble_samples,
              p2.min_ensemble_samples);

    // The open ensemble survived, bit-identically; the new floor ate the
    // rest.
    ASSERT_EQ(got.size(), 1U);
    EXPECT_EQ(got.front().start_sample, first.start_sample);
    ASSERT_EQ(got.front().channel_samples, first.channel_samples);
  }
}

// ---------------------------------------------------------------------------
// MultiStreamSession
// ---------------------------------------------------------------------------

TEST(MultiStreamSession, ChunkSweepBitIdenticalToMultiExtractor) {
  const auto a = random_signal_with_events(60000, 31);
  const auto b = perturbed_channel(a, 32);
  const auto c = perturbed_channel(a, 33);
  const std::vector<std::vector<float>> all = {a, b, c};

  for (const auto fusion : {core::ScoreFusion::kMax, core::ScoreFusion::kMean}) {
    for (const std::size_t channels : {std::size_t{2}, std::size_t{3}}) {
      core::MultiStreamParams mp;
      mp.base = small_params();
      mp.fusion = fusion;
      const core::MultiStreamExtractor extractor(mp);

      std::vector<std::span<const float>> streams;
      for (std::size_t s = 0; s < channels; ++s) streams.emplace_back(all[s]);
      const auto want = extractor.extract(streams, /*keep_signals=*/true);
      ASSERT_FALSE(want.ensembles.empty());

      for (const std::size_t chunk : {std::size_t{1}, std::size_t{256},
                                      std::size_t{900}, std::size_t{0}}) {
        SCOPED_TRACE(testing::Message()
                     << "fusion=" << static_cast<int>(fusion)
                     << " channels=" << channels << " chunk=" << chunk);
        core::SessionOptions options;
        options.tap_capacity = core::SignalTap::kUnbounded;
        core::MultiStreamSession session(mp, streams.size(), std::move(options));

        std::vector<core::MultiEnsemble> got;
        std::size_t pos = 0;
        while (pos < a.size()) {
          const std::size_t n =
              chunk == 0 ? a.size() : std::min(chunk, a.size() - pos);
          std::vector<std::span<const float>> chunks;
          for (const auto& stream : streams) {
            chunks.push_back(stream.subspan(pos, n));
          }
          session.push(chunks);
          for (auto& e : session.drain()) got.push_back(std::move(e));
          pos += n;
        }
        for (auto& e : session.finish()) got.push_back(std::move(e));

        ASSERT_EQ(got.size(), want.ensembles.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].start_sample, want.ensembles[i].start_sample);
          EXPECT_EQ(got[i].length, want.ensembles[i].length);
          ASSERT_EQ(got[i].channel_samples, want.ensembles[i].channel_samples);
        }
        ASSERT_EQ(session.tap().scores(), want.fused_scores);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// run_stream pump
// ---------------------------------------------------------------------------

TEST(RunStream, PumpsSourceToSinkWithStats) {
  const auto params = small_params();
  const auto xs = random_signal_with_events(60000, 11);
  const auto want = core::EnsembleExtractor(params).extract(xs);

  core::StreamSession session(params);
  river::BufferSource source(xs, params.sample_rate);
  river::CollectingEnsembleSink sink;
  const auto stats = core::run_stream(source, session, sink, 512);

  EXPECT_EQ(stats.samples_in, xs.size());
  EXPECT_EQ(stats.ensembles_out, want.ensembles.size());
  EXPECT_GT(stats.peak_buffered_samples, 0U);
  EXPECT_LT(stats.peak_buffered_samples, xs.size());
  ASSERT_EQ(sink.ensembles.size(), want.ensembles.size());
  for (std::size_t i = 0; i < sink.ensembles.size(); ++i) {
    EXPECT_EQ(sink.ensembles[i].start_sample, want.ensembles[i].start_sample);
    EXPECT_EQ(sink.ensembles[i].samples, want.ensembles[i].samples);
  }
}
