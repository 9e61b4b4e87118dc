// Multi-stream extraction (paper future work): fused scoring across
// synchronized channels, single-stream equivalence, and context-augmented
// patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/contracts.hpp"
#include "core/extractor.hpp"
#include "meso/baselines.hpp"
#include "core/multistream.hpp"
#include "core/stream_session.hpp"
#include "synth/station.hpp"
#include "test_support.hpp"
#include "ts/anomaly.hpp"

namespace core = dynriver::core;
namespace synth = dynriver::synth;

namespace {
synth::ClipRecording record_clip(std::uint64_t seed,
                                 const std::vector<synth::SpeciesId>& singers) {
  return dynriver::testsupport::record_station_clip(seed, singers);
}

core::MultiStreamParams default_multi() {
  core::MultiStreamParams p;
  return p;
}
}  // namespace

TEST(MultiStream, SingleStreamMatchesEnsembleExtractor) {
  const auto clip = record_clip(91, {synth::SpeciesId::kNOCA});
  const core::EnsembleExtractor single(core::PipelineParams{});
  const auto single_result = single.extract(clip.clip.samples);
  core::SessionOptions tap_all;
  tap_all.tap_capacity = core::SignalTap::kUnbounded;
  core::StreamSession session(core::PipelineParams{}, tap_all);
  session.push(clip.clip.samples);
  (void)session.finish();
  const auto single_scores = session.tap().scores();

  // At one channel the fusion rule is moot: either fold returns the
  // channel's own score, bit for bit.
  for (const auto fusion : {core::ScoreFusion::kMax, core::ScoreFusion::kMean}) {
    SCOPED_TRACE(testing::Message() << "fusion=" << static_cast<int>(fusion));
    auto params = default_multi();
    params.fusion = fusion;
    const core::MultiStreamExtractor multi(params);
    const std::span<const float> stream(clip.clip.samples);
    const auto multi_result =
        multi.extract(std::vector{stream}, /*keep_signals=*/true);

    ASSERT_EQ(multi_result.ensembles.size(), single_result.ensembles.size());
    for (std::size_t i = 0; i < single_result.ensembles.size(); ++i) {
      EXPECT_EQ(multi_result.ensembles[i].start_sample,
                single_result.ensembles[i].start_sample);
      EXPECT_EQ(multi_result.ensembles[i].length,
                single_result.ensembles[i].length());
      EXPECT_EQ(multi_result.ensembles[i].channel_samples[0],
                single_result.ensembles[i].samples);
    }
    ASSERT_EQ(multi_result.fused_scores.size(), single_scores.size());
    for (std::size_t i = 0; i < single_scores.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(multi_result.fused_scores[i]),
                std::bit_cast<std::uint32_t>(single_scores[i]))
          << "sample " << i;
    }
  }
}

TEST(MultiStream, FusedTapMatchesIndependentFoldOfChannelScores) {
  // Oracle: each channel scored on its own by ts::anomaly_scores, then
  // folded in channel order -- max, or sum then divide by C. The session's
  // fused tap must equal it bit for bit.
  const core::PipelineParams params;
  const std::vector<std::vector<float>> all = {
      record_clip(91, {synth::SpeciesId::kNOCA}).clip.samples,
      record_clip(92, {synth::SpeciesId::kRWBL, synth::SpeciesId::kTUTI})
          .clip.samples,
      record_clip(93, {synth::SpeciesId::kBCCH}).clip.samples};
  std::vector<std::vector<double>> channel_scores;
  for (const auto& xs : all) {
    channel_scores.push_back(dynriver::ts::anomaly_scores(xs, params.anomaly));
    // Where a fold starts (0.0 or channel 0) is invisible only while no
    // score is negative or -0.0; pin that these fixtures stay there.
    for (const double score : channel_scores.back()) {
      ASSERT_TRUE(score >= 0.0 && !std::signbit(score)) << score;
    }
  }

  for (const auto fusion : {core::ScoreFusion::kMax, core::ScoreFusion::kMean}) {
    for (const std::size_t channels : {std::size_t{2}, std::size_t{3}}) {
      SCOPED_TRACE(testing::Message() << "fusion=" << static_cast<int>(fusion)
                                      << " channels=" << channels);
      core::MultiStreamParams mp;
      mp.base = params;
      mp.fusion = fusion;
      core::SessionOptions options;
      options.tap_capacity = core::SignalTap::kUnbounded;
      core::MultiStreamSession session(mp, channels, std::move(options));
      const std::vector<std::span<const float>> streams(
          all.begin(), all.begin() + static_cast<std::ptrdiff_t>(channels));
      session.push(streams);
      ASSERT_FALSE(session.finish().empty());

      const auto got = session.tap().scores();
      ASSERT_EQ(got.size(), all.front().size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        double want = channel_scores[0][i];
        for (std::size_t c = 1; c < channels; ++c) {
          if (fusion == core::ScoreFusion::kMax) {
            want = std::max(want, channel_scores[c][i]);
          } else {
            want += channel_scores[c][i];
          }
        }
        if (fusion == core::ScoreFusion::kMean) {
          want /= static_cast<double>(channels);
        }
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                  std::bit_cast<std::uint32_t>(static_cast<float>(want)))
            << "sample " << i;
      }
    }
  }
}

TEST(MultiStream, ChannelsShareIdenticalBoundaries) {
  // Two correlated channels: the same clip at different gains plus
  // independent noise floors (two microphones on one station).
  const auto clip = record_clip(92, {synth::SpeciesId::kRWBL,
                                     synth::SpeciesId::kTUTI});
  std::vector<float> mic2(clip.clip.samples.size());
  dynriver::Rng rng(5);
  for (std::size_t i = 0; i < mic2.size(); ++i) {
    mic2[i] = 0.6F * clip.clip.samples[i] +
              static_cast<float>(rng.gaussian(0.0, 0.002));
  }

  const core::MultiStreamExtractor multi(default_multi());
  const std::vector<std::span<const float>> streams = {clip.clip.samples, mic2};
  const auto result = multi.extract(streams);

  ASSERT_FALSE(result.ensembles.empty());
  for (const auto& e : result.ensembles) {
    ASSERT_EQ(e.channel_samples.size(), 2u);
    EXPECT_EQ(e.channel_samples[0].size(), e.length);
    EXPECT_EQ(e.channel_samples[1].size(), e.length);
    // Channel cuts are the aligned slices of each stream.
    for (std::size_t i = 0; i < e.length; i += 997) {
      EXPECT_FLOAT_EQ(e.channel_samples[0][i],
                      clip.clip.samples[e.start_sample + i]);
      EXPECT_FLOAT_EQ(e.channel_samples[1][i], mic2[e.start_sample + i]);
    }
  }
}

TEST(MultiStream, MaxFusionDetectsEventPresentInOneChannelOnly) {
  // Channel A carries the songs; channel B is pure background. Max fusion
  // must still find every planted song.
  const auto clip = record_clip(93, {synth::SpeciesId::kBCCH,
                                     synth::SpeciesId::kBCCH});
  synth::StationParams sp;
  sp.distractor_probability = 0.0;
  synth::SensorStation quiet_station(sp, 94);
  const auto quiet = quiet_station.record_silence();

  core::MultiStreamParams params = default_multi();
  params.fusion = core::ScoreFusion::kMax;
  const core::MultiStreamExtractor multi(params);
  const std::vector<std::span<const float>> streams = {clip.clip.samples,
                                                       quiet.clip.samples};
  const auto result = multi.extract(streams);

  for (const auto& t : clip.truth) {
    bool found = false;
    for (const auto& e : result.ensembles) {
      if (synth::intervals_overlap(e.start_sample, e.end_sample(),
                                   t.start_sample, t.end_sample(), 0.25)) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "song at " << t.start_sample;
  }
}

TEST(MultiStream, FusedScoresExposedWhenRequested) {
  const auto clip = record_clip(95, {synth::SpeciesId::kNOCA});
  const core::MultiStreamExtractor multi(default_multi());
  const std::span<const float> stream(clip.clip.samples);
  const auto result = multi.extract(std::vector{stream}, /*keep_signals=*/true);
  EXPECT_EQ(result.fused_scores.size(), clip.clip.samples.size());
}

TEST(MultiStream, FeaturizeYieldsPatternsPerChannel) {
  const auto clip = record_clip(97, {synth::SpeciesId::kBLJA});
  const core::MultiStreamExtractor multi(default_multi());
  const std::span<const float> stream(clip.clip.samples);
  const auto result = multi.extract(std::vector{stream, stream});
  ASSERT_FALSE(result.ensembles.empty());

  const auto channel_patterns = multi.featurize(result.ensembles.front());
  ASSERT_EQ(channel_patterns.size(), 2u);
  ASSERT_FALSE(channel_patterns[0].empty());
  // Identical channels produce identical patterns of the configured width.
  EXPECT_EQ(channel_patterns[0], channel_patterns[1]);
  EXPECT_EQ(channel_patterns[0][0].size(),
            multi.params().base.features_per_pattern());
}

TEST(MultiStream, MismatchedLengthsRejected) {
  const std::vector<float> a(10000, 0.0F);
  const std::vector<float> b(9999, 0.0F);
  const core::MultiStreamExtractor multi(default_multi());
  const std::vector<std::span<const float>> streams = {a, b};
  EXPECT_THROW((void)multi.extract(streams), dynriver::ContractViolation);
}

TEST(ContextAugment, AppendsScaledContext) {
  const std::vector<float> pattern = {3.0F, 4.0F};  // RMS = sqrt(12.5)
  const std::vector<float> context = {1.0F, -2.0F};
  const auto augmented = core::augment_with_context(pattern, context, 1.0);
  ASSERT_EQ(augmented.size(), 4u);
  EXPECT_FLOAT_EQ(augmented[0], 3.0F);
  EXPECT_FLOAT_EQ(augmented[1], 4.0F);
  const float rms = std::sqrt(12.5F);
  EXPECT_NEAR(augmented[2], rms, 1e-5);
  EXPECT_NEAR(augmented[3], -2.0F * rms, 1e-4);
}

TEST(ContextAugment, ZeroGainLeavesContextInert) {
  const std::vector<float> pattern = {1.0F, 1.0F};
  const std::vector<float> context = {42.0F};
  const auto augmented = core::augment_with_context(pattern, context, 0.0);
  ASSERT_EQ(augmented.size(), 3u);
  EXPECT_FLOAT_EQ(augmented[2], 0.0F);
}

TEST(ContextAugment, ImprovesSeparationOfAmbiguousClasses) {
  // Two "species" with identical spectra but different habitat context: the
  // side channel is what separates them, mirroring the paper's motivation.
  dynriver::Rng rng(6);
  dynriver::meso::KnnClassifier plain(1);
  dynriver::meso::KnnClassifier contextual(1);

  std::vector<std::pair<std::vector<float>, int>> test_set;
  for (int i = 0; i < 120; ++i) {
    const int label = i % 2;
    std::vector<float> spectrum(20);
    for (auto& v : spectrum) {
      v = static_cast<float>(rng.gaussian(1.0, 0.3));  // same for both classes
    }
    // Context: class 0 sings at dawn in open habitat, class 1 at dusk.
    const std::vector<float> context = {
        static_cast<float>(rng.gaussian(label == 0 ? -1.0 : 1.0, 0.3)),
        static_cast<float>(rng.gaussian(label == 0 ? 0.5 : -0.5, 0.3))};
    const auto augmented = core::augment_with_context(spectrum, context, 1.0);
    if (i < 80) {
      plain.train(spectrum, label);
      contextual.train(augmented, label);
    } else {
      test_set.emplace_back(augmented, label);
      test_set.back().first = augmented;
    }
  }

  int plain_correct = 0;
  int contextual_correct = 0;
  for (const auto& [augmented, label] : test_set) {
    const std::span<const float> spectrum_only(augmented.data(), 20);
    if (plain.classify(spectrum_only) == label) ++plain_correct;
    if (contextual.classify(augmented) == label) ++contextual_correct;
  }
  // Spectra are pure noise (plain ~ 50%); context should lift accuracy.
  EXPECT_GT(contextual_correct, plain_correct + 5);
}
