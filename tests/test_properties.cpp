// Cross-cutting property tests: wire-format robustness under random
// corruption, MESO invariants across its parameter space, and extraction
// determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <random>

#include "core/extractor.hpp"
#include "core/stream_session.hpp"
#include "meso/classifier.hpp"
#include "river/wire.hpp"
#include "synth/station.hpp"

namespace core = dynriver::core;
namespace meso = dynriver::meso;
namespace river = dynriver::river;
namespace synth = dynriver::synth;

// -- Wire format: random single-byte corruption must never be accepted ------

class WireCorruption : public ::testing::TestWithParam<unsigned> {};

TEST_P(WireCorruption, FlippedByteIsDetectedOrChangesNothing) {
  std::mt19937 gen(GetParam());

  river::Record rec = river::Record::data(
      river::kSubtypeSpectrum, river::FloatVec(64, 1.25F));
  rec.scope_depth = 2;
  rec.set_attr("clip", std::int64_t{12});
  rec.set_attr("station", std::string("kbs"));
  const auto frame = river::encode_record(rec);

  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = frame;
    const auto pos = std::uniform_int_distribution<std::size_t>(
        0, corrupted.size() - 1)(gen);
    const auto bit = std::uniform_int_distribution<int>(0, 7)(gen);
    corrupted[pos] ^= static_cast<std::uint8_t>(1 << bit);

    // Either decoding throws (detected) -- it must never silently return a
    // different record.
    try {
      const auto decoded = river::decode_record(corrupted);
      // CRC collision for a single bit flip is impossible; the only benign
      // path would be flipping a bit back to itself, which XOR precludes.
      FAIL() << "corruption at byte " << pos << " bit " << bit
             << " was not detected";
    } catch (const river::WireError&) {
      // expected
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireCorruption, ::testing::Values(1, 2, 3, 4));

TEST(WireProperty, RoundTripRandomRecords) {
  std::mt19937 gen(99);
  std::uniform_real_distribution<float> dist(-10.0F, 10.0F);
  for (int trial = 0; trial < 100; ++trial) {
    river::Record rec;
    rec.type = static_cast<river::RecordType>(
        std::uniform_int_distribution<int>(0, 3)(gen));
    rec.subtype = std::uniform_int_distribution<std::uint32_t>(0, 2000)(gen);
    rec.scope_depth = std::uniform_int_distribution<std::uint32_t>(0, 8)(gen);
    rec.sequence = gen();
    const auto n = std::uniform_int_distribution<std::size_t>(0, 300)(gen);
    river::FloatVec payload(n);
    for (auto& v : payload) v = dist(gen);
    if (n > 0) rec.payload = std::move(payload);
    if (trial % 3 == 0) rec.set_attr("k", static_cast<double>(trial));

    const auto decoded = river::decode_record(river::encode_record(rec));
    EXPECT_TRUE(decoded == rec) << "trial " << trial;
  }
}

// -- MESO invariants across its parameter space -----------------------------

class MesoParamSweep
    : public ::testing::TestWithParam<std::tuple<double, double, std::size_t>> {
};

TEST_P(MesoParamSweep, InvariantsHoldForAllConfigurations) {
  const auto [grow, shrink, leaf] = GetParam();
  meso::MesoParams params;
  params.grow_rate = grow;
  params.shrink_rate = shrink;
  params.tree_leaf_size = leaf;
  meso::MesoClassifier clf(params);

  std::mt19937 gen(static_cast<unsigned>(static_cast<double>(leaf * 100) + grow * 10));
  std::normal_distribution<float> noise(0.0F, 0.6F);
  for (int i = 0; i < 300; ++i) {
    const int label = i % 4;
    std::vector<float> x(6);
    for (std::size_t d = 0; d < x.size(); ++d) {
      x[d] = (d % 4 == static_cast<std::size_t>(label) ? 3.0F : 0.0F) +
             noise(gen);
    }
    clf.train(x, label);

    // Invariants after every single training step:
    EXPECT_EQ(clf.pattern_count(), static_cast<std::size_t>(i + 1));
    EXPECT_GE(clf.sphere_count(), 1u);
    EXPECT_LE(clf.sphere_count(), clf.pattern_count());
    EXPECT_GE(clf.delta(), 0.0);
  }
  // Sphere membership partitions the training set.
  std::size_t members = 0;
  for (const auto& s : clf.spheres()) members += s.size();
  EXPECT_EQ(members, clf.pattern_count());

  // Classification still works on the exact blob centers.
  for (int label = 0; label < 4; ++label) {
    std::vector<float> center(6);
    for (std::size_t d = 0; d < center.size(); ++d) {
      center[d] = (d % 4 == static_cast<std::size_t>(label)) ? 3.0F : 0.0F;
    }
    EXPECT_EQ(clf.classify(center), label)
        << "grow=" << grow << " shrink=" << shrink << " leaf=" << leaf;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MesoParamSweep,
    ::testing::Combine(::testing::Values(0.0, 0.05, 0.3),
                       ::testing::Values(0.0, 0.1, 0.5),
                       ::testing::Values(1u, 4u, 32u)));

// -- Extraction determinism and monotone reduction ---------------------------

TEST(ExtractionProperty, DeterministicAcrossRuns) {
  synth::StationParams sp;
  synth::SensorStation station(sp, 777);
  const auto clip = station.record_clip({synth::SpeciesId::kNOCA});

  const core::EnsembleExtractor extractor{core::PipelineParams{}};
  const auto a = extractor.extract(clip.clip.samples);
  const auto b = extractor.extract(clip.clip.samples);
  ASSERT_EQ(a.ensembles.size(), b.ensembles.size());
  for (std::size_t i = 0; i < a.ensembles.size(); ++i) {
    EXPECT_EQ(a.ensembles[i].start_sample, b.ensembles[i].start_sample);
    EXPECT_EQ(a.ensembles[i].samples, b.ensembles[i].samples);
  }
}

class TriggerSigmaSweep : public ::testing::TestWithParam<double> {};

TEST_P(TriggerSigmaSweep, HigherThresholdNeverExtractsMore) {
  synth::StationParams sp;
  sp.distractor_probability = 0.0;
  synth::SensorStation station(sp, 888);
  const auto clip = station.record_clip(
      {synth::SpeciesId::kBCCH, synth::SpeciesId::kTUTI});

  core::PipelineParams lo;
  lo.trigger_sigma = GetParam();
  core::PipelineParams hi;
  hi.trigger_sigma = GetParam() * 2.0;

  const auto kept_lo = core::EnsembleExtractor(lo)
                           .extract(clip.clip.samples)
                           .retained_samples();
  const auto kept_hi = core::EnsembleExtractor(hi)
                           .extract(clip.clip.samples)
                           .retained_samples();
  // A stricter trigger keeps at most marginally more (merge-gap boundary
  // effects) and usually strictly less.
  EXPECT_LE(kept_hi, kept_lo + static_cast<std::size_t>(
                                   lo.merge_gap_samples));
}

INSTANTIATE_TEST_SUITE_P(Sigmas, TriggerSigmaSweep,
                         ::testing::Values(2.0, 3.0, 5.0));

// -- Non-finite samples -------------------------------------------------------

namespace {

/// 120 s of background noise at the pipeline rate with a song-like burst
/// train (1200-sample tones, 600-sample gaps, 1.5 s long) every 10 s.
std::vector<float> songs_every_ten_seconds(unsigned seed) {
  constexpr std::size_t kRate = 21600;
  std::mt19937 gen(seed);
  std::normal_distribution<float> noise(0.0F, 0.05F);
  std::vector<float> xs(120 * kRate);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = noise(gen);
    const std::size_t in_period = i % (10 * kRate);
    if (in_period >= 4 * kRate && in_period < 4 * kRate + 3 * kRate / 2 &&
        (in_period - 4 * kRate) % 1800 < 1200) {
      const double phase = 0.22 * std::numbers::pi * static_cast<double>(i);
      xs[i] += static_cast<float>(0.6 * std::sin(phase));
    }
  }
  return xs;
}

/// Ensembles a default-parameter session cuts from `xs` (900-sample
/// pushes) that start after sample `after`; `replaced` receives the
/// session's count of non-finite samples.
std::size_t ensembles_after(const std::vector<float>& xs, std::size_t after,
                            std::size_t* replaced) {
  core::StreamSession session{core::PipelineParams{}};
  std::vector<river::Ensemble> got;
  const std::span<const float> all(xs);
  for (std::size_t pos = 0; pos < xs.size(); pos += 900) {
    session.push(all.subspan(pos, std::min<std::size_t>(900, xs.size() - pos)));
    for (auto& e : session.drain()) got.push_back(std::move(e));
  }
  for (auto& e : session.finish()) got.push_back(std::move(e));
  *replaced = session.samples_replaced();
  std::size_t n = 0;
  for (const auto& e : got) n += e.start_sample > after ? 1 : 0;
  return n;
}

}  // namespace

TEST(NonFiniteProperty, OneBadSampleCostsAtMostOneEnsemble) {
  // One NaN or ±inf sample at a random time must not silence the station:
  // after it, the session finds the clean stream's ensembles, give or take
  // the one the bad sample may perturb.
  const auto clean = songs_every_ten_seconds(41);
  std::size_t unused = 0;
  std::mt19937 gen(2024);
  std::uniform_int_distribution<std::size_t> when(5 * 21600, 110 * 21600);
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t at = when(gen);
    const float value = bad[trial % 3];
    SCOPED_TRACE(testing::Message() << "value " << value << " at " << at);
    const std::size_t want = ensembles_after(clean, at, &unused);
    ASSERT_GE(want, 1U) << "the clean stream must have ensembles after " << at;
    auto dirty = clean;
    dirty[at] = value;
    std::size_t replaced = 0;
    const std::size_t got = ensembles_after(dirty, at, &replaced);
    EXPECT_EQ(replaced, 1U);
    EXPECT_LE(got, want + 1);
    EXPECT_GE(got + 1, want);
  }
}
