// River operator implementations of the acoustic pipeline: scope handling,
// wav2rec/rec2wav, spectral stages, and end-to-end equivalence between the
// operator pipeline and the batch facades.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>
#include <span>

#include "core/birdsong.hpp"
#include "core/stream_session.hpp"
#include "core/extractor.hpp"
#include "core/features.hpp"
#include "core/ops_acoustic.hpp"
#include "core/ops_anomaly.hpp"
#include "core/ops_spectral.hpp"
#include "river/scope.hpp"
#include "synth/station.hpp"
#include "test_support.hpp"

namespace core = dynriver::core;
namespace dsp = dynriver::dsp;
namespace river = dynriver::river;
namespace synth = dynriver::synth;
using river::Record;
using river::RecordType;

namespace {
core::PipelineParams test_params() {
  core::PipelineParams p;
  return p;
}

synth::ClipRecording record_test_clip(std::uint64_t seed) {
  return dynriver::testsupport::record_station_clip(
      seed, {synth::SpeciesId::kNOCA, synth::SpeciesId::kTUTI});
}
}  // namespace

TEST(ClipToRecords, ScopedStreamShape) {
  dsp::WavClip clip;
  clip.sample_rate = 21600;
  clip.samples.assign(2000, 0.25F);
  const auto records = core::clip_to_records(clip, 7, 900);
  // open + 3 data (900+900+200) + close
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records.front().type, RecordType::kOpenScope);
  EXPECT_EQ(records.front().attr_int(core::kAttrClipId, -1), 7);
  EXPECT_DOUBLE_EQ(records.front().attr_double(core::kAttrSampleRate, 0), 21600.0);
  EXPECT_EQ(records[1].floats().size(), 900u);
  EXPECT_EQ(records[3].floats().size(), 200u);
  EXPECT_EQ(records.back().type, RecordType::kCloseScope);

  river::ScopeTracker tracker;
  for (const auto& rec : records) tracker.observe(rec);
  EXPECT_FALSE(tracker.any_open());
}

TEST(Wav2Rec, DecodesWavBytesIntoClipScope) {
  dsp::WavClip clip;
  clip.sample_rate = 21600;
  clip.samples.assign(1800, 0.5F);

  auto wav_rec = Record::data_bytes(river::kSubtypeRaw, dsp::encode_wav(clip));
  wav_rec.set_attr(core::kAttrSpecies, std::string("NOCA"));

  river::Pipeline p;
  p.emplace<core::Wav2RecOp>(900);
  const auto out = river::run_pipeline(p, {std::move(wav_rec)});
  ASSERT_EQ(out.size(), 4u);  // open + 2 data + close
  EXPECT_EQ(out.front().attr_string(core::kAttrSpecies, ""), "NOCA");
}

TEST(Rec2Wav, InverseOfClipToRecords) {
  dsp::WavClip clip;
  clip.sample_rate = 21600;
  clip.samples.resize(4321);
  for (std::size_t i = 0; i < clip.samples.size(); ++i) {
    clip.samples[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)));
  }

  river::Pipeline p;
  p.emplace<core::Rec2WavOp>(river::kScopeClip);
  const auto out =
      river::run_pipeline(p, core::clip_to_records(clip, 1, 900));
  ASSERT_EQ(out.size(), 1u);
  const auto decoded = dsp::decode_wav(out[0].bytes());
  ASSERT_EQ(decoded.samples.size(), clip.samples.size());
  for (std::size_t i = 0; i < decoded.samples.size(); i += 97) {
    EXPECT_NEAR(decoded.samples[i], clip.samples[i], 1.0F / 16000.0F);
  }
}

TEST(SaxAnomalyOp, EmitsAlignedScoreRecords) {
  river::Pipeline p;
  p.emplace<core::SaxAnomalyOp>(test_params().anomaly);

  dsp::WavClip clip;
  clip.sample_rate = 21600;
  clip.samples.assign(2700, 0.1F);
  const auto out = river::run_pipeline(p, core::clip_to_records(clip, 0, 900));
  // open, (audio, score) x3, close
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 1; i + 1 < out.size(); i += 2) {
    EXPECT_EQ(out[i].subtype, river::kSubtypeAudio);
    EXPECT_EQ(out[i + 1].subtype, river::kSubtypeAnomalyScore);
    EXPECT_EQ(out[i].floats().size(), out[i + 1].floats().size());
  }
}

TEST(TriggerOp, ConvertsScoresToBinarySignal) {
  river::Pipeline p;
  p.emplace<core::TriggerOp>(5.0, 100);

  std::vector<Record> input;
  input.push_back(Record::open_scope(river::kScopeClip, 0));
  // Flat scores (baseline), then a jump.
  river::FloatVec flat(500, 0.1F);
  for (std::size_t i = 0; i < 200; ++i) {
    flat[i] = 0.1F + 0.0001F * static_cast<float>(i % 7);
  }
  input.push_back(Record::data(river::kSubtypeAnomalyScore, flat));
  river::FloatVec jump(100, 5.0F);
  input.push_back(Record::data(river::kSubtypeAnomalyScore, jump));
  input.push_back(Record::close_scope(river::kScopeClip, 0));

  const auto out = river::run_pipeline(p, std::move(input));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[1].subtype, river::kSubtypeTrigger);
  EXPECT_EQ(out[2].subtype, river::kSubtypeTrigger);
  // All of the jump must be triggered.
  for (const float v : out[2].floats()) EXPECT_FLOAT_EQ(v, 1.0F);
}

TEST(TriggerState, LeadingZerosIgnored) {
  core::TriggerState state(5.0, 10);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(state.push(0.0));
  // Baseline must still be empty: zeros were warmup, not statistics.
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(state.push(0.5 + 0.001 * i));
  // Now the baseline has 10 entries around 0.5; a huge score triggers.
  EXPECT_TRUE(state.push(50.0));
}

TEST(TriggerState, HoldBridgesShortDips) {
  core::TriggerState state(5.0, 5, /*hold_samples=*/3);
  for (int i = 0; i < 50; ++i) (void)state.push(0.1 + 0.001 * (i % 3));
  EXPECT_TRUE(state.push(10.0));
  // Short dip below threshold: held.
  EXPECT_TRUE(state.push(0.1));
  EXPECT_TRUE(state.push(0.1));
  EXPECT_TRUE(state.push(0.1));
  // Hold exhausted: releases.
  EXPECT_FALSE(state.push(0.1));
}

TEST(TriggerState, PushBlockMatchesPushOnSpikyScores) {
  // The session's state-split block loop against the per-sample push():
  // spiky scores with dips (every hold outcome: bridged, exhausted,
  // re-fired right after a release), leading zeros, every block size
  // from 1 up, and a threshold re-tune between blocks.
  std::mt19937 gen(99);
  std::uniform_real_distribution<double> base(0.1, 0.2);
  std::vector<double> scores(40, 0.0);
  for (std::size_t i = 0; scores.size() < 20000; ++i) {
    const bool spike = (i / 40) % 5 == 4 && gen() % 4 != 0;
    scores.push_back(spike ? 5.0 + base(gen) : base(gen));
  }
  for (const std::size_t hold : {std::size_t{0}, std::size_t{1},
                                 std::size_t{3}}) {
    for (const std::size_t block : {std::size_t{1}, std::size_t{2},
                                    std::size_t{7}, std::size_t{500}}) {
      core::TriggerState want(3.0, 30, hold);
      core::TriggerState got(3.0, 30, hold);
      std::vector<std::uint8_t> want_out;
      std::vector<std::uint8_t> got_out;
      bool out = false;
      for (std::size_t pos = 0; pos < scores.size(); pos += block) {
        if (pos == 10000) {
          want.set_thresholding(2.5, 30, hold + 1);
          got.set_thresholding(2.5, 30, hold + 1);
        }
        const std::size_t n = std::min(block, scores.size() - pos);
        std::size_t next = pos;
        std::size_t done = pos;
        got.push_block(
            n, [&] { return scores[next++]; },
            [&](std::size_t j) {
              got_out.insert(got_out.end(), pos + j - done, out ? 1 : 0);
              done = pos + j;
              out = !out;
            });
        got_out.insert(got_out.end(), pos + n - done, out ? 1 : 0);
        ASSERT_EQ(out, got.active());
        for (std::size_t i = pos; i < pos + n; ++i) {
          want_out.push_back(want.push(scores[i]) ? 1 : 0);
        }
      }
      ASSERT_EQ(got_out, want_out) << "hold=" << hold << " block=" << block;
      EXPECT_EQ(got.mu0(), want.mu0());
      EXPECT_EQ(got.sigma0(), want.sigma0());
    }
  }
}

TEST(ResliceOp, InsertsOverlapRecords) {
  river::Pipeline p;
  p.emplace<core::ResliceOp>();

  river::FloatVec a(4), b(4);
  for (std::size_t i = 0; i < 4; ++i) {
    a[i] = static_cast<float>(i);          // 0 1 2 3
    b[i] = static_cast<float>(10 + i);     // 10 11 12 13
  }
  std::vector<Record> input;
  input.push_back(Record::open_scope(river::kScopeEnsemble, 0));
  input.push_back(Record::data(river::kSubtypeAudio, a));
  input.push_back(Record::data(river::kSubtypeAudio, b));
  input.push_back(Record::close_scope(river::kScopeEnsemble, 0));

  const auto out = river::run_pipeline(p, std::move(input));
  // open, a, overlap, b, close
  ASSERT_EQ(out.size(), 5u);
  const auto overlap = out[2].floats();
  ASSERT_EQ(overlap.size(), 4u);
  EXPECT_FLOAT_EQ(overlap[0], 2.0F);
  EXPECT_FLOAT_EQ(overlap[1], 3.0F);
  EXPECT_FLOAT_EQ(overlap[2], 10.0F);
  EXPECT_FLOAT_EQ(overlap[3], 11.0F);
}

TEST(ResliceOp, MismatchedSizesSkipOverlap) {
  river::Pipeline p;
  p.emplace<core::ResliceOp>();
  std::vector<Record> input;
  input.push_back(Record::data(river::kSubtypeAudio, {1.0F, 2.0F}));
  input.push_back(Record::data(river::kSubtypeAudio, {3.0F}));  // partial tail
  const auto out = river::run_pipeline(p, std::move(input));
  EXPECT_EQ(out.size(), 2u);  // no overlap inserted
}

TEST(SpectralChain, ProducesBandLimitedSpectra) {
  auto params = test_params();
  river::Pipeline p;
  p.emplace<core::WelchWindowOp>(params.window);
  p.emplace<core::Float2CplxOp>();
  p.emplace<core::DftOp>(params.dft_size);
  p.emplace<core::CAbsOp>();
  p.emplace<core::CutoutOp>(params);

  // 3 kHz tone record.
  river::FloatVec tone(900);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    tone[i] = static_cast<float>(std::sin(
        2.0 * std::numbers::pi * 3000.0 * static_cast<double>(i) / params.sample_rate));
  }
  const auto out =
      river::run_pipeline(p, {Record::data(river::kSubtypeAudio, tone)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].subtype, river::kSubtypeSpectrum);
  const auto spectrum = out[0].floats();
  ASSERT_EQ(spectrum.size(), 350u);  // paper band
  // Peak at (3000 - 1200) / 24 = bin 75.
  std::size_t peak = 0;
  for (std::size_t i = 1; i < spectrum.size(); ++i) {
    if (spectrum[i] > spectrum[peak]) peak = i;
  }
  EXPECT_EQ(peak, 75u);
}

TEST(PaaOpAndRec2Vect, MergeAndStride) {
  river::Pipeline p;
  p.emplace<core::PaaOp>(5);
  p.emplace<core::Rec2VectOp>(2, 2);

  std::vector<Record> input;
  input.push_back(Record::open_scope(river::kScopeEnsemble, 0));
  for (int r = 0; r < 4; ++r) {
    river::FloatVec spec(10, static_cast<float>(r + 1));
    input.push_back(Record::data(river::kSubtypeSpectrum, std::move(spec)));
  }
  input.push_back(Record::close_scope(river::kScopeEnsemble, 0));

  const auto out = river::run_pipeline(p, std::move(input));
  // open, pattern(r0+r1), pattern(r2+r3), close
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[1].subtype, river::kSubtypePattern);
  ASSERT_EQ(out[1].floats().size(), 4u);  // 2 records x (10/5) features
  EXPECT_FLOAT_EQ(out[1].floats()[0], 1.0F);
  EXPECT_FLOAT_EQ(out[1].floats()[2], 2.0F);
  EXPECT_FLOAT_EQ(out[2].floats()[0], 3.0F);
}

TEST(Rec2VectOp, ResetsAtScopeBoundaries) {
  river::Pipeline p;
  p.emplace<core::Rec2VectOp>(2, 1);
  std::vector<Record> input;
  input.push_back(Record::open_scope(river::kScopeEnsemble, 0));
  input.push_back(Record::data(river::kSubtypeSpectrum, {1.0F}));
  input.push_back(Record::close_scope(river::kScopeEnsemble, 0));
  input.push_back(Record::open_scope(river::kScopeEnsemble, 0));
  input.push_back(Record::data(river::kSubtypeSpectrum, {2.0F}));
  input.push_back(Record::close_scope(river::kScopeEnsemble, 0));
  const auto out = river::run_pipeline(p, std::move(input));
  // No pattern may merge record 1 with record 2 across the boundary.
  for (const auto& rec : out) {
    EXPECT_NE(rec.subtype == river::kSubtypePattern && rec.is_float() &&
                  rec.floats().size() == 2,
              true);
  }
}

TEST(FullPipeline, OutputStreamIsScopeWellFormed) {
  const auto clip = record_test_clip(77);
  auto pipeline = core::make_full_pipeline(test_params());
  const auto out = river::run_pipeline(
      pipeline, core::clip_to_records(clip.clip, 0, test_params().record_size));

  river::ScopeTracker tracker;
  std::size_t ensembles = 0;
  std::size_t patterns = 0;
  for (const auto& rec : out) {
    tracker.observe(rec);
    if (rec.type == RecordType::kOpenScope &&
        rec.scope_type == river::kScopeEnsemble) {
      ++ensembles;
    }
    if (rec.type == RecordType::kData && rec.subtype == river::kSubtypePattern) {
      ++patterns;
    }
  }
  EXPECT_FALSE(tracker.any_open());
  EXPECT_GE(ensembles, 2u);  // both planted songs found
  EXPECT_GT(patterns, ensembles);
}

TEST(FullPipeline, MatchesBatchFacades) {
  // The operator pipeline and the EnsembleExtractor+FeatureExtractor facades
  // must produce identical patterns for the same clip.
  const auto clip = record_test_clip(78);
  const auto params = test_params();

  auto pipeline = core::make_full_pipeline(params);
  const auto out = river::run_pipeline(
      pipeline, core::clip_to_records(clip.clip, 0, params.record_size));
  const auto pipeline_patterns = core::harvest_patterns(out);

  const core::EnsembleExtractor extractor(params);
  const core::FeatureExtractor features(params);
  const auto extraction = extractor.extract(clip.clip.samples);

  std::vector<std::vector<float>> facade_patterns;
  for (const auto& ensemble : extraction.ensembles) {
    for (auto& pat : features.patterns(ensemble.samples)) {
      facade_patterns.push_back(std::move(pat));
    }
  }

  ASSERT_EQ(pipeline_patterns.size(), facade_patterns.size());
  for (std::size_t i = 0; i < facade_patterns.size(); ++i) {
    ASSERT_EQ(pipeline_patterns[i].features.size(), facade_patterns[i].size());
    for (std::size_t f = 0; f < facade_patterns[i].size(); ++f) {
      EXPECT_NEAR(pipeline_patterns[i].features[f], facade_patterns[i][f], 1e-3F)
          << "pattern " << i << " feature " << f;
    }
  }
}

TEST(FullPipeline, EnsembleAttrsCarryProvenance) {
  const auto clip = record_test_clip(79);
  const auto params = test_params();
  river::AttrMap extra;
  extra.emplace(core::kAttrSpecies, std::string("NOCA"));

  const auto patterns = core::process_clip(clip.clip, 42, params, extra);
  ASSERT_FALSE(patterns.empty());
  for (const auto& p : patterns) {
    EXPECT_EQ(p.clip_id, 42);
    EXPECT_EQ(p.species, "NOCA");
    EXPECT_GE(p.ensemble_id, 0);
    EXPECT_GT(p.ensemble_samples, 0);
    EXPECT_EQ(p.features.size(), params.features_per_pattern());
  }
}

// ---------------------------------------------------------------------------
// One true cutter automaton: operator pipeline == StreamSession, exactly
// ---------------------------------------------------------------------------

namespace {

/// Run saxanomaly -> trigger -> cutter over `xs` recordized at
/// `record_size`, and compare the resulting ensembles bit-identically
/// against a StreamSession fed the same signal.
void expect_operator_matches_session(const core::PipelineParams& params,
                                     std::span<const float> xs,
                                     std::size_t record_size) {
  dsp::WavClip clip;
  clip.sample_rate = static_cast<std::uint32_t>(params.sample_rate);
  clip.samples.assign(xs.begin(), xs.end());
  auto pipeline = core::make_extraction_pipeline(params);
  const auto records = river::run_pipeline(
      pipeline, core::clip_to_records(clip, 0, record_size));
  const auto got = dynriver::testsupport::ensembles_from_records(records);

  core::StreamSession session(params);
  session.push(xs);
  const auto want = session.finish();

  ASSERT_EQ(got.size(), want.size()) << "record_size=" << record_size;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].start_sample, want[i].start_sample)
        << "record_size=" << record_size << " ensemble=" << i;
    ASSERT_EQ(got[i].samples, want[i].samples)
        << "record_size=" << record_size << " ensemble=" << i;
  }
}

core::PipelineParams small_cutter_params() {
  core::PipelineParams params;
  params.anomaly = {.window = 50, .alphabet = 6, .level = 2,
                    .ma_window = 400, .frame = 8};
  params.trigger_min_baseline = 1500;
  params.trigger_hold_samples = 300;
  params.min_ensemble_samples = 600;
  params.merge_gap_samples = 2000;
  return params;
}

}  // namespace

TEST(CutterOp, BitIdenticalToStreamSessionOnStationClips) {
  // CutterOp delegates to detail::StreamCutter — the same automaton behind
  // the sessions — so the operator path must agree with StreamSession
  // sample-for-sample on real field clips, for every recordization.
  const auto params = test_params();
  for (const std::uint64_t seed : {11ULL, 29ULL}) {
    const auto clip = dynriver::testsupport::record_station_clip(
        seed, {synth::SpeciesId::kNOCA, synth::SpeciesId::kRWBL});
    core::StreamSession probe(params);
    probe.push(clip.clip.samples);
    ASSERT_FALSE(probe.finish().empty()) << "seed=" << seed;
    for (const std::size_t record_size : {std::size_t{256}, std::size_t{900},
                                          std::size_t{4096}}) {
      expect_operator_matches_session(params, clip.clip.samples, record_size);
    }
  }
}

TEST(CutterOp, BitIdenticalToStreamSessionUnderEveryRecordization) {
  // Down-scaled parameters + synthetic events: sweep record sizes down to
  // single-sample records, where every pending/merge/floor transition is
  // crossed one FIFO element at a time.
  const auto params = small_cutter_params();
  for (const unsigned seed : {5U, 13U}) {
    const auto xs = dynriver::testsupport::noise_with_bursts(
        30000, 30000 / 4, 30000 / 6, seed);
    for (const std::size_t record_size :
         {std::size_t{1}, std::size_t{7}, std::size_t{250}, std::size_t{900},
          std::size_t{30000}}) {
      expect_operator_matches_session(params, xs, record_size);
    }
  }
}

TEST(PipelineDiagram, ListsFigure5Operators) {
  const auto diagram = core::pipeline_diagram(test_params());
  for (const char* op : {"wav2rec", "saxanomaly", "trigger", "cutter", "reslice",
                         "welchwindow", "float2cplx", "dft", "cabs", "cutout",
                         "paa", "rec2vect", "MESO"}) {
    EXPECT_NE(diagram.find(op), std::string::npos) << op;
  }
}
