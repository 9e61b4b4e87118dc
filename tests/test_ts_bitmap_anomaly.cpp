// SAX bitmaps and the streaming anomaly scorer: counting semantics,
// incremental == batch equivalence, and the core behavioural property that
// the score rises when signal texture changes (tone onset in noise).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <random>

#include "common/contracts.hpp"
#include "ts/anomaly.hpp"
#include "ts/bitmap.hpp"
#include "test_support.hpp"

namespace ts = dynriver::ts;

TEST(SaxBitmap, CountsSubwords) {
  ts::SaxBitmap bm(3, 2);
  const std::vector<ts::Symbol> syms = {0, 1, 2, 1, 0};
  bm.add_all(syms);
  // Subwords: 01, 12, 21, 10.
  EXPECT_EQ(bm.total(), 4u);
  EXPECT_EQ(bm.counts()[0 * 3 + 1], 1u);
  EXPECT_EQ(bm.counts()[1 * 3 + 2], 1u);
  EXPECT_EQ(bm.counts()[2 * 3 + 1], 1u);
  EXPECT_EQ(bm.counts()[1 * 3 + 0], 1u);
}

TEST(SaxBitmap, FrequenciesSumToOne) {
  ts::SaxBitmap bm(4, 2);
  const std::vector<ts::Symbol> syms = {0, 1, 2, 3, 2, 1, 0, 0, 1};
  bm.add_all(syms);
  const auto freq = bm.frequencies();
  double sum = 0.0;
  for (const double f : freq) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(SaxBitmap, AddRemoveRoundTrip) {
  ts::SaxBitmap bm(4, 2);
  const std::vector<ts::Symbol> sub1 = {1, 2};
  const std::vector<ts::Symbol> sub2 = {3, 0};
  bm.add(sub1);
  bm.add(sub2);
  bm.add(sub1);
  EXPECT_EQ(bm.total(), 3u);
  bm.remove(sub1);
  bm.remove(sub2);
  bm.remove(sub1);
  EXPECT_EQ(bm.total(), 0u);
  for (const auto c : bm.counts()) EXPECT_EQ(c, 0u);
}

TEST(SaxBitmap, RemoveBelowZeroThrows) {
  ts::SaxBitmap bm(4, 1);
  EXPECT_THROW(bm.remove_cell(0), dynriver::ContractViolation);
}

TEST(SaxBitmap, IdenticalWindowsHaveZeroDistance) {
  ts::SaxBitmap a(4, 2);
  ts::SaxBitmap b(4, 2);
  const std::vector<ts::Symbol> syms = {0, 1, 2, 3, 0, 1, 2, 3};
  a.add_all(syms);
  b.add_all(syms);
  EXPECT_DOUBLE_EQ(ts::bitmap_distance(a, b), 0.0);
}

TEST(SaxBitmap, DisjointWindowsHaveMaximalDistance) {
  ts::SaxBitmap a(4, 1);
  ts::SaxBitmap b(4, 1);
  a.add_cell(0);
  b.add_cell(3);
  // Frequencies are unit vectors on different axes: distance sqrt(2).
  EXPECT_NEAR(ts::bitmap_distance(a, b), std::sqrt(2.0), 1e-12);
}

TEST(SaxBitmap, MismatchedConfigsThrow) {
  ts::SaxBitmap a(4, 2);
  ts::SaxBitmap b(8, 2);
  EXPECT_THROW((void)ts::bitmap_distance(a, b), dynriver::ContractViolation);
}

using dynriver::testsupport::noise_with_bursts;
using dynriver::testsupport::noise_with_tone;

TEST(StreamingAnomaly, OnsetSpikeInSampleMode) {
  // In classic per-sample mode the bitmap score marks texture *boundaries*:
  // the peak score near the onset must clearly exceed the noise baseline.
  ts::AnomalyParams params;
  params.window = 100;
  params.alphabet = 8;
  params.level = 2;
  params.ma_window = 200;

  const std::size_t tone_start = 4000;
  const auto x = noise_with_tone(8000, tone_start, 2000, 7);
  const auto scores = ts::anomaly_scores(x, params);

  double baseline = 0.0;
  for (std::size_t i = 2000; i < 3500; ++i) baseline += scores[i];
  baseline /= 1500.0;
  double peak = 0.0;
  for (std::size_t i = tone_start; i < tone_start + 600; ++i) {
    peak = std::max(peak, scores[i]);
  }
  EXPECT_GT(peak, baseline * 1.5) << "baseline=" << baseline << " peak=" << peak;
}

TEST(StreamingAnomaly, SustainedScoreInEnergyFrameMode) {
  // With energy frames (frame > 1), an event with internal on/off structure
  // (like birdsong syllables) keeps the smoothed score elevated across its
  // whole extent, which is what the trigger needs.
  ts::AnomalyParams params;
  params.window = 50;
  params.alphabet = 8;
  params.level = 2;
  params.ma_window = 500;
  params.frame = 8;

  const std::size_t tone_start = 30000;
  const auto x = noise_with_bursts(60000, tone_start, 15000, 7);
  const auto scores = ts::anomaly_scores(x, params);

  double baseline = 0.0;
  for (std::size_t i = 15000; i < 28000; ++i) baseline += scores[i];
  baseline /= 13000.0;
  double event = 0.0;
  for (std::size_t i = tone_start + 2000; i < tone_start + 12000; ++i) {
    event += scores[i];
  }
  event /= 10000.0;
  EXPECT_GT(event, baseline * 2.0) << "baseline=" << baseline
                                   << " event=" << event;
}

TEST(StreamingAnomaly, WarmupProducesZeroScores) {
  ts::AnomalyParams params;
  params.window = 50;
  params.ma_window = 10;
  ts::StreamingAnomalyScorer scorer(params);
  // Both windows need 2 * (window - level + 1) = 98 grams = 99 samples.
  std::mt19937 gen(3);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  for (std::size_t i = 0; i < 100; ++i) {
    (void)scorer.push(dist(gen));
    if (i < 98) {
      EXPECT_DOUBLE_EQ(scorer.raw_score(), 0.0) << "i=" << i;
    }
  }
  EXPECT_TRUE(scorer.warmed_up());
}

TEST(StreamingAnomaly, ResetClearsState) {
  ts::AnomalyParams params;
  params.window = 20;
  params.ma_window = 5;
  ts::StreamingAnomalyScorer scorer(params);
  std::mt19937 gen(4);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  for (int i = 0; i < 200; ++i) (void)scorer.push(dist(gen));
  EXPECT_TRUE(scorer.warmed_up());
  scorer.reset();
  EXPECT_FALSE(scorer.warmed_up());
  EXPECT_DOUBLE_EQ(scorer.raw_score(), 0.0);
}

TEST(StreamingAnomaly, IncrementalDistanceIdentityHoldsForEqualTotals) {
  // The scorer's O(1) score update relies on this identity: with equal
  // totals N, bitmap_distance(a, b) == sqrt(sum (count_a - count_b)^2) / N.
  // Drive two bitmaps through a random add/remove churn that keeps totals
  // equal (exactly the scorer's full-window regime) and compare both forms.
  std::mt19937 gen(17);
  ts::SaxBitmap a(4, 2);
  ts::SaxBitmap b(4, 2);
  std::uniform_int_distribution<std::size_t> cell(0, a.cells() - 1);
  std::vector<std::size_t> in_a;
  std::vector<std::size_t> in_b;
  for (int i = 0; i < 64; ++i) {
    in_a.push_back(cell(gen));
    a.add_cell(in_a.back());
    in_b.push_back(cell(gen));
    b.add_cell(in_b.back());
  }
  for (int step = 0; step < 200; ++step) {
    // Replace one random gram in each window, as the sliding windows do.
    std::uniform_int_distribution<std::size_t> pick(0, in_a.size() - 1);
    const std::size_t ia = pick(gen);
    a.remove_cell(in_a[ia]);
    in_a[ia] = cell(gen);
    a.add_cell(in_a[ia]);
    const std::size_t ib = pick(gen);
    b.remove_cell(in_b[ib]);
    in_b[ib] = cell(gen);
    b.add_cell(in_b[ib]);

    std::int64_t sq = 0;
    for (std::size_t c = 0; c < a.cells(); ++c) {
      const auto d = static_cast<std::int64_t>(a.counts()[c]) -
                     static_cast<std::int64_t>(b.counts()[c]);
      sq += d * d;
    }
    const double incremental =
        std::sqrt(static_cast<double>(sq)) / static_cast<double>(a.total());
    EXPECT_NEAR(incremental, ts::bitmap_distance(a, b), 1e-12)
        << "step=" << step;
  }
}

TEST(StreamingAnomaly, ScoreStaysWithinDistanceBounds) {
  // Post-warmup the incremental raw score must stay inside bitmap-distance
  // bounds [0, sqrt(2)] at every sample of a long stream (an accumulated
  // integer-state bug would drift it outside).
  ts::AnomalyParams params;
  params.window = 30;
  params.ma_window = 5;
  ts::StreamingAnomalyScorer scorer(params);
  const auto x = noise_with_tone(4000, 2000, 1000, 13);
  bool saw_positive = false;
  for (const float v : x) {
    (void)scorer.push(v);
    EXPECT_GE(scorer.raw_score(), 0.0);
    EXPECT_LE(scorer.raw_score(), std::sqrt(2.0) + 1e-12);
    saw_positive = saw_positive || scorer.raw_score() > 0.0;
  }
  EXPECT_TRUE(saw_positive);
}

TEST(StreamingAnomaly, DeterministicAcrossRuns) {
  ts::AnomalyParams params;
  const auto x = noise_with_tone(6000, 3000, 1500, 11);
  const auto s1 = ts::anomaly_scores(x, params);
  const auto s2 = ts::anomaly_scores(x, params);
  EXPECT_EQ(s1, s2);
}

TEST(StreamingAnomaly, HomogeneousSignalScoresNearZeroLate) {
  // Pure stationary noise: lag and lead windows have similar texture, so the
  // score stays small compared to a texture change.
  ts::AnomalyParams params;
  params.window = 100;
  params.ma_window = 50;
  std::mt19937 gen(5);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  std::vector<float> x(6000);
  for (auto& v : x) v = dist(gen);
  const auto scores = ts::anomaly_scores(x, params);

  double late = 0.0;
  for (std::size_t i = 5000; i < 6000; ++i) late += scores[i];
  late /= 1000.0;
  // The theoretical max bitmap distance is sqrt(2); stationary noise should
  // sit far below it.
  EXPECT_LT(late, 0.35);
}

class AnomalyParamSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(AnomalyParamSweep, DetectsOnsetAcrossConfigs) {
  const auto [window, alphabet] = GetParam();
  ts::AnomalyParams params;
  params.window = window;
  params.alphabet = alphabet;
  params.ma_window = 100;
  params.frame = 8;  // energy mode, like the acoustic pipeline

  const std::size_t tone_start = 30000;
  const auto x = noise_with_bursts(50000, tone_start, 12000, 21);
  const auto scores = ts::anomaly_scores(x, params);

  double baseline = 0.0;
  for (std::size_t i = 20000; i < 28000; ++i) baseline += scores[i];
  baseline /= 8000.0;
  double event = 0.0;
  for (std::size_t i = tone_start + 3000; i < tone_start + 10000; ++i) {
    event += scores[i];
  }
  event /= 7000.0;
  EXPECT_GT(event, baseline * 1.2)
      << "window=" << window << " alphabet=" << alphabet;
}

// The window must sit between the estimator's sampling-noise floor (too
// small: ~25 symbols of 64 bitmap cells is mostly noise) and the event's
// internal modulation period (too large: >225 symbols averages over whole
// on/off cycles and the score flattens). bench_ablation_windows sweeps the
// full range including the failing regimes.
INSTANTIATE_TEST_SUITE_P(
    Configs, AnomalyParamSweep,
    ::testing::Combine(::testing::Values(50, 100, 150),
                       ::testing::Values(4, 8, 16)));

// ---------------------------------------------------------------------------
// Chunk-sweep property: the record-granular batch path must be bit-identical
// to the incremental streaming path for EVERY chunking of the input, down to
// 1-sample pushes. Both run the one block kernel, but a whole frame folds
// in place while a frame split across calls folds from the buffer, so any
// ulp of divergence is a bug — the scores feed integer trigger decisions
// and the extractor's cut points.
// ---------------------------------------------------------------------------

TEST(StreamingAnomaly, BatchMatchesStreamingForEveryChunking) {
  for (const std::size_t frame : {1UL, 5UL, 24UL}) {
    ts::AnomalyParams params;
    params.window = 60;
    params.alphabet = 8;
    params.level = 2;
    params.ma_window = 400;
    params.frame = frame;

    const auto x = noise_with_bursts(9000, 4000, 3000, 17);

    // Reference: pure per-sample streaming.
    ts::StreamingAnomalyScorer ref(params);
    std::vector<double> want(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) want[i] = ref.push(x[i]);

    for (const std::size_t chunk : {1UL, 256UL, 900UL, 4096UL}) {
      ts::StreamingAnomalyScorer scorer(params);
      std::vector<double> got(x.size());
      for (std::size_t base = 0; base < x.size(); base += chunk) {
        const std::size_t m = std::min(chunk, x.size() - base);
        scorer.push_batch(x.data() + base, m, got.data() + base);
      }
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << "frame=" << frame << " chunk=" << chunk << " i=" << i;
      }
    }

    // Mixed chunking: alternating tiny and large records (the wire produces
    // arbitrary record boundaries) must land on the same state machine.
    {
      ts::StreamingAnomalyScorer scorer(params);
      std::vector<double> got(x.size());
      std::size_t base = 0;
      std::size_t step = 1;
      while (base < x.size()) {
        const std::size_t m = std::min(step, x.size() - base);
        scorer.push_batch(x.data() + base, m, got.data() + base);
        base += m;
        step = step * 3 + 1;  // 1, 4, 13, 40, ... crosses frame boundaries
        if (step > 2000) step = 1;
      }
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "frame=" << frame << " mixed i=" << i;
      }
    }

    // The float-out overload is the double-out value narrowed once at the
    // end — same state machine, same arithmetic.
    {
      ts::StreamingAnomalyScorer scorer(params);
      std::vector<float> gotf(x.size());
      for (std::size_t base = 0; base < x.size(); base += 900) {
        const std::size_t m = std::min<std::size_t>(900, x.size() - base);
        scorer.push_batch(x.data() + base, m, gotf.data() + base);
      }
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_EQ(gotf[i], static_cast<float>(want[i]))
            << "frame=" << frame << " float i=" << i;
      }
    }
  }
}

TEST(StreamingAnomaly, BatchMatchesStreamingAfterReset) {
  // reset() must put the batch path back on the exact streaming state.
  ts::AnomalyParams params;
  params.window = 40;
  params.ma_window = 300;
  params.frame = 24;
  const auto x = noise_with_tone(5000, 2500, 1500, 23);

  ts::StreamingAnomalyScorer scorer(params);
  std::vector<double> scratch(1234);
  scorer.push_batch(x.data(), scratch.size(), scratch.data());
  scorer.reset();

  ts::StreamingAnomalyScorer ref(params);
  std::vector<double> want(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) want[i] = ref.push(x[i]);

  std::vector<double> got(x.size());
  scorer.push_batch(x.data(), x.size(), got.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "i=" << i;
  }
}

TEST(StreamingAnomaly, NonFiniteSamplesScoreAsZeros) {
  // NaN and ±inf read as 0.0f: the scores equal those of the stream with
  // zeros in their place, bit for bit, at every chunking; denormals pass
  // unchanged. Each replaced sample is counted once.
  for (const std::size_t frame : {1UL, 24UL}) {
    ts::AnomalyParams params;
    params.window = 60;
    params.ma_window = 400;
    params.frame = frame;
    auto dirty = noise_with_bursts(9000, 4000, 3000, 29);
    auto zeroed = dirty;
    std::size_t bad = 0;
    for (std::size_t i = 2000; i < 7000; i += 337) {
      dirty[i] = (i / 337) % 3 == 0   ? std::numeric_limits<float>::quiet_NaN()
                 : (i / 337) % 3 == 1 ? std::numeric_limits<float>::infinity()
                                      : -std::numeric_limits<float>::infinity();
      zeroed[i] = 0.0F;
      ++bad;
    }
    for (std::size_t i = 7500; i < 7600; ++i) dirty[i] = zeroed[i] = 1e-42F;

    const auto want = ts::anomaly_scores(zeroed, params);
    for (const std::size_t chunk : {1UL, 7UL, 900UL}) {
      ts::StreamingAnomalyScorer scorer(params);
      std::vector<double> got(dirty.size());
      for (std::size_t base = 0; base < dirty.size(); base += chunk) {
        const std::size_t m = std::min(chunk, dirty.size() - base);
        scorer.push_batch(dirty.data() + base, m, got.data() + base);
      }
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << "frame=" << frame << " chunk=" << chunk << " i=" << i;
      }
      EXPECT_EQ(scorer.samples_replaced(), bad);
      scorer.reset();
      EXPECT_EQ(scorer.samples_replaced(), 0U);
    }
  }
}
