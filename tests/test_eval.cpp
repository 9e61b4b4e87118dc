// Evaluation harness: confusion matrices, voting, protocols on a controlled
// synthetic data set, and the corpus builder at reduced scale.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "eval/corpus_cache.hpp"
#include "eval/dataset.hpp"
#include "eval/metrics.hpp"
#include "eval/protocol.hpp"
#include "meso/baselines.hpp"
#include "meso/classifier.hpp"
#include "test_support.hpp"

namespace eval = dynriver::eval;
namespace meso = dynriver::meso;
namespace synth = dynriver::synth;

namespace {
/// Small, perfectly separable data set: class c patterns sit at c * 10.
eval::Dataset toy_dataset(std::size_t classes, std::size_t ensembles_per_class,
                          std::size_t patterns_per_ensemble) {
  eval::Dataset data;
  data.num_classes = classes;
  unsigned counter = 0;
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t e = 0; e < ensembles_per_class; ++e) {
      eval::EnsembleData ens;
      ens.label = static_cast<int>(c);
      for (std::size_t p = 0; p < patterns_per_ensemble; ++p) {
        const float jitter = 0.01F * static_cast<float>(counter++ % 17);
        ens.patterns.push_back(
            {static_cast<float>(c) * 10.0F + jitter, 1.0F + jitter});
      }
      data.ensembles.push_back(std::move(ens));
    }
  }
  return data;
}

eval::ClassifierFactory meso_factory() {
  return [] { return std::make_unique<meso::MesoClassifier>(); };
}
}  // namespace

TEST(ConfusionMatrix, CountsAndPercents) {
  eval::ConfusionMatrix cm(3);
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(0, 1);
  cm.add(2, 2);
  EXPECT_EQ(cm.count(0, 0), 2u);
  EXPECT_EQ(cm.row_total(0), 3u);
  EXPECT_EQ(cm.total(), 4u);
  EXPECT_NEAR(cm.percent(0, 0), 66.67, 0.01);
  EXPECT_NEAR(cm.percent(0, 1), 33.33, 0.01);
  EXPECT_DOUBLE_EQ(cm.percent(1, 1), 0.0);  // empty row
  EXPECT_NEAR(cm.accuracy(), 0.75, 1e-12);
}

TEST(ConfusionMatrix, MergeAccumulates) {
  eval::ConfusionMatrix a(2), b(2);
  a.add(0, 0);
  b.add(0, 1);
  b.add(1, 1);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.count(0, 1), 1u);
}

TEST(ConfusionMatrix, RendersWithLabels) {
  eval::ConfusionMatrix cm(2);
  cm.add(0, 0);
  cm.add(1, 0);
  const std::vector<std::string> labels = {"AMGO", "BCCH"};
  const auto text = cm.to_string(labels);
  EXPECT_NE(text.find("AMGO"), std::string::npos);
  EXPECT_NE(text.find("100.0"), std::string::npos);
}

TEST(Summarize, MeanAndSampleStd) {
  const std::vector<double> values = {0.8, 0.9, 1.0};
  const auto stats = eval::summarize(values);
  EXPECT_NEAR(stats.mean, 0.9, 1e-12);
  EXPECT_NEAR(stats.stddev, 0.1, 1e-12);
  EXPECT_EQ(stats.repeats, 3u);
}

TEST(MajorityVote, PicksModeAndBreaksTiesLow) {
  EXPECT_EQ(eval::majority_vote(std::vector<int>{1, 1, 2}, 3), 1);
  EXPECT_EQ(eval::majority_vote(std::vector<int>{2, 1, 1, 2}, 3), 1);  // tie -> low
  EXPECT_EQ(eval::majority_vote(std::vector<int>{0}, 3), 0);
  // Invalid votes (-1) are ignored.
  EXPECT_EQ(eval::majority_vote(std::vector<int>{-1, -1, 2}, 3), 2);
}

TEST(Protocols, PerfectDataClassifiesPerfectly) {
  const auto data = toy_dataset(4, 6, 5);
  eval::ProtocolOptions opts;
  opts.repeats = 3;

  const auto loo = eval::leave_one_out_ensemble(data, meso_factory(), opts);
  EXPECT_DOUBLE_EQ(loo.accuracy.mean, 1.0);
  EXPECT_DOUBLE_EQ(loo.accuracy.stddev, 0.0);
  EXPECT_EQ(loo.trainings, 3u * 24u);

  const auto resub = eval::resubstitution_ensemble(data, meso_factory(), opts);
  EXPECT_DOUBLE_EQ(resub.accuracy.mean, 1.0);
  EXPECT_EQ(resub.trainings, 3u);
}

TEST(Protocols, PatternVariantCountsPatterns) {
  const auto data = toy_dataset(3, 4, 5);
  eval::ProtocolOptions opts;
  opts.repeats = 2;
  opts.max_holdouts = 10;
  const auto loo = eval::leave_one_out_pattern(data, meso_factory(), opts);
  EXPECT_DOUBLE_EQ(loo.accuracy.mean, 1.0);
  EXPECT_EQ(loo.trainings, 2u * 10u);  // subsampled holdouts
  EXPECT_EQ(loo.confusion.total(), 20u);
}

TEST(Protocols, MaxHoldoutsCapsWork) {
  const auto data = toy_dataset(2, 20, 3);
  eval::ProtocolOptions opts;
  opts.repeats = 1;
  opts.max_holdouts = 7;
  const auto loo = eval::leave_one_out_ensemble(data, meso_factory(), opts);
  EXPECT_EQ(loo.trainings, 7u);
}

TEST(Protocols, ConfusionDiagonalForSeparableData) {
  const auto data = toy_dataset(3, 5, 4);
  eval::ProtocolOptions opts;
  opts.repeats = 2;
  const auto result = eval::resubstitution_ensemble(data, meso_factory(), opts);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(result.confusion.percent(c, c), 100.0, 1e-9);
  }
}

TEST(Protocols, WorkWithBaselineClassifiers) {
  const auto data = toy_dataset(3, 4, 3);
  eval::ProtocolOptions opts;
  opts.repeats = 1;
  const auto knn = eval::leave_one_out_ensemble(
      data, [] { return std::make_unique<meso::KnnClassifier>(1); }, opts);
  EXPECT_DOUBLE_EQ(knn.accuracy.mean, 1.0);
  const auto centroid = eval::leave_one_out_ensemble(
      data, [] { return std::make_unique<meso::CentroidClassifier>(); }, opts);
  EXPECT_DOUBLE_EQ(centroid.accuracy.mean, 1.0);
}

TEST(Protocols, TimingMeasuresPositiveDurations) {
  const auto data = toy_dataset(3, 10, 6);
  const auto timing = eval::measure_train_test(data, meso_factory(), 5);
  EXPECT_EQ(timing.patterns, 180u);
  EXPECT_GT(timing.train_seconds, 0.0);
  EXPECT_GT(timing.test_seconds, 0.0);
}

TEST(Dataset, PaaReductionHalvesDimensions) {
  auto data = toy_dataset(2, 2, 2);
  // Widen patterns to 10 features.
  for (auto& e : data.ensembles) {
    for (auto& p : e.patterns) p.assign(10, 3.0F);
  }
  const auto reduced = data.reduce_paa(5);
  EXPECT_EQ(reduced.ensembles[0].patterns[0].size(), 2u);
  EXPECT_FLOAT_EQ(reduced.ensembles[0].patterns[0][0], 3.0F);
  EXPECT_EQ(reduced.ensemble_count(), data.ensemble_count());
}

TEST(Dataset, PerClassCounts) {
  const auto data = toy_dataset(3, 4, 5);
  const auto ens = data.ensembles_per_class();
  const auto pat = data.patterns_per_class();
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(ens[c], 4u);
    EXPECT_EQ(pat[c], 20u);
  }
  EXPECT_EQ(data.pattern_count(), 60u);
}

TEST(PaperTable1, MatchesPublication) {
  const auto& rows = eval::paper_table1();
  int patterns = 0;
  int ensembles = 0;
  for (const auto& row : rows) {
    patterns += row.patterns;
    ensembles += row.ensembles;
  }
  EXPECT_EQ(patterns, 3673);  // paper: 3,673 patterns
  EXPECT_EQ(ensembles, 473);  // paper: 473 ensembles
  EXPECT_STREQ(rows[5].code, "MODO");
  EXPECT_EQ(rows[5].ensembles, 24);
}

TEST(CorpusBuilder, SmallScaleEndToEnd) {
  eval::BuildConfig cfg;
  cfg.corpus_scale = 0.05;  // ~1-4 songs per species: fast smoke test
  cfg.seed = 99;
  const auto result = eval::build_corpus(cfg);

  EXPECT_GT(result.dataset.ensemble_count(), 0u);
  EXPECT_GT(result.dataset.pattern_count(), result.dataset.ensemble_count());
  EXPECT_EQ(result.paa_dataset.ensemble_count(), result.dataset.ensemble_count());

  // Full-resolution and PAA twins have the paper's dimensionalities.
  EXPECT_EQ(result.dataset.ensembles[0].patterns[0].size(), 1050u);
  EXPECT_EQ(result.paa_dataset.ensembles[0].patterns[0].size(), 105u);

  // Most planted songs must be recovered.
  EXPECT_LT(result.stats.missed_songs, result.stats.clips);
  // Data reduction is substantial (paper: ~80%).
  EXPECT_GT(result.stats.reduction_fraction(), 0.5);

  // Every label is a valid species index.
  for (const auto& e : result.dataset.ensembles) {
    EXPECT_GE(e.label, 0);
    EXPECT_LT(e.label, static_cast<int>(synth::kNumSpecies));
  }
}

TEST(Protocols, ThreadedFoldsBitIdenticalToSerial) {
  // The parallel leave-one-out path must reproduce the serial results
  // exactly: same per-repetition accuracy, same confusion counts.
  const auto data = toy_dataset(4, 8, 3);
  eval::ProtocolOptions serial_opts;
  serial_opts.repeats = 3;
  serial_opts.max_holdouts = 12;
  serial_opts.threads = 1;
  eval::ProtocolOptions threaded_opts = serial_opts;
  threaded_opts.threads = 4;
  eval::ProtocolOptions shared_pool_opts = serial_opts;
  shared_pool_opts.threads = 0;

  const auto check = [&](auto&& protocol) {
    const auto serial = protocol(data, meso_factory(), serial_opts);
    const auto threaded = protocol(data, meso_factory(), threaded_opts);
    const auto shared = protocol(data, meso_factory(), shared_pool_opts);
    for (const auto* result : {&threaded, &shared}) {
      EXPECT_EQ(serial.accuracy.mean, result->accuracy.mean);
      EXPECT_EQ(serial.accuracy.stddev, result->accuracy.stddev);
      EXPECT_EQ(serial.trainings, result->trainings);
      ASSERT_EQ(serial.confusion.total(), result->confusion.total());
      for (std::size_t r = 0; r < data.num_classes; ++r) {
        for (std::size_t c = 0; c < data.num_classes; ++c) {
          EXPECT_EQ(serial.confusion.count(r, c), result->confusion.count(r, c))
              << "cell " << r << "," << c;
        }
      }
    }
  };
  check([](const auto& d, const auto& f, const auto& o) {
    return eval::leave_one_out_ensemble(d, f, o);
  });
  check([](const auto& d, const auto& f, const auto& o) {
    return eval::leave_one_out_pattern(d, f, o);
  });
}

TEST(CorpusCache, SaveLoadRoundTripsExactly) {
  const dynriver::testsupport::ScopedTempDir tmp("corpus-cache");
  eval::BuildConfig cfg;
  cfg.corpus_scale = 0.05;
  cfg.seed = 99;

  bool first_hit = true;
  const auto built = eval::load_or_build_corpus(cfg, tmp.path(), &first_hit);
  EXPECT_FALSE(first_hit);
  ASSERT_TRUE(std::filesystem::exists(eval::corpus_cache_path(tmp.path(), cfg)));

  bool second_hit = false;
  const auto loaded = eval::load_or_build_corpus(cfg, tmp.path(), &second_hit);
  EXPECT_TRUE(second_hit);

  // Datasets round-trip bit-exactly.
  ASSERT_EQ(loaded.dataset.ensemble_count(), built.dataset.ensemble_count());
  EXPECT_EQ(loaded.dataset.num_classes, built.dataset.num_classes);
  for (std::size_t e = 0; e < built.dataset.ensembles.size(); ++e) {
    const auto& a = built.dataset.ensembles[e];
    const auto& b = loaded.dataset.ensembles[e];
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.clip_id, b.clip_id);
    EXPECT_EQ(a.start_sample, b.start_sample);
    EXPECT_EQ(a.length, b.length);
    EXPECT_EQ(a.patterns, b.patterns);
  }
  ASSERT_EQ(loaded.paa_dataset.ensemble_count(),
            built.paa_dataset.ensemble_count());
  EXPECT_EQ(loaded.paa_dataset.ensembles.back().patterns,
            built.paa_dataset.ensembles.back().patterns);

  // Stats round-trip too.
  EXPECT_EQ(loaded.stats.clips, built.stats.clips);
  EXPECT_EQ(loaded.stats.total_samples, built.stats.total_samples);
  EXPECT_EQ(loaded.stats.retained_samples, built.stats.retained_samples);
  EXPECT_EQ(loaded.stats.species[0].code, built.stats.species[0].code);
  EXPECT_EQ(loaded.stats.species[0].patterns, built.stats.species[0].patterns);
}

TEST(CorpusCache, FingerprintInvalidatesOnConfigChange) {
  eval::BuildConfig base;
  base.corpus_scale = 0.05;
  base.seed = 99;
  const auto fp = eval::corpus_fingerprint(base);

  eval::BuildConfig reseeded = base;
  reseeded.seed = 100;
  EXPECT_NE(eval::corpus_fingerprint(reseeded), fp);

  eval::BuildConfig rescaled = base;
  rescaled.corpus_scale = 0.06;
  EXPECT_NE(eval::corpus_fingerprint(rescaled), fp);

  eval::BuildConfig retuned = base;
  retuned.params.trigger_sigma = 4.5;
  EXPECT_NE(eval::corpus_fingerprint(retuned), fp);

  eval::BuildConfig renoised = base;
  renoised.station.noise.wind = 0.06;
  EXPECT_NE(eval::corpus_fingerprint(renoised), fp);

  // Same config, same fingerprint (stable across calls).
  EXPECT_EQ(eval::corpus_fingerprint(base), fp);
}

TEST(CorpusCache, StaleFileForDifferentConfigMisses) {
  const dynriver::testsupport::ScopedTempDir tmp("corpus-cache-stale");
  eval::BuildConfig cfg;
  cfg.corpus_scale = 0.05;
  cfg.seed = 99;
  const auto result = eval::build_corpus(cfg);
  const auto path = eval::corpus_cache_path(tmp.path(), cfg);
  ASSERT_TRUE(eval::save_corpus(path, cfg, result));

  // A different seed must not load this file, even when pointed straight at
  // it (header fingerprint check, not just the file name).
  eval::BuildConfig other = cfg;
  other.seed = 7;
  EXPECT_FALSE(eval::load_corpus(path, other).has_value());
  EXPECT_TRUE(eval::load_corpus(path, cfg).has_value());

  // Truncated files are rejected, not crashed on.
  const auto truncated = tmp.file("trunc.drc");
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream out(truncated, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(eval::load_corpus(truncated, cfg).has_value());
}

// A file written under an older format version must miss, even when its
// config fingerprint matches: featurize output changes numerically between
// versions (version 1 patterns came from the Bluestein 900-point transform).
TEST(CorpusCache, OldFormatVersionIsRefused) {
  const dynriver::testsupport::ScopedTempDir tmp("corpus-cache-version");
  eval::BuildConfig cfg;
  cfg.corpus_scale = 0.05;
  cfg.seed = 99;
  const auto path = eval::corpus_cache_path(tmp.path(), cfg);
  ASSERT_TRUE(eval::save_corpus(path, cfg, eval::build_corpus(cfg)));
  ASSERT_TRUE(eval::load_corpus(path, cfg).has_value());

  // The header is magic (4 bytes), then the native-endian u32 version.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint32_t old_version = 1;
    f.seekp(4);
    f.write(reinterpret_cast<const char*>(&old_version), sizeof old_version);
  }
  EXPECT_FALSE(eval::load_corpus(path, cfg).has_value());
}
