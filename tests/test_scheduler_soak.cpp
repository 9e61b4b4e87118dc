// Tier-2 soak: 16 stations multiplexed on one host through a
// SessionScheduler, asserting the production-critical properties the unit
// suite cannot see at small scale:
//
//   1. Fairness: under deficit round-robin with every ingest queue kept
//      full, no session starves — the spread of consumed samples across
//      stations never exceeds one read chunk (deterministic: the test
//      drives rounds itself, so the assertion is exact, not timing-lucky).
//   2. Drop accounting: under kDropOldest with deliberate overfeeding,
//      pushed == consumed + dropped + queued holds exactly at every round.
//   3. Aggregate memory: queues + sessions stay within the sum of the
//      per-station bounds at every round.
//   4. End-to-end at 16-way concurrency (reader threads + scheduler lanes,
//      exercised under ASan in CI): every stream arrives whole, losslessly,
//      and every sink receives exactly its own station's ensembles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/extractor.hpp"
#include "core/session_scheduler.hpp"
#include "river/sample_io.hpp"
#include "test_support.hpp"

namespace core = dynriver::core;
namespace river = dynriver::river;
namespace testsupport = dynriver::testsupport;

namespace {

constexpr std::size_t kStations = 16;
constexpr std::size_t kSamplesPerStation = 120000;  // ~5.5 s at paper rate
constexpr std::size_t kQueueCapacity = 8192;
constexpr std::size_t kChunk = 1024;
constexpr std::size_t kQuantum = 3000;

core::PipelineParams soak_params() {
  core::PipelineParams params;
  params.anomaly = {.window = 50, .alphabet = 6, .level = 2,
                    .ma_window = 400, .frame = 8};
  params.trigger_min_baseline = 1500;
  params.trigger_hold_samples = 300;
  params.min_ensemble_samples = 600;
  params.merge_gap_samples = 2000;
  return params;
}

std::vector<float> station_signal(std::size_t n, unsigned seed) {
  auto xs = testsupport::noise_with_bursts(n, n / 4, n / 8, seed);
  const auto second =
      testsupport::noise_with_bursts(n, (3 * n) / 5, n / 10, seed + 1);
  for (std::size_t i = (3 * n) / 5; i < std::min(n, (3 * n) / 5 + n / 10);
       ++i) {
    xs[i] += second[i] * 0.5F;
  }
  return xs;
}

std::vector<std::vector<float>> station_signals() {
  std::vector<std::vector<float>> signals;
  signals.reserve(kStations);
  for (std::size_t s = 0; s < kStations; ++s) {
    signals.push_back(
        station_signal(kSamplesPerStation, 9000 + unsigned(s) * 17));
  }
  return signals;
}

}  // namespace

TEST(SchedulerSoak, DeficitRoundRobinIsFairAndDropAccountingIsExact) {
  const auto params = soak_params();
  const auto signals = station_signals();

  core::SchedulerOptions options;
  options.quantum_samples = kQuantum;
  core::SessionScheduler scheduler(std::move(options));
  for (std::size_t s = 0; s < kStations; ++s) {
    core::StationConfig config;
    config.params = params;
    config.policy = core::BackpressurePolicy::kDropOldest;
    config.queue_capacity_samples = kQueueCapacity;
    config.read_chunk_samples = kChunk;
    scheduler.add_station("station-" + std::to_string(s),
                          std::make_shared<river::NullEnsembleSink>(), config);
  }

  // The test drives ingest and rounds itself: each pass tops every queue up
  // to capacity PLUS two extra chunks, so kDropOldest must evict exactly
  // that overfeed — then runs one scheduling round, serially on this thread.
  std::vector<std::size_t> cursor(kStations, 0);
  std::size_t fairness_rounds = 0;
  std::size_t peak_aggregate = 0;
  bool closed = false;
  for (;;) {
    auto snapshot = scheduler.stats();
    for (std::size_t s = 0; s < kStations; ++s) {
      std::size_t room_chunks =
          (kQueueCapacity - snapshot.stations[s].queued_samples) / kChunk + 2;
      while (room_chunks > 0 && cursor[s] < signals[s].size()) {
        const std::size_t n =
            std::min(kChunk, signals[s].size() - cursor[s]);
        scheduler.push(s, std::span<const float>(
                              signals[s].data() + cursor[s], n));
        cursor[s] += n;
        --room_chunks;
      }
    }
    if (!closed &&
        std::all_of(cursor.begin(), cursor.end(), [&](std::size_t c) {
          return c == kSamplesPerStation;
        })) {
      for (std::size_t s = 0; s < kStations; ++s) scheduler.close_station(s);
      closed = true;
    }
    if (!scheduler.process_available()) break;

    snapshot = scheduler.stats();
    peak_aggregate =
        std::max(peak_aggregate, snapshot.total_buffered_samples());
    std::size_t lo = kSamplesPerStation;
    std::size_t hi = 0;
    for (const auto& st : snapshot.stations) {
      // (2) Loss accounting is exact at every instant.
      ASSERT_EQ(st.samples_in,
                st.samples_consumed + st.samples_dropped + st.queued_samples)
          << st.name;
      ASSERT_LE(st.queued_samples, kQueueCapacity) << st.name;
      lo = std::min(lo, st.samples_consumed);
      hi = std::max(hi, st.samples_consumed);
    }
    // (1) Fairness, exactly: while every station still has input left, each
    // entered the round with a full queue, so deficit round-robin keeps all
    // consumed counts within one chunk of one another.
    if (std::all_of(cursor.begin(), cursor.end(), [&](std::size_t c) {
          return c < kSamplesPerStation;
        })) {
      ++fairness_rounds;
      ASSERT_LE(hi - lo, kChunk) << "a station starved under DRR";
    }
  }

  const auto stats = scheduler.stats();
  std::size_t total_dropped = 0;
  for (const auto& st : stats.stations) {
    EXPECT_TRUE(st.finished) << st.name;
    EXPECT_EQ(st.samples_in, kSamplesPerStation) << st.name;
    EXPECT_EQ(st.queued_samples, 0U) << st.name;
    // Exact final accounting: what was not consumed was dropped, to the
    // sample.
    EXPECT_EQ(st.samples_dropped, st.samples_in - st.samples_consumed)
        << st.name;
    EXPECT_GT(st.samples_dropped, 0U)
        << st.name << ": the overfeed must actually evict";
    total_dropped += st.samples_dropped;
  }
  EXPECT_EQ(stats.total_samples_dropped(), total_dropped);
  EXPECT_GT(fairness_rounds, 5U) << "fairness was barely exercised";

  std::printf("scheduler soak (drop-oldest): %zu stations, %zu rounds "
              "(%zu fairness-audited), %zu samples dropped exactly, peak "
              "aggregate buffer %zu samples\n",
              kStations, stats.rounds, fairness_rounds, total_dropped,
              peak_aggregate);
}

TEST(SchedulerSoak, SixteenStationRunIsLosslessAndBounded) {
  const auto params = soak_params();
  const auto signals = station_signals();

  const core::EnsembleExtractor extractor(params);
  std::vector<std::vector<river::Ensemble>> want;
  std::size_t want_total = 0;
  std::size_t longest = params.min_ensemble_samples;
  for (const auto& signal : signals) {
    want.push_back(extractor.extract(signal).ensembles);
    want_total += want.back().size();
    for (const auto& e : want.back()) longest = std::max(longest, e.length());
  }
  ASSERT_GT(want_total, kStations / 2) << "soak input must contain events";

  // Per-station bound: ingest queue + open ensemble + merge-gap lookahead +
  // cut slack for one undrained chunk.
  const std::size_t per_station_bound =
      kQueueCapacity + longest + params.merge_gap_samples + 2 * kChunk;

  std::size_t peak_aggregate = 0;
  core::SchedulerOptions options;
  options.threads = 0;
  options.quantum_samples = kQuantum;
  options.on_round = [&](const core::SchedulerStats& snapshot) {
    // (3) Aggregate memory bound, every round, with 16 concurrent readers.
    const std::size_t aggregate = snapshot.total_buffered_samples();
    peak_aggregate = std::max(peak_aggregate, aggregate);
    ASSERT_LE(aggregate, kStations * per_station_bound);
    for (const auto& st : snapshot.stations) {
      ASSERT_LE(st.queued_samples, kQueueCapacity) << st.name;
      ASSERT_EQ(st.samples_dropped, 0U) << st.name;
    }
  };

  core::SessionScheduler scheduler(std::move(options));
  std::vector<std::shared_ptr<river::CollectingEnsembleSink>> sinks;
  for (std::size_t s = 0; s < kStations; ++s) {
    core::StationConfig config;
    config.params = params;
    config.policy = core::BackpressurePolicy::kBlock;  // lossless ingest
    config.queue_capacity_samples = kQueueCapacity;
    config.read_chunk_samples = kChunk;
    auto sink = std::make_shared<river::CollectingEnsembleSink>();
    sinks.push_back(sink);
    scheduler.add_station(
        "station-" + std::to_string(s),
        std::make_shared<river::BufferSource>(signals[s], params.sample_rate),
        sink, config);
  }
  scheduler.run();

  const auto stats = scheduler.stats();
  std::size_t ensembles_total = 0;
  for (std::size_t s = 0; s < kStations; ++s) {
    const auto& st = stats.stations[s];
    EXPECT_TRUE(st.finished) << st.name;
    EXPECT_EQ(st.samples_in, kSamplesPerStation) << st.name;
    EXPECT_EQ(st.samples_consumed, kSamplesPerStation) << st.name;
    EXPECT_EQ(st.samples_dropped, 0U) << st.name;
    EXPECT_EQ(st.queued_samples, 0U) << st.name;
    // (4) Every sink got exactly its station's ensembles, bit-identically.
    ASSERT_EQ(sinks[s]->ensembles.size(), want[s].size()) << st.name;
    for (std::size_t i = 0; i < want[s].size(); ++i) {
      EXPECT_EQ(sinks[s]->ensembles[i].start_sample, want[s][i].start_sample);
      ASSERT_EQ(sinks[s]->ensembles[i].samples, want[s][i].samples);
    }
    ensembles_total += st.ensembles_out;
  }
  EXPECT_EQ(ensembles_total, want_total);

  std::printf("scheduler soak (run): %zu stations x %zu samples, %zu rounds, "
              "%zu ensembles, peak aggregate buffer %zu samples (bound "
              "%zu)\n",
              kStations, kSamplesPerStation, stats.rounds, ensembles_total,
              peak_aggregate, kStations * per_station_bound);
}
