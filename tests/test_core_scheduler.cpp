// SessionScheduler: host-scale multiplexing of many stations' streaming
// sessions. The load-bearing properties:
//
//   1. Routing a station's stream through the scheduler changes nothing:
//      each sink receives exactly the ensembles EnsembleExtractor::extract
//      produces for that station's signal, bit-identically, regardless of
//      lane count or how stations interleave.
//   2. The ingest queue bound is hard, and drop-oldest loss accounting is
//      exact: pushed == consumed + dropped + queued at every instant.
//   3. Live reconfigure through the scheduler equals reconfiguring a
//      hand-pumped session at the same stream position.
//   4. run() is work-conserving: a lane stuck in one station's sink never
//      holds another station back, a sink exception shuts every thread
//      down, and on_round calls never overlap.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/extractor.hpp"
#include "core/session_scheduler.hpp"
#include "core/stream_session.hpp"
#include "river/sample_io.hpp"
#include "test_support.hpp"

namespace core = dynriver::core;
namespace river = dynriver::river;
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
  auto xs = testsupport::noise_with_bursts(n, n / 4, n / 8, seed);
  const auto second = testsupport::noise_with_bursts(n, (3 * n) / 5, n / 10,
                                                     seed + 1);
  for (std::size_t i = (3 * n) / 5; i < std::min(n, (3 * n) / 5 + n / 10); ++i) {
    xs[i] += second[i] * 0.5F;
  }
  return xs;
}

/// Polls `flag` until it is set or `timeout` passes; true when it was set.
bool wait_for_flag(const std::atomic<bool>& flag,
                   std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Collects ensembles and flags finish(). With a `gate`, the first accept()
/// blocks until the gate is set (at most 10 s, then records the timeout
/// and carries on, so a scheduler that holds the gate's setter back fails
/// the test instead of hanging it).
class GatedSink final : public river::EnsembleSink {
 public:
  explicit GatedSink(const std::atomic<bool>* gate = nullptr) : gate_(gate) {}

  void accept(river::Ensemble ensemble) override {
    if (gate_ != nullptr && ensembles.empty()) {
      gate_opened = wait_for_flag(*gate_, std::chrono::seconds(10));
    }
    ensembles.push_back(std::move(ensemble));
  }
  void finish() override { finished.store(true); }

  std::vector<river::Ensemble> ensembles;
  std::atomic<bool> finished{false};
  bool gate_opened = false;

 private:
  const std::atomic<bool>* gate_;
};

void expect_same_ensembles(const std::vector<river::Ensemble>& got,
                           const std::vector<river::Ensemble>& want,
                           const std::string& station) {
  ASSERT_EQ(got.size(), want.size()) << station;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].start_sample, want[i].start_sample)
        << station << " ensemble " << i;
    ASSERT_EQ(got[i].samples, want[i].samples) << station << " ensemble " << i;
  }
}

}  // namespace

TEST(SessionScheduler, MultiStationBitIdenticalToDirectExtraction) {
  const auto params = small_params();
  const core::EnsembleExtractor extractor(params);

  constexpr std::size_t kStations = 5;
  std::vector<std::vector<float>> signals;
  std::vector<std::vector<river::Ensemble>> want;
  for (std::size_t s = 0; s < kStations; ++s) {
    signals.push_back(random_signal_with_events(60000, 100 + unsigned(s)));
    want.push_back(extractor.extract(signals.back()).ensembles);
  }
  ASSERT_TRUE(std::any_of(want.begin(), want.end(),
                          [](const auto& w) { return !w.empty(); }));

  core::SchedulerOptions options;
  options.threads = 2;  // two lanes; one lane per station keeps its order
  options.quantum_samples = 1024;
  core::SessionScheduler scheduler(options);

  std::vector<std::shared_ptr<river::CollectingEnsembleSink>> sinks;
  for (std::size_t s = 0; s < kStations; ++s) {
    core::StationConfig config;
    config.params = params;
    config.queue_capacity_samples = 4096;
    config.read_chunk_samples = 512;
    auto sink = std::make_shared<river::CollectingEnsembleSink>();
    sinks.push_back(sink);
    scheduler.add_station(
        "st" + std::to_string(s),
        std::make_shared<river::BufferSource>(signals[s], params.sample_rate),
        sink, config);
  }
  ASSERT_EQ(scheduler.station_count(), kStations);
  scheduler.run();

  const auto stats = scheduler.stats();
  for (std::size_t s = 0; s < kStations; ++s) {
    expect_same_ensembles(sinks[s]->ensembles, want[s], stats.stations[s].name);
    EXPECT_TRUE(stats.stations[s].finished);
    EXPECT_EQ(stats.stations[s].samples_in, signals[s].size());
    EXPECT_EQ(stats.stations[s].samples_consumed, signals[s].size());
    EXPECT_EQ(stats.stations[s].samples_dropped, 0U);
    EXPECT_EQ(stats.stations[s].queued_samples, 0U);
    EXPECT_EQ(stats.stations[s].ensembles_out, want[s].size());
  }
  EXPECT_EQ(stats.total_samples_dropped(), 0U);
  EXPECT_GT(stats.rounds, 0U);
}

TEST(SessionScheduler, StationStatsCountReplacedSamples) {
  // Non-finite samples are counted per station, and the station extracts
  // exactly what a session fed the cleaned stream extracts.
  const auto params = small_params();
  auto xs = random_signal_with_events(60000, 7);
  std::vector<float> cleaned = xs;
  for (const std::size_t at : {std::size_t{900}, std::size_t{16000},
                               std::size_t{16001}, std::size_t{41000}}) {
    xs[at] = at % 2 == 0 ? std::numeric_limits<float>::quiet_NaN()
                         : -std::numeric_limits<float>::infinity();
    cleaned[at] = 0.0F;
  }
  const auto want = core::EnsembleExtractor(params).extract(cleaned).ensembles;
  ASSERT_FALSE(want.empty());

  core::SessionScheduler scheduler(core::SchedulerOptions{});
  core::StationConfig config;
  config.params = params;
  config.read_chunk_samples = 512;
  auto sink = std::make_shared<river::CollectingEnsembleSink>();
  scheduler.add_station(
      "st", std::make_shared<river::BufferSource>(xs, params.sample_rate),
      sink, config);
  scheduler.run();
  expect_same_ensembles(sink->ensembles, want, "st");
  EXPECT_EQ(scheduler.stats().stations[0].samples_replaced, 4U);
}

TEST(SessionScheduler, DropOldestAccountingIsExact) {
  const auto params = small_params();
  constexpr std::size_t kChunk = 600;
  constexpr std::size_t kCapacityChunks = 4;
  constexpr std::size_t kPushed = 10;

  core::SchedulerOptions options;
  options.threads = 1;  // deterministic manual drive
  core::SessionScheduler scheduler(options);

  core::StationConfig config;
  config.params = params;
  config.policy = core::BackpressurePolicy::kDropOldest;
  config.queue_capacity_samples = kCapacityChunks * kChunk;
  auto sink = std::make_shared<river::CollectingEnsembleSink>();
  const auto id = scheduler.add_station("lossy", sink, config);

  // No processing between pushes: chunks 0..5 must be evicted, 6..9 kept.
  const auto xs = random_signal_with_events(kPushed * kChunk, 7);
  std::size_t dropped = 0;
  for (std::size_t c = 0; c < kPushed; ++c) {
    dropped += scheduler.push(
        id, std::span<const float>(xs.data() + c * kChunk, kChunk));
  }
  EXPECT_EQ(dropped, (kPushed - kCapacityChunks) * kChunk);

  auto stats = scheduler.stats();
  EXPECT_EQ(stats.stations[0].samples_in, kPushed * kChunk);
  EXPECT_EQ(stats.stations[0].samples_dropped, dropped);
  EXPECT_EQ(stats.stations[0].queued_samples, kCapacityChunks * kChunk);
  // pushed == consumed + dropped + queued, exactly.
  EXPECT_EQ(stats.stations[0].samples_in,
            stats.stations[0].samples_consumed +
                stats.stations[0].samples_dropped +
                stats.stations[0].queued_samples);

  scheduler.close_station(id);
  while (scheduler.process_available()) {
  }
  stats = scheduler.stats();
  EXPECT_TRUE(stats.stations[0].finished);
  EXPECT_EQ(stats.stations[0].queued_samples, 0U);
  EXPECT_EQ(stats.stations[0].samples_consumed, kCapacityChunks * kChunk);
  // The session saw exactly the surviving suffix, in order.
  EXPECT_EQ(scheduler.session(id).samples_consumed(), kCapacityChunks * kChunk);
}

TEST(SessionScheduler, BlockPolicyIsLosslessAndBoundsTheQueue) {
  const auto params = small_params();
  constexpr std::size_t kChunk = 512;
  constexpr std::size_t kCapacity = 2048;

  core::SchedulerOptions options;
  options.threads = 1;
  options.quantum_samples = 700;
  options.on_round = [&](const core::SchedulerStats& snapshot) {
    for (const auto& st : snapshot.stations) {
      EXPECT_LE(st.queued_samples, kCapacity);
      EXPECT_EQ(st.samples_dropped, 0U);
    }
  };
  core::SessionScheduler scheduler(std::move(options));

  core::StationConfig config;
  config.params = params;
  config.policy = core::BackpressurePolicy::kBlock;
  config.queue_capacity_samples = kCapacity;
  auto sink = std::make_shared<river::CollectingEnsembleSink>();
  const auto id = scheduler.add_station("lossless", sink, config);

  const auto xs = random_signal_with_events(60000, 21);
  const auto want = core::EnsembleExtractor(params).extract(xs);

  // The pusher blocks whenever the queue is full; the main thread drains.
  std::thread pusher([&] {
    for (std::size_t pos = 0; pos < xs.size(); pos += kChunk) {
      const std::size_t n = std::min(kChunk, xs.size() - pos);
      const std::size_t d =
          scheduler.push(id, std::span<const float>(xs.data() + pos, n));
      EXPECT_EQ(d, 0U);
    }
    scheduler.close_station(id);
  });
  while (scheduler.process_available()) {
    std::this_thread::yield();
  }
  pusher.join();

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.stations[0].samples_in, xs.size());
  EXPECT_EQ(stats.stations[0].samples_consumed, xs.size());
  EXPECT_EQ(stats.stations[0].samples_dropped, 0U);
  expect_same_ensembles(sink->ensembles, want.ensembles, "lossless");
}

TEST(SessionScheduler, ReconfigureMatchesHandPumpedSession) {
  const auto p1 = small_params();
  auto p2 = p1;
  p2.merge_gap_samples = 900;
  p2.min_ensemble_samples = 800;
  p2.trigger_hold_samples = 500;
  ASSERT_TRUE(core::reconfigure_compatible(p1, p2));

  const auto xs = random_signal_with_events(60000, 33);
  constexpr std::size_t kSplit = 20000;  // reconfigure lands mid-stream
  constexpr std::size_t kChunk = 500;

  // Reference: a hand-pumped session reconfigured at the same position.
  core::StreamSession reference(p1);
  std::vector<river::Ensemble> want;
  for (std::size_t pos = 0; pos < xs.size(); pos += kChunk) {
    if (pos == kSplit) reference.reconfigure(p2);
    reference.push(std::span<const float>(xs.data() + pos,
                                          std::min(kChunk, xs.size() - pos)));
    for (auto& e : reference.drain()) want.push_back(std::move(e));
  }
  for (auto& e : reference.finish()) want.push_back(std::move(e));

  core::SchedulerOptions options;
  options.threads = 1;
  core::SessionScheduler scheduler(options);
  core::StationConfig config;
  config.params = p1;
  config.queue_capacity_samples = 4 * kChunk;
  auto sink = std::make_shared<river::CollectingEnsembleSink>();
  const auto id = scheduler.add_station("tuned", sink, config);

  // Drain after every push so the reconfigure lands at exactly kSplit.
  for (std::size_t pos = 0; pos < xs.size(); pos += kChunk) {
    if (pos == kSplit) scheduler.reconfigure(id, p2);
    scheduler.push(id, std::span<const float>(xs.data() + pos,
                                              std::min(kChunk, xs.size() - pos)));
    (void)scheduler.process_available();
  }
  scheduler.close_station(id);
  while (scheduler.process_available()) {
  }

  EXPECT_EQ(scheduler.session(id).params().merge_gap_samples,
            p2.merge_gap_samples);
  expect_same_ensembles(sink->ensembles, want, "tuned");
}

TEST(SessionScheduler, WeightedQuantaSplitServiceProportionally) {
  // Weighted DRR: a station with twice the per-round quantum drains twice
  // the samples per round while both stations stay backlogged. threads=1
  // and manual process_available() pumping make every round deterministic:
  // each round adds the station's quantum to its deficit and drains whole
  // queued chunks while credit lasts, so with chunk-aligned quanta the
  // consumption ratio is exactly the quantum ratio — not approximately.
  const auto params = small_params();
  constexpr std::size_t kChunk = 600;
  constexpr std::size_t kChunks = 40;  // 24000-sample backlog per station

  core::SchedulerOptions options;
  options.threads = 1;
  options.quantum_samples = 1200;  // station "light" adopts this default
  core::SessionScheduler scheduler(options);

  core::StationConfig heavy_cfg;
  heavy_cfg.params = params;
  heavy_cfg.queue_capacity_samples = kChunks * kChunk;
  heavy_cfg.quantum_samples = 2400;  // 2x the scheduler-wide quantum
  core::StationConfig light_cfg = heavy_cfg;
  light_cfg.quantum_samples = 0;  // adopt options_.quantum_samples (1200)

  auto heavy_sink = std::make_shared<river::CollectingEnsembleSink>();
  auto light_sink = std::make_shared<river::CollectingEnsembleSink>();
  const auto heavy = scheduler.add_station("heavy", heavy_sink, heavy_cfg);
  const auto light = scheduler.add_station("light", light_sink, light_cfg);

  const auto xs = random_signal_with_events(kChunks * kChunk, 21);
  for (std::size_t c = 0; c < kChunks; ++c) {
    const std::span<const float> chunk(xs.data() + c * kChunk, kChunk);
    EXPECT_EQ(scheduler.push(heavy, chunk), 0U);
    EXPECT_EQ(scheduler.push(light, chunk), 0U);
  }

  // Five rounds: heavy earns 5*2400 = 12000 credit, light 5*1200 = 6000 —
  // both far below the 24000 backlog, so neither queue drains and the
  // deficit never resets.
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(scheduler.process_available());
  }

  const auto stats = scheduler.stats();
  std::size_t heavy_consumed = 0;
  std::size_t light_consumed = 0;
  for (const auto& st : stats.stations) {
    if (st.name == "heavy") heavy_consumed = st.samples_consumed;
    if (st.name == "light") light_consumed = st.samples_consumed;
  }
  EXPECT_EQ(heavy_consumed, 12000U);
  EXPECT_EQ(light_consumed, 6000U);
  EXPECT_EQ(heavy_consumed, 2 * light_consumed);

  // Draining to completion still processes every pushed sample on both —
  // weighting shifts service order, never total service.
  scheduler.close_station(heavy);
  scheduler.close_station(light);
  while (scheduler.process_available()) {
  }
  const auto final_stats = scheduler.stats();
  for (const auto& st : final_stats.stations) {
    EXPECT_EQ(st.samples_consumed, kChunks * kChunk) << st.name;
    EXPECT_TRUE(st.finished) << st.name;
  }
}

TEST(SessionScheduler, BlockedSinkDoesNotHoldOtherStationsBack) {
  // Station A's sink blocks in its first accept() until station B's sink
  // has seen finish(). A work-conserving scheduler serves B to completion on
  // the second lane meanwhile; a per-round barrier would hold B behind A's
  // unfinished visit until the gate times out.
  const auto params = small_params();
  const core::EnsembleExtractor extractor(params);
  const auto xs_a = random_signal_with_events(60000, 100);
  const auto xs_b = random_signal_with_events(60000, 101);
  const auto want_a = extractor.extract(xs_a).ensembles;
  const auto want_b = extractor.extract(xs_b).ensembles;
  ASSERT_FALSE(want_a.empty()) << "A must emit for its sink to block";

  core::SchedulerOptions options;
  options.threads = 2;
  options.quantum_samples = 1024;
  core::SessionScheduler scheduler(options);
  core::StationConfig config;
  config.params = params;
  config.queue_capacity_samples = 4096;
  config.read_chunk_samples = 512;
  auto sink_b = std::make_shared<GatedSink>();
  auto sink_a = std::make_shared<GatedSink>(&sink_b->finished);
  scheduler.add_station(
      "a", std::make_shared<river::BufferSource>(xs_a, params.sample_rate),
      sink_a, config);
  scheduler.add_station(
      "b", std::make_shared<river::BufferSource>(xs_b, params.sample_rate),
      sink_b, config);
  scheduler.run();

  EXPECT_TRUE(sink_a->gate_opened) << "station b waited for station a's lane";
  EXPECT_TRUE(sink_b->finished.load());
  expect_same_ensembles(sink_a->ensembles, want_a, "a");
  expect_same_ensembles(sink_b->ensembles, want_b, "b");
}

TEST(SessionScheduler, SinkExceptionShutsDownEveryThreadAndRethrows) {
  // The throwing station's reader is blocked on a full kBlock queue when the
  // sink throws, and the idle push-fed station (never closed) keeps the
  // other lane parked: run() can only return if the failure wakes both.
  const auto params = small_params();
  constexpr std::size_t kChunk = 512;
  constexpr std::size_t kCapacity = 2 * kChunk;
  const auto xs = random_signal_with_events(60000, 5);

  core::SchedulerOptions options;
  options.threads = 2;
  auto scheduler = std::make_unique<core::SessionScheduler>(options);

  class ThrowingSink final : public river::EnsembleSink {
   public:
    explicit ThrowingSink(const core::SessionScheduler& scheduler)
        : scheduler_(scheduler) {}
    void accept(river::Ensemble /*ensemble*/) override {
      // Throw only once the reader is stuck waiting for queue room.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (scheduler_.stats().stations[0].queued_samples < kCapacity &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      queue_was_full = scheduler_.stats().stations[0].queued_samples ==
                       kCapacity;
      throw std::runtime_error("sink failed");
    }
    bool queue_was_full = false;

   private:
    const core::SessionScheduler& scheduler_;
  };

  core::StationConfig config;
  config.params = params;
  config.policy = core::BackpressurePolicy::kBlock;
  config.queue_capacity_samples = kCapacity;
  config.read_chunk_samples = kChunk;
  auto thrower = std::make_shared<ThrowingSink>(*scheduler);
  scheduler->add_station(
      "thrower", std::make_shared<river::BufferSource>(xs, params.sample_rate),
      thrower, config);
  scheduler->add_station("idle", std::make_shared<river::NullEnsembleSink>(),
                         config);

  EXPECT_THROW(scheduler->run(), std::runtime_error);
  EXPECT_TRUE(thrower->queue_was_full);
  scheduler.reset();  // must not hang on the reader or a lane
}

TEST(SessionScheduler, OnRoundCallsNeverOverlap) {
  // Rounds close on whichever lane finishes them, while the other lane keeps
  // working; the observer itself is serialized.
  const auto params = small_params();
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::atomic<std::size_t> calls{0};
  std::vector<std::vector<float>> signals;
  for (unsigned s = 0; s < 4; ++s) {
    signals.push_back(random_signal_with_events(30000, 40 + s));
  }

  core::SchedulerOptions options;
  options.threads = 2;
  options.quantum_samples = 1024;
  options.on_round = [&](const core::SchedulerStats& /*snapshot*/) {
    const int now = in_flight.fetch_add(1) + 1;
    int seen = max_in_flight.load();
    while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    calls.fetch_add(1);
    in_flight.fetch_sub(1);
  };
  core::SessionScheduler scheduler(std::move(options));
  core::StationConfig config;
  config.params = params;
  config.queue_capacity_samples = 4096;
  config.read_chunk_samples = 512;
  for (std::size_t s = 0; s < signals.size(); ++s) {
    scheduler.add_station(
        "st" + std::to_string(s),
        std::make_shared<river::BufferSource>(signals[s], params.sample_rate),
        std::make_shared<river::NullEnsembleSink>(), config);
  }
  scheduler.run();

  const auto stats = scheduler.stats();
  EXPECT_GT(stats.rounds, 0U);
  EXPECT_EQ(calls.load(), stats.rounds);
  EXPECT_LE(max_in_flight.load(), 1);
}

namespace {

/// A source-fed and a push-fed kBlock station whose queues hold `capacity`
/// samples, filled `chunk` samples at a time, on two lanes. The producers
/// wake only at the queue's low watermark; neither may stall, lose a sample
/// or break the accounting identity at any round.
void expect_block_queues_drain(std::size_t chunk, std::size_t capacity) {
  const auto params = small_params();
  const auto fed = random_signal_with_events(60000, 61);
  const auto pushed = random_signal_with_events(60000, 62);
  const core::EnsembleExtractor extractor(params);

  core::SchedulerOptions options;
  options.threads = 2;
  options.quantum_samples = 1024;
  options.on_round = [capacity](const core::SchedulerStats& snapshot) {
    for (const auto& st : snapshot.stations) {
      EXPECT_LE(st.queued_samples, capacity) << st.name;
      EXPECT_EQ(st.samples_in, st.samples_consumed + st.samples_dropped +
                                   st.queued_samples)
          << st.name;
    }
  };
  core::SessionScheduler scheduler(std::move(options));

  core::StationConfig config;
  config.params = params;
  config.policy = core::BackpressurePolicy::kBlock;
  config.queue_capacity_samples = capacity;
  config.read_chunk_samples = chunk;
  auto fed_sink = std::make_shared<river::CollectingEnsembleSink>();
  auto pushed_sink = std::make_shared<river::CollectingEnsembleSink>();
  scheduler.add_station(
      "fed", std::make_shared<river::BufferSource>(fed, params.sample_rate),
      fed_sink, config);
  const auto id = scheduler.add_station("pushed", pushed_sink, config);

  std::thread pusher([&] {
    for (std::size_t pos = 0; pos < pushed.size(); pos += chunk) {
      const std::size_t n = std::min(chunk, pushed.size() - pos);
      EXPECT_EQ(scheduler.push(id, std::span<const float>(pushed.data() + pos, n)),
                0U);
    }
    scheduler.close_station(id);
  });
  scheduler.run();
  pusher.join();

  const auto stats = scheduler.stats();
  const std::vector<const std::vector<float>*> signals{&fed, &pushed};
  for (std::size_t s = 0; s < signals.size(); ++s) {
    const auto& st = stats.stations[s];
    EXPECT_TRUE(st.finished) << st.name;
    EXPECT_EQ(st.samples_in, signals[s]->size()) << st.name;
    EXPECT_EQ(st.samples_consumed, signals[s]->size()) << st.name;
    EXPECT_EQ(st.samples_dropped, 0U) << st.name;
    EXPECT_EQ(st.queued_samples, 0U) << st.name;
  }
  expect_same_ensembles(fed_sink->ensembles, extractor.extract(fed).ensembles,
                        "fed");
  expect_same_ensembles(pushed_sink->ensembles,
                        extractor.extract(pushed).ensembles, "pushed");
}

}  // namespace

TEST(SessionScheduler, BlockQueueOfExactlyOneChunkDrainsLosslessly) {
  // The only room a waiting producer can get is an empty queue.
  expect_block_queues_drain(512, 512);
}

TEST(SessionScheduler, BlockQueueOfOneAndAHalfChunksDrainsLosslessly) {
  // A waiting producer needs the queue below its low watermark (384
  // samples) before its chunk fits.
  expect_block_queues_drain(512, 768);
}

TEST(SessionScheduler, ShutdownWakesAPushBlockedOnAFullQueue) {
  // A push() caller is blocked on a full one-chunk kBlock queue when the
  // sink throws. run() must rethrow, the blocked push() must return without
  // enqueuing (so the pusher can be joined), and the accounting identity
  // must hold for what was accepted.
  const auto params = small_params();
  constexpr std::size_t kChunk = 512;
  const auto xs = random_signal_with_events(60000, 5);
  std::atomic<std::size_t> attempts{0};
  std::atomic<std::size_t> returned{0};

  core::SchedulerOptions options;
  options.threads = 2;
  core::SessionScheduler scheduler(options);

  class ThrowingSink final : public river::EnsembleSink {
   public:
    ThrowingSink(const core::SessionScheduler& scheduler,
                 const std::atomic<std::size_t>& attempts,
                 const std::atomic<std::size_t>& returned)
        : scheduler_(scheduler), attempts_(attempts), returned_(returned) {}
    void accept(river::Ensemble /*ensemble*/) override {
      // Throw only once the queue is full and a push() is in flight.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!blocked() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      producer_was_blocked = blocked();
      throw std::runtime_error("sink failed");
    }
    bool producer_was_blocked = false;

   private:
    [[nodiscard]] bool blocked() const {
      return scheduler_.stats().stations[0].queued_samples == kChunk &&
             attempts_.load() > returned_.load();
    }
    const core::SessionScheduler& scheduler_;
    const std::atomic<std::size_t>& attempts_;
    const std::atomic<std::size_t>& returned_;
  };

  core::StationConfig config;
  config.params = params;
  config.policy = core::BackpressurePolicy::kBlock;
  config.queue_capacity_samples = kChunk;
  config.read_chunk_samples = kChunk;
  auto sink = std::make_shared<ThrowingSink>(scheduler, attempts, returned);
  const auto id = scheduler.add_station("pushed", sink, config);

  std::thread pusher([&] {
    for (std::size_t pos = 0; pos < xs.size(); pos += kChunk) {
      const std::size_t n = std::min(kChunk, xs.size() - pos);
      attempts.fetch_add(1);
      EXPECT_EQ(scheduler.push(id, std::span<const float>(xs.data() + pos, n)),
                0U);
      returned.fetch_add(1);
    }
  });
  EXPECT_THROW(scheduler.run(), std::runtime_error);
  pusher.join();
  EXPECT_TRUE(sink->producer_was_blocked);

  const auto st = scheduler.stats().stations[0];
  EXPECT_LT(st.samples_in, xs.size()) << "pushes after shutdown were queued";
  EXPECT_LE(st.queued_samples, kChunk);
  EXPECT_EQ(st.samples_dropped, 0U);
  EXPECT_EQ(st.samples_in,
            st.samples_consumed + st.samples_dropped + st.queued_samples);
}
