// Common utilities: contracts, running statistics, moving average, RNG.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <random>
#include <stdexcept>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "moving_average.hpp"

using dynriver::testsupport::MovingAverage;
using dynriver::Rng;
using dynriver::RunningStats;

TEST(Contracts, ViolationsThrowWithLocation) {
  try {
    DR_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const dynriver::ContractViolation& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Contracts, EnsuresAndAssertDistinguished) {
  EXPECT_THROW(DR_ENSURES(false), dynriver::ContractViolation);
  EXPECT_THROW(DR_ASSERT(false), dynriver::ContractViolation);
  EXPECT_NO_THROW(DR_EXPECTS(true));
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats rs;
  const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (const double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 4.0);      // population
  EXPECT_DOUBLE_EQ(rs.stddev(), 2.0);
  EXPECT_NEAR(rs.sample_variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStats, FewSamplesHaveZeroVariance) {
  RunningStats rs;
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  rs.add(42.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 42.0);
}

TEST(RunningStats, ResetClears) {
  RunningStats rs;
  rs.add(1.0);
  rs.add(2.0);
  rs.reset();
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
}

TEST(RunningStats, NumericallyStableWithLargeOffsets) {
  RunningStats rs;
  // Classic catastrophic-cancellation case for naive sum-of-squares.
  for (int i = 0; i < 1000; ++i) rs.add(1e9 + (i % 2));
  EXPECT_NEAR(rs.variance(), 0.25, 1e-6);
}

TEST(MovingAverage, WarmupAveragesSeenValues) {
  MovingAverage ma(4);
  EXPECT_DOUBLE_EQ(ma.push(2.0), 2.0);
  EXPECT_DOUBLE_EQ(ma.push(4.0), 3.0);
  EXPECT_DOUBLE_EQ(ma.push(6.0), 4.0);
}

TEST(MovingAverage, SlidesAfterFilling) {
  MovingAverage ma(3);
  ma.push(1.0);
  ma.push(2.0);
  ma.push(3.0);
  EXPECT_DOUBLE_EQ(ma.push(4.0), 3.0);   // (2+3+4)/3
  EXPECT_DOUBLE_EQ(ma.push(10.0), 17.0 / 3.0);
  EXPECT_EQ(ma.size(), 3u);
}

TEST(MovingAverage, WindowOneTracksInput) {
  MovingAverage ma(1);
  EXPECT_DOUBLE_EQ(ma.push(5.0), 5.0);
  EXPECT_DOUBLE_EQ(ma.push(-1.0), -1.0);
}

TEST(MovingAverage, RejectsZeroWindow) {
  EXPECT_THROW(MovingAverage{0}, dynriver::ContractViolation);
}

TEST(MovingAverage, ResetRestartsWarmup) {
  MovingAverage ma(3);
  ma.push(9.0);
  ma.reset();
  EXPECT_DOUBLE_EQ(ma.value(), 0.0);
  EXPECT_DOUBLE_EQ(ma.push(1.0), 1.0);
}

namespace {

/// Reference for the run-length-encoded window: an explicit per-sample FIFO
/// with the exact running-sum arithmetic (evict-subtract, add, multiply by
/// the stored reciprocal) the pre-RLE sample ring used. The RLE window must
/// match it bit-for-bit for ANY input — distinct values just degrade to
/// length-1 runs.
class SampleRingReference {
 public:
  explicit SampleRingReference(std::size_t window) : window_(window) {}
  double push(double x) {
    if (buf_.size() == window_) {
      sum_ -= buf_.front();
      buf_.pop_front();
    } else {
      inv_size_ = 1.0 / static_cast<double>(buf_.size() + 1);
    }
    buf_.push_back(x);
    sum_ += x;
    return sum_ * inv_size_;
  }

 private:
  std::size_t window_;
  std::deque<double> buf_;
  double sum_ = 0.0;
  double inv_size_ = 0.0;
};

}  // namespace

TEST(MovingAverage, MatchesSampleRingOnDistinctValuesExactly) {
  // All-distinct input is the RLE window's worst case: every run has length
  // one and the run ring cycles exactly like the old sample ring did.
  std::mt19937 gen(77);
  std::uniform_real_distribution<double> dist(-3.0, 3.0);
  for (const std::size_t window : {1UL, 2UL, 3UL, 7UL, 64UL}) {
    MovingAverage ma(window);
    SampleRingReference ref(window);
    for (std::size_t i = 0; i < 4 * window + 37; ++i) {
      const double x = dist(gen);
      ASSERT_EQ(ma.push(x), ref.push(x)) << "window=" << window << " i=" << i;
    }
  }
}

TEST(MovingAverage, MatchesSampleRingOnRunHeavyInputExactly) {
  // Frame-constant scores (the anomaly scorer's smoothing input) produce
  // long runs; alternating values produce the shortest merge-eligible runs.
  for (const std::size_t window : {1UL, 5UL, 24UL, 250UL}) {
    MovingAverage ma(window);
    SampleRingReference ref(window);
    std::mt19937 gen(78);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::size_t i = 0;
    while (i < 6 * window + 50) {
      const double x = dist(gen);
      const std::size_t run = 1 + (gen() % 40);  // runs up to ~1.6 windows
      for (std::size_t t = 0; t < run; ++t, ++i) {
        ASSERT_EQ(ma.push(x), ref.push(x)) << "window=" << window << " i=" << i;
      }
    }
    // Alternating pair: runs never merge, eviction splits at every step.
    for (std::size_t t = 0; t < 3 * window; ++t, ++i) {
      const double x = (t % 2 == 0) ? 0.5 : -0.25;
      ASSERT_EQ(ma.push(x), ref.push(x)) << "window=" << window << " i=" << i;
    }
  }
}

TEST(MovingAverage, PushRunMatchesPushExactly) {
  // push_run is the batch scorer's hoisted fast path; it must replicate
  // push()'s exact arithmetic for every run length, including runs that
  // cross the warm-up boundary and runs longer than the window.
  std::mt19937 gen(79);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  for (const std::size_t window : {1UL, 2UL, 5UL, 24UL, 250UL}) {
    MovingAverage batched(window);
    MovingAverage streamed(window);
    std::size_t total = 0;
    std::size_t run = 1;
    while (total < 5 * window + 100) {
      // Repeat values sometimes so the tail-run extension path is hit too.
      const double x = (gen() % 4 == 0) ? 0.75 : dist(gen);
      std::vector<double> got(run);
      batched.push_run(x, run, got.data());
      for (std::size_t t = 0; t < run; ++t) {
        ASSERT_EQ(got[t], streamed.push(x))
            << "window=" << window << " run=" << run << " t=" << t;
      }
      total += run;
      run = run * 2 + 1;  // 1, 3, 7, ... quickly exceeds the window
      if (run > 2 * window + 7) run = 1;
    }
    // Float output narrows the same double value.
    const double x = dist(gen);
    std::vector<float> gotf(3);
    batched.push_run(x, 3, gotf.data());
    for (std::size_t t = 0; t < 3; ++t) {
      ASSERT_EQ(gotf[t], static_cast<float>(streamed.push(x))) << "t=" << t;
    }
  }
}

TEST(MeanStdHelpers, SpanOverloads) {
  const std::vector<float> xs = {1.0F, 2.0F, 3.0F, 4.0F};
  EXPECT_DOUBLE_EQ(dynriver::mean_of(std::span<const float>(xs)), 2.5);
  EXPECT_NEAR(dynriver::stddev_of(std::span<const float>(xs)),
              std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(dynriver::mean_of(std::span<const double>{}), 0.0);
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsRoughlyCorrect) {
  Rng rng(11);
  RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.add(rng.gaussian(3.0, 2.0));
  EXPECT_NEAR(rs.mean(), 3.0, 0.1);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.1);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(42);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  // Different children disagree (overwhelmingly likely).
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1.uniform_int(0, 1000000) == child2.uniform_int(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  dynriver::Stopwatch watch;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GT(sink, 0.0);  // keep the loop observable
  EXPECT_GT(watch.seconds(), 0.0);
  EXPECT_GE(watch.millis(), watch.seconds() * 1000.0 * 0.99);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  dynriver::common::ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, RespectsBeginOffsetAndEmptyRange) {
  dynriver::common::ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(10);
  pool.parallel_for(3, 7, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 3 && i < 7) ? 1 : 0);
  }
  pool.parallel_for(5, 5, [&](std::size_t) { FAIL() << "empty range ran"; });
}

TEST(ThreadPool, DeterministicWhenResultsSlottedByIndex) {
  // The determinism contract: bodies write disjoint per-index slots, the
  // caller folds serially in index order afterwards. The folded result must
  // not depend on thread count.
  const auto run = [](std::size_t threads) {
    dynriver::common::ThreadPool pool(threads);
    std::vector<double> slots(500);
    pool.parallel_for(0, slots.size(), [&](std::size_t i) {
      slots[i] = std::sin(static_cast<double>(i)) * 1e-3;
    });
    double acc = 0.0;
    for (const double v : slots) acc += v;  // fixed fold order
    return acc;
  };
  const double serial = run(1);
  const double threaded = run(8);
  EXPECT_EQ(serial, threaded);  // bit-identical, not just approximately
}

TEST(ThreadPool, PropagatesBodyException) {
  dynriver::common::ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 42) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SharedPoolIsSingletonAndUsable) {
  auto& a = dynriver::common::ThreadPool::shared();
  auto& b = dynriver::common::ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.thread_count(), 1U);
  std::atomic<std::size_t> count{0};
  a.parallel_for(0, 64, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64U);
}

TEST(ThreadPool, HonorsDrThreadsOverride) {
  // threads=0 resolves through DR_THREADS (the knob shared() uses); explicit
  // counts and malformed values are unaffected.
  ASSERT_EQ(::setenv("DR_THREADS", "3", 1), 0);
  {
    dynriver::common::ThreadPool pool(0);
    EXPECT_EQ(pool.thread_count(), 3U);
    std::atomic<std::size_t> count{0};
    pool.parallel_for(0, 16, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 16U);
  }
  {
    dynriver::common::ThreadPool pool(2);
    EXPECT_EQ(pool.thread_count(), 2U);  // explicit count wins
  }
  ASSERT_EQ(::setenv("DR_THREADS", "not-a-number", 1), 0);
  {
    dynriver::common::ThreadPool pool(0);
    EXPECT_GE(pool.thread_count(), 1U);  // falls back to hardware concurrency
  }
  ASSERT_EQ(::unsetenv("DR_THREADS"), 0);
}

TEST(ThreadPool, SequentialCallsReuseWorkers) {
  dynriver::common::ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, 20, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 1000U);
}
