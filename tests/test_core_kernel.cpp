// Bit-identity sweep of the scorer's block kernel.
//
// ts::StreamingAnomalyScorer::push_block folds whole frames, smooths every
// sample in one loop and hands each score to an inlined consumer; the C = 1
// session fuses the trigger into that loop (TriggerState::push_block). The
// per-sample path it replaced lives on in tests/support as the oracle:
// scorer push, then MovingAverage::push, then TriggerState::push, then the
// cutter's single-sample step. Over a grid of frame sizes, smoothing
// windows, bitmap levels and chunkings, the untapped session's ensembles
// and the tapped session's score/trigger series must equal the oracle's
// bit for bit — across a reset() mid-stream and a reconfigure() while an
// ensemble is open too. The trigger's block loop is also held to push() on
// its own in test_core_ops (TriggerState.PushBlockMatchesPushOnSpikyScores).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/stream_session.hpp"
#include "extraction_oracle.hpp"
#include "test_support.hpp"

namespace core = dynriver::core;
namespace river = dynriver::river;
namespace testsupport = dynriver::testsupport;

namespace {

/// 100,000 samples of noise with two burst regions, so every grid point
/// opens, merges and closes ensembles.
std::vector<float> two_burst_stream() {
  auto xs = testsupport::noise_with_bursts(100000, 25000, 15000, 5);
  const auto second = testsupport::noise_with_bursts(100000, 65000, 12000, 6);
  for (std::size_t i = 65000; i < 77000; ++i) xs[i] = second[i];
  return xs;
}

core::PipelineParams grid_params(std::size_t frame, std::size_t ma_window,
                                 std::size_t level) {
  core::PipelineParams p;
  p.anomaly.frame = frame;
  p.anomaly.ma_window = ma_window;
  p.anomaly.level = level;
  return p;
}

/// The trigger/cutter re-tune used by the reconfigure case.
core::PipelineParams retuned(core::PipelineParams p) {
  p.trigger_sigma = 4.0;
  p.trigger_hold_samples = 700;
  p.merge_gap_samples = 5000;
  p.min_ensemble_samples = 1500;
  return p;
}

/// The chunk sizes pushed: a fixed size, or 0 for the mixed sequence
/// 1, 4, 13, 40, ... that crosses frame boundaries at every phase.
struct Chunker {
  std::size_t fixed;
  std::size_t next_mixed = 1;

  std::size_t next(std::size_t remaining) {
    std::size_t n = fixed;
    if (fixed == 0) {
      n = next_mixed;
      next_mixed = next_mixed * 3 + 1;
      if (next_mixed > 5000) next_mixed = 1;
    }
    return std::min(n, remaining);
  }
};

constexpr std::size_t kChunks[] = {1, 23, 24, 25, 900, 4096, 4097, 0};

std::string chunk_name(std::size_t chunk) {
  return chunk == 0 ? "mixed" : std::to_string(chunk);
}

/// Push xs[from, to) in `chunker`'s sizes, collecting drained ensembles.
void feed(core::StreamSession& session, std::span<const float> xs,
          std::size_t from, std::size_t to, Chunker& chunker,
          std::vector<river::Ensemble>& got) {
  for (std::size_t pos = from; pos < to;) {
    const std::size_t n = chunker.next(to - pos);
    session.push(xs.subspan(pos, n));
    for (auto& e : session.drain()) got.push_back(std::move(e));
    pos += n;
  }
}

void expect_same_ensembles(const std::vector<river::Ensemble>& got,
                           const std::vector<river::Ensemble>& want) {
  ASSERT_EQ(got.size(), want.size()) << "ensemble count";
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].start_sample, want[k].start_sample) << "ensemble " << k;
    ASSERT_EQ(got[k].samples.size(), want[k].samples.size())
        << "ensemble " << k;
    EXPECT_EQ(std::memcmp(got[k].samples.data(), want[k].samples.data(),
                          got[k].samples.size() * sizeof(float)),
              0)
        << "ensemble " << k << " samples";
  }
}

/// Bitwise series comparison that reports the first differing index.
template <typename T>
void expect_same_series(const std::vector<T>& got, const std::vector<T>& want,
                        const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(T)) != 0) {
      ADD_FAILURE() << what << " differs first at sample " << i;
      return;
    }
  }
}

core::SessionOptions full_tap() {
  core::SessionOptions options;
  options.tap_capacity = core::SignalTap::kUnbounded;
  return options;
}

class KernelGrid : public ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t, std::size_t>> {
 protected:
  [[nodiscard]] core::PipelineParams params() const {
    const auto [frame, ma_window, level] = GetParam();
    return grid_params(frame, ma_window, level);
  }
};

TEST_P(KernelGrid, SessionsMatchThePerSampleOracle) {
  const auto xs = two_burst_stream();
  const core::PipelineParams p = params();
  testsupport::ExtractionOracle oracle(p);
  oracle.push(xs);
  oracle.finish();

  for (const std::size_t chunk : kChunks) {
    SCOPED_TRACE("chunk=" + chunk_name(chunk));
    for (const bool tapped : {false, true}) {
      SCOPED_TRACE(tapped ? "tapped" : "untapped");
      core::StreamSession session(p, tapped ? full_tap() : core::SessionOptions{});
      std::vector<river::Ensemble> got;
      Chunker chunker{chunk};
      feed(session, xs, 0, xs.size(), chunker, got);
      for (auto& e : session.finish()) got.push_back(std::move(e));
      expect_same_ensembles(got, oracle.ensembles());
      if (tapped) {
        expect_same_series(session.tap().scores(), oracle.scores(), "scores");
        expect_same_series(session.tap().trigger(), oracle.trigger(),
                           "trigger");
      }
    }
  }
}

TEST_P(KernelGrid, ResetMidStreamMatchesFreshOracles) {
  // Before the reset: the ensembles an oracle completed by then. After it:
  // a fresh oracle over the whole stream — so state a reset() forgets to
  // clear (a partial frame, the smoothing ring) shows here.
  const auto xs = two_burst_stream();
  const core::PipelineParams p = params();
  constexpr std::size_t kResetAt = 37013;  // inside the first burst region
  testsupport::ExtractionOracle before(p);
  before.push(std::span<const float>(xs).first(kResetAt));
  testsupport::ExtractionOracle after(p);
  after.push(xs);
  after.finish();
  std::vector<river::Ensemble> want = before.ensembles();
  want.insert(want.end(), after.ensembles().begin(), after.ensembles().end());

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{25},
                                  std::size_t{4097}, std::size_t{0}}) {
    SCOPED_TRACE("chunk=" + chunk_name(chunk));
    core::StreamSession session(p, full_tap());
    std::vector<river::Ensemble> got;
    Chunker chunker{chunk};
    feed(session, xs, 0, kResetAt, chunker, got);
    session.reset();
    feed(session, xs, 0, xs.size(), chunker, got);
    for (auto& e : session.finish()) got.push_back(std::move(e));
    expect_same_ensembles(got, want);
    expect_same_series(session.tap().scores(), after.scores(), "scores");
  }
}

TEST_P(KernelGrid, ReconfigureWhileOpenMatchesTheOracle) {
  const auto xs = two_burst_stream();
  const core::PipelineParams p = params();
  const core::PipelineParams q = retuned(p);
  for (const std::size_t at : {std::size_t{30011}, std::size_t{70007}}) {
    SCOPED_TRACE("reconfigure at " + std::to_string(at));
    testsupport::ExtractionOracle oracle(p);
    oracle.push(std::span<const float>(xs).first(at));
    oracle.reconfigure(q);
    oracle.push(std::span<const float>(xs).subspan(at));
    oracle.finish();

    for (const std::size_t chunk : {std::size_t{1}, std::size_t{24},
                                    std::size_t{4097}, std::size_t{0}}) {
      SCOPED_TRACE("chunk=" + chunk_name(chunk));
      for (const bool tapped : {false, true}) {
        SCOPED_TRACE(tapped ? "tapped" : "untapped");
        core::StreamSession session(
            p, tapped ? full_tap() : core::SessionOptions{});
        std::vector<river::Ensemble> got;
        Chunker chunker{chunk};
        feed(session, xs, 0, at, chunker, got);
        session.reconfigure(q);
        feed(session, xs, at, xs.size(), chunker, got);
        for (auto& e : session.finish()) got.push_back(std::move(e));
        expect_same_ensembles(got, oracle.ensembles());
        if (tapped) {
          expect_same_series(session.tap().scores(), oracle.scores(),
                             "scores");
          expect_same_series(session.tap().trigger(), oracle.trigger(),
                             "trigger");
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FrameWindowLevel, KernelGrid,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{5},
                                         std::size_t{24}),
                       ::testing::Values(std::size_t{3}, std::size_t{400},
                                         std::size_t{2250}),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3})));

TEST(KernelSweep, GridExercisesTheCutterAndTheDeferredReconfigure) {
  // The sweep above is only as strong as its stream: under the pipeline
  // defaults it must cut ensembles, and the reconfigure at 30011 must land
  // while one is open (so the session defers it to the boundary).
  const auto xs = two_burst_stream();
  const core::PipelineParams p = grid_params(24, 2250, 2);
  testsupport::ExtractionOracle oracle(p);
  oracle.push(xs);
  oracle.finish();
  EXPECT_GE(oracle.ensembles().size(), 2U);

  core::StreamSession session(p);
  session.push(std::span<const float>(xs).first(30011));
  session.reconfigure(retuned(p));
  EXPECT_TRUE(session.reconfigure_pending());
}

}  // namespace
