// Segments and the pipeline manager: threaded execution, scope-boundary
// pausing, live relocation between virtual hosts, per-host accounting.
#include <gtest/gtest.h>

#include <thread>

#include "river/manager.hpp"
#include "river/segment.hpp"

namespace river = dynriver::river;
using river::InProcessChannel;
using river::Record;
using river::RecordType;
using river::RecvStatus;

namespace {
/// Push `clips` well-formed clip scopes into a channel, then close it.
void feed_clips(river::RecordChannel& ch, int clips, int records_per_clip) {
  for (int c = 0; c < clips; ++c) {
    ch.send(Record::open_scope(river::kScopeClip, 0));
    for (int r = 0; r < records_per_clip; ++r) {
      auto rec = Record::data(river::kSubtypeAudio, {static_cast<float>(r)});
      rec.scope_depth = 1;
      ch.send(std::move(rec));
    }
    ch.send(Record::close_scope(river::kScopeClip, 0));
  }
  ch.close();
}

river::Pipeline identity_pipeline() {
  river::Pipeline p;
  p.emplace<river::LambdaOperator>(
      "identity",
      [](Record rec, river::Emitter& out) { out.emit(std::move(rec)); });
  return p;
}
}  // namespace

TEST(Segment, RunsToCleanCompletion) {
  auto in = std::make_shared<InProcessChannel>(128);
  auto out = std::make_shared<InProcessChannel>(128);
  feed_clips(*in, 3, 4);

  river::Segment segment("seg", identity_pipeline(), in, out);
  const auto stats = segment.run();
  EXPECT_EQ(stats.cause, river::SegmentStopCause::kUpstreamClosed);
  EXPECT_EQ(stats.records_in, 3u * 6u);
  EXPECT_EQ(stats.records_out, 3u * 6u);

  Record rec;
  std::size_t drained = 0;
  while (out->recv(rec) == RecvStatus::kRecord) ++drained;
  EXPECT_EQ(drained, 18u);
}

TEST(Segment, SynthesizesBadClosesWhenUpstreamDies) {
  auto in = std::make_shared<InProcessChannel>(128);
  auto out = std::make_shared<InProcessChannel>(128);
  in->send(Record::open_scope(river::kScopeClip, 0));
  in->send(Record::data(river::kSubtypeAudio, {1.0F}));
  in->close();  // dangling scope

  river::Segment segment("seg", identity_pipeline(), in, out);
  const auto stats = segment.run();
  EXPECT_EQ(stats.cause, river::SegmentStopCause::kUpstreamDisconnected);
  EXPECT_EQ(stats.bad_closes_emitted, 1u);

  Record rec;
  std::vector<Record> drained;
  while (out->recv(rec) == RecvStatus::kRecord) drained.push_back(rec);
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained.back().type, RecordType::kBadCloseScope);
}

TEST(Segment, PausesOnlyAtScopeBoundary) {
  auto in = std::make_shared<InProcessChannel>(128);
  auto out = std::make_shared<InProcessChannel>(1024);

  river::Segment segment("seg", identity_pipeline(), in, out);

  // Open a scope and feed data first, so the segment is mid-scope when the
  // pause request arrives -- it must keep processing until the close.
  in->send(Record::open_scope(river::kScopeClip, 0));
  for (int i = 0; i < 10; ++i) {
    in->send(Record::data(river::kSubtypeAudio, {1.0F}));
  }
  std::thread runner([&] {
    const auto stats = segment.run();
    EXPECT_EQ(stats.cause, river::SegmentStopCause::kPausedForRelocation);
    // All 12 records of the open clip were processed before pausing.
    EXPECT_EQ(stats.records_in, 12u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  segment.request_pause();  // mid-scope: must not take effect yet
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  in->send(Record::close_scope(river::kScopeClip, 0));
  runner.join();
}

TEST(PipelineManager, SegmentsRunAcrossHosts) {
  river::PipelineManager manager;
  manager.add_host("alpha");

  auto in = std::make_shared<InProcessChannel>(256);
  auto out = std::make_shared<InProcessChannel>(4096);
  feed_clips(*in, 5, 10);

  manager.deploy(std::make_unique<river::Segment>("seg", identity_pipeline(),
                                                  in, out),
                 "alpha");
  const auto stats = manager.wait_all();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats.at("seg").records_in, 5u * 12u);
  EXPECT_EQ(manager.host("alpha").records_processed(), 5u * 12u);
  EXPECT_EQ(manager.location_of("seg"), "");  // finished
}

TEST(PipelineManager, RelocationPreservesStreamIntegrity) {
  river::PipelineManager manager;
  manager.add_host("alpha");
  manager.add_host("beta");

  auto in = std::make_shared<InProcessChannel>(64);
  auto out = std::make_shared<InProcessChannel>(100000);

  manager.deploy(std::make_unique<river::Segment>("seg", identity_pipeline(),
                                                  in, out),
                 "alpha");
  EXPECT_EQ(manager.location_of("seg"), "alpha");

  // Feed clips from another thread while we relocate mid-stream.
  std::thread feeder([&] {
    for (int c = 0; c < 50; ++c) {
      in->send(Record::open_scope(river::kScopeClip, 0));
      for (int r = 0; r < 20; ++r) {
        auto rec = Record::data(river::kSubtypeAudio, {static_cast<float>(r)});
        rec.scope_depth = 1;
        in->send(std::move(rec));
      }
      in->send(Record::close_scope(river::kScopeClip, 0));
    }
    in->close();
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const bool moved = manager.relocate("seg", "beta");
  feeder.join();
  const auto stats = manager.wait_all();

  EXPECT_EQ(stats.at("seg").records_in, 50u * 22u);
  if (moved) {
    // Work happened on both hosts; nothing was lost or duplicated.
    EXPECT_GT(manager.host("beta").records_processed(), 0u);
    EXPECT_EQ(manager.host("alpha").records_processed() +
                  manager.host("beta").records_processed(),
              50u * 22u);
  }

  // The output stream is still scope-well-formed.
  river::ScopeTracker tracker;
  Record rec;
  std::size_t total = 0;
  while (out->recv(rec) == RecvStatus::kRecord) {
    tracker.observe(rec);
    ++total;
  }
  EXPECT_EQ(total, 50u * 22u);
  EXPECT_FALSE(tracker.any_open());
}

TEST(PipelineManager, RelocateAfterFinishReturnsFalse) {
  river::PipelineManager manager;
  manager.add_host("alpha");
  manager.add_host("beta");

  auto in = std::make_shared<InProcessChannel>(64);
  auto out = std::make_shared<InProcessChannel>(1024);
  feed_clips(*in, 1, 2);

  manager.deploy(std::make_unique<river::Segment>("seg", identity_pipeline(),
                                                  in, out),
                 "alpha");
  (void)manager.wait_all();
  EXPECT_FALSE(manager.relocate("seg", "beta"));
}
