// Channels and stream_in/stream_out: blocking semantics, backpressure,
// clean vs abnormal termination, BadCloseScope synthesis.
#include <gtest/gtest.h>

#include <thread>

#include "river/channel.hpp"
#include "river/stream_io.hpp"

namespace river = dynriver::river;
using river::InProcessChannel;
using river::Record;
using river::RecordType;
using river::RecvStatus;

TEST(InProcessChannel, SendRecvOrder) {
  InProcessChannel ch(8);
  for (int i = 0; i < 5; ++i) {
    Record rec;
    rec.sequence = static_cast<std::uint64_t>(i);
    EXPECT_TRUE(ch.send(std::move(rec)));
  }
  Record out;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ch.recv(out), RecvStatus::kRecord);
    EXPECT_EQ(out.sequence, static_cast<std::uint64_t>(i));
  }
}

TEST(InProcessChannel, CleanCloseAfterDraining) {
  InProcessChannel ch(8);
  EXPECT_TRUE(ch.send(Record{}));
  ch.close();
  Record out;
  EXPECT_EQ(ch.recv(out), RecvStatus::kRecord);  // queued record still there
  EXPECT_EQ(ch.recv(out), RecvStatus::kClosed);
  EXPECT_FALSE(ch.send(Record{}));  // sends after close fail
}

TEST(InProcessChannel, DisconnectDropsInFlight) {
  InProcessChannel ch(8);
  EXPECT_TRUE(ch.send(Record{}));
  ch.disconnect();
  Record out;
  EXPECT_EQ(ch.recv(out), RecvStatus::kDisconnected);  // queue wiped
}

TEST(InProcessChannel, RecvForTimesOut) {
  InProcessChannel ch(8);
  Record out;
  EXPECT_EQ(ch.recv_for(out, 10), RecvStatus::kTimeout);
}

TEST(InProcessChannel, BackpressureBlocksSender) {
  InProcessChannel ch(2);
  EXPECT_TRUE(ch.send(Record{}));
  EXPECT_TRUE(ch.send(Record{}));

  std::atomic<bool> third_sent{false};
  std::thread sender([&] {
    Record rec;
    rec.sequence = 3;
    EXPECT_TRUE(ch.send(std::move(rec)));
    third_sent.store(true);
  });
  // The third send must block until the receiver makes room.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_sent.load());

  Record out;
  EXPECT_EQ(ch.recv(out), RecvStatus::kRecord);
  sender.join();
  EXPECT_TRUE(third_sent.load());
}

TEST(InProcessChannel, CrossThreadThroughput) {
  InProcessChannel ch(16);
  constexpr int kCount = 10000;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) {
      Record rec;
      rec.sequence = static_cast<std::uint64_t>(i);
      ch.send(std::move(rec));
    }
    ch.close();
  });
  Record out;
  int received = 0;
  while (ch.recv(out) == RecvStatus::kRecord) {
    EXPECT_EQ(out.sequence, static_cast<std::uint64_t>(received));
    ++received;
  }
  producer.join();
  EXPECT_EQ(received, kCount);
}

TEST(StreamInOut, CleanStreamPassesAndCloses) {
  auto ch = std::make_shared<InProcessChannel>(64);
  river::StreamOut out_op(ch);
  river::NullEmitter null;
  out_op.process(Record::open_scope(river::kScopeClip, 0), null);
  out_op.process(Record::data(river::kSubtypeAudio, {1.0F}), null);
  out_op.process(Record::close_scope(river::kScopeClip, 0), null);
  out_op.flush(null);

  river::VectorEmitter sink;
  const auto result = river::stream_in(*ch, sink);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.records_in, 3u);
  EXPECT_EQ(result.bad_closes_emitted, 0u);
  EXPECT_EQ(sink.records.size(), 3u);
}

TEST(StreamInOut, DisconnectSynthesizesBadCloses) {
  auto ch = std::make_shared<InProcessChannel>(64);
  ch->send(Record::open_scope(river::kScopeClip, 0));
  ch->send(Record::open_scope(river::kScopeEnsemble, 1));
  ch->send(Record::data(river::kSubtypeAudio, {1.0F}));
  // Upstream dies without closing its scopes. Use close() so the queued
  // records survive (a TCP FIN after partial data behaves this way).
  ch->close();

  river::VectorEmitter sink;
  const auto result = river::stream_in(*ch, sink);
  EXPECT_FALSE(result.clean);  // scopes were left open
  EXPECT_EQ(result.bad_closes_emitted, 2u);
  ASSERT_EQ(sink.records.size(), 5u);
  // Innermost first.
  EXPECT_EQ(sink.records[3].type, RecordType::kBadCloseScope);
  EXPECT_EQ(sink.records[3].scope_type, river::kScopeEnsemble);
  EXPECT_EQ(sink.records[4].type, RecordType::kBadCloseScope);
  EXPECT_EQ(sink.records[4].scope_type, river::kScopeClip);
}

TEST(StreamInOut, MalformedStreamThrowsScopeError) {
  auto ch = std::make_shared<InProcessChannel>(64);
  ch->send(Record::close_scope(river::kScopeClip, 0));  // close without open
  ch->close();
  river::VectorEmitter sink;
  EXPECT_THROW((void)river::stream_in(*ch, sink), river::ScopeError);
}

TEST(StreamInOut, PipelineVariantProcessesRecords) {
  auto ch = std::make_shared<InProcessChannel>(64);
  ch->send(Record::data(river::kSubtypeAudio, {2.0F}));
  ch->close();

  river::Pipeline pipeline;
  pipeline.emplace<river::LambdaOperator>(
      "triple", [](Record rec, river::Emitter& out) {
        for (auto& v : rec.floats()) v *= 3.0F;
        out.emit(std::move(rec));
      });
  river::VectorEmitter sink;
  const auto result = river::stream_in(*ch, pipeline, sink);
  EXPECT_TRUE(result.clean);
  ASSERT_EQ(sink.records.size(), 1u);
  EXPECT_FLOAT_EQ(sink.records[0].floats()[0], 6.0F);
}
