// Pipeline composition: chaining, flush ordering, lambda operators.
#include <gtest/gtest.h>

#include <vector>

#include "river/pipeline.hpp"

namespace river = dynriver::river;
using river::Record;
using river::RecordType;

namespace {
/// Doubles every float payload value.
class DoubleOp final : public river::Operator {
 public:
  void process(Record rec, river::Emitter& out) override {
    if (rec.is_float()) {
      for (auto& v : rec.floats()) v *= 2.0F;
    }
    out.emit(std::move(rec));
  }
  [[nodiscard]] std::string_view name() const override { return "double"; }
};

/// Buffers everything, emits on flush (tests flush cascading).
class BufferAllOp final : public river::Operator {
 public:
  void process(Record rec, river::Emitter&) override {
    buffered_.push_back(std::move(rec));
  }
  void flush(river::Emitter& out) override {
    for (auto& rec : buffered_) out.emit(std::move(rec));
    buffered_.clear();
  }
  [[nodiscard]] std::string_view name() const override { return "buffer_all"; }

 private:
  std::vector<Record> buffered_;
};
}  // namespace

TEST(Pipeline, EmptyPipelinePassesThrough) {
  river::Pipeline p;
  auto out = river::run_pipeline(p, {Record::data(0, {1.0F})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FLOAT_EQ(out[0].floats()[0], 1.0F);
}

TEST(Pipeline, OperatorsChainInOrder) {
  river::Pipeline p;
  p.emplace<DoubleOp>().emplace<DoubleOp>();
  auto out = river::run_pipeline(p, {Record::data(0, {3.0F})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FLOAT_EQ(out[0].floats()[0], 12.0F);  // x2 twice
}

TEST(Pipeline, FlushedRecordsTraverseDownstream) {
  river::Pipeline p;
  p.emplace<BufferAllOp>().emplace<DoubleOp>();
  auto out = river::run_pipeline(p, {Record::data(0, {5.0F})});
  ASSERT_EQ(out.size(), 1u);
  // The buffered record must still pass the downstream DoubleOp on flush.
  EXPECT_FLOAT_EQ(out[0].floats()[0], 10.0F);
}

TEST(Pipeline, TopologyReportsNames) {
  river::Pipeline p;
  p.emplace<DoubleOp>().emplace<river::LambdaOperator>(
      "identity",
      [](Record rec, river::Emitter& out) { out.emit(std::move(rec)); });
  const auto names = p.topology();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "double");
  EXPECT_EQ(names[1], "identity");
}

TEST(Pipeline, LambdaOperator) {
  river::Pipeline p;
  p.emplace<river::LambdaOperator>("drop_data", [](Record rec, river::Emitter& out) {
    if (rec.type != RecordType::kData) out.emit(std::move(rec));
  });
  auto out = river::run_pipeline(
      p, {Record::open_scope(river::kScopeClip, 0), Record::data(0, {1.0F}),
          Record::close_scope(river::kScopeClip, 0)});
  EXPECT_EQ(out.size(), 2u);
}
