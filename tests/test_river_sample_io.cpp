// Sample sources and ensemble sinks (river/sample_io.hpp): chunked reads,
// end-of-stream semantics, clean/abnormal close reporting, WAV streaming
// equivalence, and segment-store / channel round trips.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dsp/wav.hpp"
#include "river/channel.hpp"
#include "river/record.hpp"
#include "river/sample_io.hpp"
#include "river/segment_store.hpp"
#include "test_support.hpp"

namespace dsp = dynriver::dsp;
namespace river = dynriver::river;
namespace testsupport = dynriver::testsupport;
using river::Record;

namespace {

std::vector<float> ramp(std::size_t n) {
  std::vector<float> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<float>(i) * 0.001F;
  return xs;
}

/// Drain a source in `chunk`-sized reads.
std::vector<float> drain(river::SampleSource& source, std::size_t chunk) {
  std::vector<float> out;
  std::vector<float> buf(chunk);
  for (;;) {
    const std::size_t n = source.read(buf);
    if (n == 0) break;
    out.insert(out.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return out;
}

}  // namespace

TEST(BufferSource, ReadsEverySampleThenZero) {
  const auto xs = ramp(1000);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{256}, std::size_t{2000}}) {
    river::BufferSource source(xs, 21600.0);
    EXPECT_EQ(source.sample_rate(), 21600.0);
    EXPECT_EQ(drain(source, chunk), xs) << "chunk=" << chunk;
    std::vector<float> more(8);
    EXPECT_EQ(source.read(more), 0U);  // stays at end
  }
}

TEST(FunctionSource, WrapsAnyGenerator) {
  std::size_t served = 0;
  river::FunctionSource source(
      [&](std::span<float> out) {
        const std::size_t n = std::min<std::size_t>(out.size(), 100 - served);
        for (std::size_t i = 0; i < n; ++i) {
          out[i] = static_cast<float>(served + i);
        }
        served += n;
        return n;
      },
      360.0);
  const auto got = drain(source, 33);
  ASSERT_EQ(got.size(), 100U);
  EXPECT_EQ(got.front(), 0.0F);
  EXPECT_EQ(got.back(), 99.0F);
  EXPECT_EQ(source.sample_rate(), 360.0);
}

class SampleIoFileTest : public testsupport::TempDirTest {};

TEST_F(SampleIoFileTest, WavFileSourceMatchesBatchReader) {
  // Stereo clip: streaming must downmix exactly like read_wav + to_mono.
  dsp::WavClip clip;
  clip.sample_rate = 21600;
  clip.channels = 2;
  clip.samples = ramp(2 * 4321);
  const auto path = temp_file("stereo.wav");
  dsp::write_wav(path, clip);

  const auto want = dsp::to_mono(dsp::read_wav(path));
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{900},
                                  std::size_t{10000}}) {
    river::WavFileSource source(path);
    EXPECT_EQ(source.sample_rate(), 21600.0);
    EXPECT_EQ(drain(source, chunk), want) << "chunk=" << chunk;
  }
}

TEST_F(SampleIoFileTest, WavStreamReaderReportsShape) {
  dsp::WavClip clip;
  clip.sample_rate = 8000;
  clip.channels = 1;
  clip.samples = ramp(777);
  const auto path = temp_file("mono.wav");
  dsp::write_wav(path, clip);

  dsp::WavStreamReader reader(path);
  EXPECT_EQ(reader.sample_rate(), 8000U);
  EXPECT_EQ(reader.channels(), 1U);
  EXPECT_EQ(reader.total_frames(), 777U);
  std::vector<float> buf(777);
  EXPECT_EQ(reader.read_mono(buf), 777U);
  EXPECT_EQ(reader.frames_read(), 777U);
  EXPECT_EQ(reader.read_mono(buf), 0U);
}

TEST_F(SampleIoFileTest, EnsembleRecordsCarryProvenance) {
  const river::Ensemble ensemble{12345, ramp(600)};
  const auto records = river::ensemble_to_records(ensemble, 3, 21600.0);
  ASSERT_EQ(records.size(), 3U);
  EXPECT_EQ(records[0].type, river::RecordType::kOpenScope);
  EXPECT_EQ(records[0].scope_type, river::kScopeEnsemble);
  EXPECT_EQ(records[0].attr_int(river::kAttrEnsembleId, -1), 3);
  EXPECT_EQ(records[0].attr_int(river::kAttrStartSample, -1), 12345);
  EXPECT_EQ(records[0].attr_int(river::kAttrNumSamples, -1), 600);
  EXPECT_EQ(records[0].attr_double(river::kAttrSampleRate, 0.0), 21600.0);
  EXPECT_EQ(records[1].subtype, river::kSubtypeAudio);
  EXPECT_EQ(records[1].floats().size(), 600U);
  EXPECT_EQ(records[2].type, river::RecordType::kCloseScope);
}

TEST_F(SampleIoFileTest, RecordSampleSourceLearnsRateFromDataAttrs) {
  // Self-describing data records (segment-store replay seeking past the
  // clip scope) still teach the source its rate.
  const auto dir = temp_file("selfdesc");
  {
    river::SegmentedRecordLog log(dir);
    auto rec = Record::data(river::kSubtypeAudio, ramp(64));
    rec.set_attr(river::kAttrSampleRate, 12345.0);
    log.append(rec, 0.0);
    log.close();
  }
  river::SegmentStoreSource source(dir);
  EXPECT_EQ(source.sample_rate(), 0.0);
  EXPECT_EQ(drain(source, 64), ramp(64));
  EXPECT_EQ(source.sample_rate(), 12345.0);
  EXPECT_TRUE(source.clean());
}

TEST(RecordChannelSource, StreamsAudioAndReportsCleanClose) {
  auto channel = std::make_shared<river::InProcessChannel>(64);
  const auto xs = ramp(2000);

  Record open = Record::open_scope(river::kScopeClip, 0);
  open.set_attr(river::kAttrSampleRate, 21600.0);
  channel->send(std::move(open));
  for (std::size_t pos = 0; pos < xs.size(); pos += 900) {
    const std::size_t n = std::min<std::size_t>(900, xs.size() - pos);
    channel->send(Record::data(
        river::kSubtypeAudio,
        river::FloatVec(xs.begin() + static_cast<std::ptrdiff_t>(pos),
                        xs.begin() + static_cast<std::ptrdiff_t>(pos + n))));
  }
  channel->send(Record::close_scope(river::kScopeClip, 0));
  channel->close();

  river::RecordChannelSource source(channel);
  EXPECT_EQ(source.sample_rate(), 0.0);  // no records pulled yet
  EXPECT_EQ(drain(source, 333), xs);
  EXPECT_EQ(source.sample_rate(), 21600.0);  // learned from the OpenScope
  EXPECT_TRUE(source.clean());
}

TEST(RecordChannelSource, DisconnectReportsAbnormalEnd) {
  auto channel = std::make_shared<river::InProcessChannel>(64);
  channel->send(Record::data(river::kSubtypeAudio, river::FloatVec(100, 0.5F)));
  channel->disconnect();

  river::RecordChannelSource source(channel);
  const auto got = drain(source, 64);
  // An InProcessChannel disconnect loses in-flight records by design; the
  // source surfaces the abnormal end instead of hanging or throwing.
  EXPECT_TRUE(got.empty());
  EXPECT_FALSE(source.clean());
  EXPECT_TRUE(source.exhausted());
}

TEST(ChannelEnsembleSink, ShipsScopedRecordsAndCloses) {
  auto channel = std::make_shared<river::InProcessChannel>(64);
  {
    river::ChannelEnsembleSink sink(channel, 21600.0);
    sink.accept(river::Ensemble{42, ramp(120)});
    sink.finish();
    EXPECT_EQ(sink.dropped(), 0U);
  }

  // Receivable as a RecordChannelSource on the other end.
  river::RecordChannelSource source(channel);
  EXPECT_EQ(drain(source, 64), ramp(120));
  EXPECT_TRUE(source.clean());
  EXPECT_EQ(source.records_in(), 3U);
}

TEST(Sinks, CallbackCollectingAndNull) {
  std::size_t called = 0;
  river::CallbackEnsembleSink callback([&](river::Ensemble e) {
    ++called;
    EXPECT_EQ(e.start_sample, 7U);
  });
  callback.accept(river::Ensemble{7, ramp(10)});
  EXPECT_EQ(called, 1U);

  river::CollectingEnsembleSink collecting;
  collecting.accept(river::Ensemble{1, ramp(4)});
  collecting.accept(river::Ensemble{2, ramp(5)});
  ASSERT_EQ(collecting.ensembles.size(), 2U);
  EXPECT_EQ(collecting.ensembles[1].length(), 5U);

  river::NullEnsembleSink null_sink;
  null_sink.accept(river::Ensemble{3, ramp(6)});  // no observable effect
  null_sink.finish();
}
