// Ablation A5: micro-benchmarks of the individual substrate operations,
// using google-benchmark. Covers the DFT (planned vs legacy unplanned vs
// naive), SAX anomaly scoring, the trigger, full-clip extraction (single-
// and multi-stream), feature extraction, MESO training/query, wire
// encode/decode, and channel throughput.
//
// In addition to the google-benchmark cases, main() runs a small adaptive
// timing sweep over the spectral hot path and writes the results as
// machine-readable JSON (default BENCH_micro.json; override with
// DR_MICRO_JSON, shrink the per-op budget with DR_MICRO_MIN_MS — the CI
// bench-smoke step uses DR_MICRO_MIN_MS=2). Set DR_MICRO_SKIP_GBENCH=1 to
// skip the google-benchmark section and only produce the JSON.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <random>
#include <span>

#include "bench_util.hpp"
#include "core/extractor.hpp"
#include "core/features.hpp"
#include "core/multistream.hpp"
#include "core/session_scheduler.hpp"
#include "core/spectral_engine.hpp"
#include "core/stream_session.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_plan.hpp"
#include "dsp/simd.hpp"
#include "dsp/spectrogram.hpp"
#include "fft_oracle.hpp"
#include "meso/classifier.hpp"
#include "river/channel.hpp"
#include "river/sample_io.hpp"
#include "river/segment_store.hpp"
#include "river/wire.hpp"
#include "ts/anomaly.hpp"
#include "synth/station.hpp"
#include "ts/anomaly.hpp"

namespace bench = dynriver::bench;
namespace core = dynriver::core;
namespace dsp = dynriver::dsp;
namespace meso = dynriver::meso;
namespace river = dynriver::river;
namespace synth = dynriver::synth;
namespace testsupport = dynriver::testsupport;
namespace ts = dynriver::ts;

namespace {

std::vector<float> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<float> dist(0.0F, 0.3F);
  std::vector<float> out(n);
  for (auto& v : out) v = dist(gen);
  return out;
}

const synth::ClipRecording& cached_clip() {
  static const synth::ClipRecording clip = [] {
    synth::StationParams sp;
    synth::SensorStation station(sp, 31415);
    return station.record_clip(
        {synth::SpeciesId::kNOCA, synth::SpeciesId::kBCCH});
  }();
  return clip;
}

/// A second channel for the multi-stream benches: the cached clip with a
/// slight gain/noise perturbation, like a second microphone of one station.
const std::vector<float>& cached_second_channel() {
  static const std::vector<float> channel = [] {
    const auto& base = cached_clip().clip.samples;
    std::mt19937 gen(2718);
    std::normal_distribution<float> noise(0.0F, 0.002F);
    std::vector<float> out(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      out[i] = 0.9F * base[i] + noise(gen);
    }
    return out;
  }();
  return channel;
}

std::vector<dsp::Cplx> random_cplx(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<double> dist(0.0, 0.5);
  std::vector<dsp::Cplx> out(n);
  for (auto& v : out) v = dsp::Cplx(dist(gen), dist(gen));
  return out;
}

// -- DFT -----------------------------------------------------------------

void BM_FftRadix2_1024(benchmark::State& state) {
  std::vector<dsp::Cplx> data(1024, {0.5, -0.25});
  for (auto _ : state) {
    auto copy = data;
    dsp::fft_radix2(copy, false);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_FftRadix2_1024);

// Legacy unplanned path: per-call twiddles, chirp, and scratch.
void BM_FftUnplanned_900(benchmark::State& state) {
  std::vector<dsp::Cplx> data(900, {0.5, -0.25});
  for (auto _ : state) {
    auto out = testsupport::fft_unplanned(data);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FftUnplanned_900);

// Planned path: precomputed tables + reusable scratch via the plan cache.
void BM_FftPlanned_900(benchmark::State& state) {
  std::vector<dsp::Cplx> data(900, {0.5, -0.25});
  std::vector<dsp::Cplx> out(900);
  dsp::FftPlan& plan = dsp::local_plan_cache().get(900);
  for (auto _ : state) {
    plan.forward(data, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FftPlanned_900);

void BM_FftPlanned_1024(benchmark::State& state) {
  std::vector<dsp::Cplx> data(1024, {0.5, -0.25});
  std::vector<dsp::Cplx> out(1024);
  dsp::FftPlan& plan = dsp::local_plan_cache().get(1024);
  for (auto _ : state) {
    plan.forward(data, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FftPlanned_1024);

// Real-input fast path: packed half-size complex transform + Hermitian
// unpack, vs the full complex transforms above.
void BM_FftRealPlanned_900(benchmark::State& state) {
  std::vector<float> signal(900, 0.25F);
  std::vector<dsp::Cplx> out(900);
  dsp::FftPlan& plan = dsp::local_plan_cache().get(900);
  for (auto _ : state) {
    plan.forward_real(signal, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FftRealPlanned_900);

void BM_FftRealPlanned_1024(benchmark::State& state) {
  std::vector<float> signal(1024, 0.25F);
  std::vector<dsp::Cplx> out(1024);
  dsp::FftPlan& plan = dsp::local_plan_cache().get(1024);
  for (auto _ : state) {
    plan.forward_real(signal, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FftRealPlanned_1024);

// Batched windowed magnitudes (64 records of 900) through the engine.
void BM_WindowedMagsBatch64(benchmark::State& state) {
  const core::SpectralEngine engine(dynriver::dsp::WindowKind::kWelch, 900);
  const auto records = random_signal(64 * 900, 29);
  std::vector<float> out;
  for (auto _ : state) {
    engine.windowed_magnitudes_batch(records, 900, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_WindowedMagsBatch64);

void BM_DftNaive_900(benchmark::State& state) {
  std::vector<dsp::Cplx> data(900, {0.5, -0.25});
  for (auto _ : state) {
    auto out = dsp::dft_naive(data);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DftNaive_900);

// -- SAX anomaly scoring ----------------------------------------------------

void BM_AnomalyScorer_PerSample(benchmark::State& state) {
  const auto signal = random_signal(1 << 16, 7);
  ts::AnomalyParams params;
  params.frame = static_cast<std::size_t>(state.range(0));
  ts::StreamingAnomalyScorer scorer(params);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.push(signal[i]));
    i = (i + 1) & 0xFFFF;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnomalyScorer_PerSample)->Arg(1)->Arg(24);

// -- Extraction / features ----------------------------------------------------

void BM_ExtractClip30s(benchmark::State& state) {
  const core::EnsembleExtractor extractor{core::PipelineParams{}};
  const auto& clip = cached_clip();
  for (auto _ : state) {
    auto result = extractor.extract(clip.clip.samples);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(clip.clip.samples.size()));
}
BENCHMARK(BM_ExtractClip30s)->Unit(benchmark::kMillisecond);

// Two-channel extraction (streaming max fusion).
void BM_MultiStreamExtract2ch(benchmark::State& state) {
  const core::MultiStreamExtractor extractor{core::MultiStreamParams{}};
  const auto& a = cached_clip().clip.samples;
  const auto& b = cached_second_channel();
  const std::vector<std::span<const float>> streams = {a, b};
  for (auto _ : state) {
    auto result = extractor.extract(streams);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * a.size()));
}
BENCHMARK(BM_MultiStreamExtract2ch)->Unit(benchmark::kMillisecond);

// Steady-state streaming ingest: one second of the cached clip pushed
// through a warmed StreamSession in record-size chunks (taps off, ensembles
// drained). Compare against BM_ExtractClip30s / 30 for the batch cost.
void BM_StreamPushOneSecond(benchmark::State& state) {
  const core::PipelineParams params;
  core::StreamSession session{params};
  const auto& clip = cached_clip().clip.samples;
  const std::size_t second = static_cast<std::size_t>(params.sample_rate);
  // Warm the scorer/trigger baselines so iterations measure steady state.
  session.push(std::span<const float>(clip.data(), second));
  (void)session.drain();

  std::size_t pos = second;
  for (auto _ : state) {
    for (std::size_t off = 0; off < second; off += params.record_size) {
      const std::size_t n = std::min(params.record_size, second - off);
      session.push(std::span<const float>(clip.data() + pos + off, n));
    }
    benchmark::DoNotOptimize(session.drain());
    pos += second;
    if (pos + second > clip.size()) pos = 0;  // wrap over the 30 s clip
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(second));
}
BENCHMARK(BM_StreamPushOneSecond)->Unit(benchmark::kMillisecond);

void BM_FeatureExtractOneSecond(benchmark::State& state) {
  core::PipelineParams pp;
  pp.use_paa = state.range(0) != 0;
  const core::FeatureExtractor fx(pp);
  const auto ensemble = random_signal(21600, 11);
  for (auto _ : state) {
    auto patterns = fx.patterns(ensemble);
    benchmark::DoNotOptimize(patterns);
  }
}
BENCHMARK(BM_FeatureExtractOneSecond)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// -- MESO ------------------------------------------------------------------------

void BM_MesoTrain105d(benchmark::State& state) {
  std::mt19937 gen(3);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  std::vector<std::vector<float>> patterns(512);
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    patterns[i].resize(105);
    for (auto& v : patterns[i]) v = dist(gen) + static_cast<float>(i % 10);
  }
  for (auto _ : state) {
    meso::MesoClassifier clf;
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      clf.train(patterns[i], static_cast<meso::Label>(i % 10));
    }
    benchmark::DoNotOptimize(clf);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(patterns.size()));
}
BENCHMARK(BM_MesoTrain105d)->Unit(benchmark::kMillisecond);

void BM_MesoQuery105d(benchmark::State& state) {
  std::mt19937 gen(5);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  meso::MesoClassifier clf;
  std::vector<float> pattern(105);
  for (int i = 0; i < 1024; ++i) {
    for (auto& v : pattern) v = dist(gen) + static_cast<float>(i % 10);
    clf.train(pattern, i % 10);
  }
  for (auto& v : pattern) v = dist(gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.classify(pattern));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MesoQuery105d);

// -- Wire / channels ----------------------------------------------------------------

void BM_WireEncodeDecode900f(benchmark::State& state) {
  const auto rec =
      river::Record::data(river::kSubtypeAudio, river::FloatVec(900, 0.5F));
  for (auto _ : state) {
    const auto frame = river::encode_record(rec);
    auto decoded = river::decode_record(frame);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(900 * sizeof(float)));
}
BENCHMARK(BM_WireEncodeDecode900f);

void BM_ChannelSendRecv(benchmark::State& state) {
  river::InProcessChannel ch(1024);
  const auto rec =
      river::Record::data(river::kSubtypeAudio, river::FloatVec(900, 0.5F));
  river::Record out;
  for (auto _ : state) {
    ch.send(rec);
    benchmark::DoNotOptimize(ch.recv(out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelSendRecv);

// -- JSON sweep (machine-readable perf trajectory) ---------------------------

void run_json_sweep() {
  const double min_ms = bench::env_double("DR_MICRO_MIN_MS", 50.0);
  const char* json_env = std::getenv("DR_MICRO_JSON");
  const std::string json_path = json_env != nullptr ? json_env : "BENCH_micro.json";

  bench::BenchJsonWriter json;
  const auto record = [&](const char* op, std::size_t size, auto&& fn) {
    std::size_t reps = 0;
    const double ns = bench::measure_ns_per_op(fn, min_ms, &reps);
    json.add(op, size, ns, reps);
    std::printf("  %-28s n=%-8zu %12.1f ns/op  (%zu reps)\n", op, size, ns, reps);
    return ns;
  };

  bench::print_header("micro JSON sweep (BENCH_micro.json)");

  // Planned vs legacy FFT on the pipeline's Stockham size (900), a prime
  // (257), and a power of two (1024). The plan is fetched once per size
  // from the thread-local cache, like every production call site.
  double planned_900 = 0.0;
  double planned_1024 = 0.0;
  double unplanned_900 = 0.0;
  for (const std::size_t n : {std::size_t{900}, std::size_t{257}, std::size_t{1024}}) {
    const auto input = random_cplx(n, static_cast<unsigned>(n));
    std::vector<dsp::Cplx> out(n);
    dsp::FftPlan& plan = dsp::local_plan_cache().get(n);
    const double planned = record("fft_planned", n, [&] {
      plan.forward(input, out);
      benchmark::DoNotOptimize(out);
    });
    const double unplanned = record("fft_unplanned", n, [&] {
      auto spec = testsupport::fft_unplanned(input);
      benchmark::DoNotOptimize(spec);
    });
    if (n == 900) {
      planned_900 = planned;
      unplanned_900 = unplanned;
    }
    if (n == 1024) planned_1024 = planned;
  }

  // Real-input fast path (packed half-size transform) vs the complex
  // planned path at the pipeline sizes: fft_real_planned/fft_planned is the
  // real-FFT speedup.
  double real_900 = 0.0;
  double real_1024 = 0.0;
  for (const std::size_t n : {std::size_t{900}, std::size_t{1024}}) {
    const auto signal = random_signal(n, static_cast<unsigned>(n) + 1);
    std::vector<dsp::Cplx> spec(n);
    std::vector<float> mags(n);
    dsp::FftPlan& plan = dsp::local_plan_cache().get(n);
    const double real_ns = record("fft_real_planned", n, [&] {
      plan.forward_real(signal, spec);
      benchmark::DoNotOptimize(spec);
    });
    record("magnitudes_planned", n, [&] {
      plan.magnitudes(signal, mags);
      benchmark::DoNotOptimize(mags);
    });
    (n == 900 ? real_900 : real_1024) = real_ns;
  }

  // Batched vs per-record windowed magnitudes through the engine (64
  // record-size records, the FeatureExtractor hot loop). ns/op covers the
  // whole 64-record batch.
  {
    constexpr std::size_t kRecords = 64;
    constexpr std::size_t kRecordLen = 900;
    const core::SpectralEngine engine(dsp::WindowKind::kWelch, kRecordLen);
    const auto records = random_signal(kRecords * kRecordLen, 29);
    std::vector<float> out;
    record("windowed_mags_single64", kRecords * kRecordLen, [&] {
      for (std::size_t r = 0; r < kRecords; ++r) {
        engine.windowed_magnitudes(
            std::span<const float>(records.data() + r * kRecordLen, kRecordLen),
            out);
        benchmark::DoNotOptimize(out);
      }
    });
    record("windowed_mags_batch64", kRecords * kRecordLen, [&] {
      engine.windowed_magnitudes_batch(records, kRecordLen, out);
      benchmark::DoNotOptimize(out);
    });
  }

  // Spectrogram of one second of audio through the shared plan + scratch.
  {
    const auto signal = random_signal(21600, 23);
    record("stft_1s", signal.size(), [&] {
      auto spec = dsp::stft(signal, dsp::SpectrogramParams{});
      benchmark::DoNotOptimize(spec);
    });
  }

  // Feature extraction of one second (the dft-per-record hot path).
  {
    const core::FeatureExtractor fx{core::PipelineParams{}};
    const auto ensemble = random_signal(21600, 11);
    record("feature_patterns_1s", ensemble.size(), [&] {
      auto patterns = fx.patterns(ensemble);
      benchmark::DoNotOptimize(patterns);
    });
  }

  // The SAX anomaly scorer alone, one second of audio: one-sample pushes
  // vs one batch through the block kernel (bit-identical outputs; the
  // spread is the per-call cost the kernel amortizes over a block, before
  // any trigger/cutter work).
  {
    const auto signal = random_signal(21600, 31);
    const ts::AnomalyParams aparams = core::PipelineParams{}.anomaly;
    std::vector<double> scores(signal.size());
    {
      ts::StreamingAnomalyScorer scorer(aparams);
      record("scorer_stream_1s", signal.size(), [&] {
        scorer.reset();
        for (std::size_t i = 0; i < signal.size(); ++i) {
          scores[i] = scorer.push(signal[i]);
        }
        benchmark::DoNotOptimize(scores);
      });
    }
    {
      ts::StreamingAnomalyScorer scorer(aparams);
      record("scorer_batch_1s", signal.size(), [&] {
        scorer.reset();
        scorer.push_batch(signal.data(), signal.size(), scores.data());
        benchmark::DoNotOptimize(scores);
      });
    }
  }

  // Full-clip extraction, then 2-channel fused extraction.
  {
    const auto& clip = cached_clip().clip.samples;
    const core::EnsembleExtractor extractor{core::PipelineParams{}};
    record("extract_clip30s", clip.size(), [&] {
      auto result = extractor.extract(clip);
      benchmark::DoNotOptimize(result);
    });

    // Steady-state streaming push of one second in record-size chunks
    // (bounded-memory session, taps off) — the live-ingest cost to hold
    // against extract_clip30s / 30.
    const core::PipelineParams params;
    core::StreamSession session{params};
    const std::size_t second = static_cast<std::size_t>(params.sample_rate);
    session.push(std::span<const float>(clip.data(), second));  // warmup
    auto drained = session.drain();
    benchmark::DoNotOptimize(drained);
    std::size_t pos = second;
    record("stream_push_1s", second, [&] {
      for (std::size_t off = 0; off < second; off += params.record_size) {
        const std::size_t n = std::min(params.record_size, second - off);
        session.push(std::span<const float>(clip.data() + pos + off, n));
      }
      benchmark::DoNotOptimize(session.drain());
      pos += second;
      if (pos + second > clip.size()) pos = 0;
    });

    const std::vector<std::span<const float>> streams = {clip,
                                                         cached_second_channel()};
    const core::MultiStreamExtractor serial{core::MultiStreamParams{}};
    record("multistream2_serial", 2 * clip.size(), [&] {
      auto result = serial.extract(streams);
      benchmark::DoNotOptimize(result);
    });
  }

  // Host-scale multiplexing: 16 stations x 1 s of audio through one
  // SessionScheduler (bounded queues, block policy, deficit round-robin,
  // 2 worker lanes, shared SpectralEngine). ns/op covers scheduler
  // construction + the full 16-station drain — the per-host ingest cost to
  // hold against 16 x stream_push_1s of raw session time.
  {
    constexpr std::size_t kStations = 16;
    const core::PipelineParams params;
    const std::size_t second = static_cast<std::size_t>(params.sample_rate);
    std::vector<std::vector<float>> signals;
    signals.reserve(kStations);
    for (std::size_t s = 0; s < kStations; ++s) {
      signals.push_back(random_signal(second, 4000 + static_cast<unsigned>(s)));
    }
    const auto engine = std::make_shared<const core::SpectralEngine>(params);
    record("sched_16stations_1s", kStations * second, [&] {
      core::SchedulerOptions options;
      options.threads = 2;  // fixed: comparable across differently-sized hosts
      core::SessionScheduler scheduler(std::move(options));
      for (std::size_t s = 0; s < kStations; ++s) {
        core::StationConfig config;
        config.params = params;
        config.queue_capacity_samples = 8 * params.record_size;
        config.engine = engine;
        // snprintf, not string concatenation: GCC 12's -Wrestrict trips a
        // known false positive on small-string operator+ at -O3.
        char name[16];
        std::snprintf(name, sizeof name, "s%zu", s);
        scheduler.add_station(
            name,
            std::make_shared<river::BufferSource>(signals[s],
                                                  params.sample_rate),
            std::make_shared<river::NullEnsembleSink>(), config);
      }
      scheduler.run();
      auto stats = scheduler.stats();
      benchmark::DoNotOptimize(stats);
    });
  }

  // Archive replay: 2 minutes of audio (4 x 30 s clip) archived once into a
  // rotating segment store outside the timed region, then re-extracted per
  // op through SegmentStoreSource + StreamSession — the month-equivalent
  // backfill path, normalized per replayed batch. ns/op / samples against
  // stream_push_1s / sample_rate is the replay-vs-live-push speed ratio.
  double replay_ns = 0.0;
  std::size_t replay_samples = 0;
  {
    const auto& clip = cached_clip().clip.samples;
    const core::PipelineParams params;
    const auto dir =
        std::filesystem::temp_directory_path() / "dynriver_bench_store";
    std::filesystem::remove_all(dir);
    {
      river::SegmentStoreOptions options;
      options.max_segment_bytes = 4ull << 20;
      river::SegmentedRecordLog log(dir, options);
      river::AudioSegmentArchiver archiver(log, params.sample_rate,
                                           params.record_size);
      for (int rep = 0; rep < 4; ++rep) archiver.push(clip);
      archiver.finish();
      log.close();
      replay_samples = archiver.samples_archived();
    }
    replay_ns = record("replay_month_eq", replay_samples, [&] {
      river::SegmentStoreSource source(dir);
      core::StreamSession session(params);
      river::NullEnsembleSink sink;
      auto stats = core::run_stream(source, session, sink);
      benchmark::DoNotOptimize(stats);
    });
    std::filesystem::remove_all(dir);
  }

  // The same replay with bit-packed payloads: the clip is first snapped to
  // the PCM16 grid every ADC/WAV sample lives on (the codec is lossless on
  // any floats, but the delta mode only engages on grid values), archived
  // with pack_payloads on, then re-extracted identically. Also records the
  // stored bytes/sample of both stores — a size metric (unit "bytes"),
  // lower-is-better like every timing.
  double packed_ratio = 0.0;
  {
    const auto& clip = cached_clip().clip.samples;
    std::vector<float> quantized(clip.size());
    for (std::size_t i = 0; i < clip.size(); ++i) {
      const float c = std::clamp(clip[i], -1.0F, 1.0F);
      quantized[i] =
          static_cast<float>(std::lround(c * 32767.0F)) / 32768.0F;
    }
    const core::PipelineParams params;
    const auto dir =
        std::filesystem::temp_directory_path() / "dynriver_bench_store_packed";
    std::filesystem::remove_all(dir);
    std::uint64_t packed_bytes = 0;
    std::size_t samples = 0;
    {
      river::SegmentStoreOptions options;
      options.max_segment_bytes = 4ull << 20;
      options.pack_payloads = true;
      river::SegmentedRecordLog log(dir, options);
      river::AudioSegmentArchiver archiver(log, params.sample_rate,
                                           params.record_size);
      for (int rep = 0; rep < 4; ++rep) archiver.push(quantized);
      archiver.finish();
      log.close();
      samples = archiver.samples_archived();
      for (const auto& s : log.segments()) packed_bytes += s.bytes;
    }
    record("replay_month_eq_packed", samples, [&] {
      river::SegmentStoreSource source(dir);
      core::StreamSession session(params);
      river::NullEnsembleSink sink;
      auto stats = core::run_stream(source, session, sink);
      benchmark::DoNotOptimize(stats);
    });
    std::filesystem::remove_all(dir);

    const double bytes_per_sample =
        static_cast<double>(packed_bytes) / static_cast<double>(samples);
    json.add("archive_bytes_per_sample", samples, bytes_per_sample, 1, "bytes");
    std::printf("  %-28s n=%-8zu %12.3f bytes/sample\n",
                "archive_bytes_per_sample", samples, bytes_per_sample);
    packed_ratio = 4.0 / bytes_per_sample;
  }

  if (planned_900 > 0.0) {
    std::printf("\n  planned-vs-legacy FFT speedup @900: %.2fx\n",
                unplanned_900 / planned_900);
  }
  if (replay_ns > 0.0 && replay_samples > 0) {
    const core::PipelineParams params;
    const double replay_rate =
        static_cast<double>(replay_samples) / (replay_ns * 1e-9);
    std::printf("  archive replay: %.1fM samples/s (%.0fx live push rate)\n",
                replay_rate / 1e6, replay_rate / params.sample_rate);
  }
  if (packed_ratio > 0.0) {
    std::printf("  packed archive: %.2fx smaller than raw f32 storage\n",
                packed_ratio);
  }
  if (real_900 > 0.0 && real_1024 > 0.0) {
    std::printf("  real-vs-complex FFT speedup: %.2fx @900, %.2fx @1024 (kernels: %s)\n",
                planned_900 / real_900, planned_1024 / real_1024,
                dsp::simd::backend());
  }
  if (json.write(json_path)) {
    std::printf("  wrote %s (%zu entries, git %s)\n\n", json_path.c_str(),
                json.records().size(), bench::git_describe().c_str());
  } else {
    std::printf("  FAILED to write %s\n\n", json_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  run_json_sweep();
  std::fflush(stdout);
  if (bench::env_size("DR_MICRO_SKIP_GBENCH", 0) == 0) {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
