// Station-host benchmark: one core::SessionScheduler host fed by a forked,
// single-threaded load generator, every output checked against a serial
// StreamSession reference.
//
//   perfbench_host --workload NAME --seed N --seconds S --trace 0|1
//                  [--rate-scale X]
//   perfbench_host --self-test
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (end-to-end metrics untraced, per-layer metrics traced). Lines
// before it report the exact counters and, traced, the per-span table.
// perfbench/NOTES.md explains the workloads and metric definitions.
#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/session_scheduler.hpp"
#include "core/stream_session.hpp"
#include "river/segment_store.hpp"
#include "river/tcp.hpp"
#include "river/wire.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace river = dynriver::river;
namespace fs = std::filesystem;
using namespace perfbench;

namespace {

/// Set-ups timed per run; setup_s reports their median. The same set-up
/// took 100 ms or 141 ms within seconds of each other on a shared VM, so
/// they are spread over about 6 s instead of run back to back in 2 s.
constexpr int kSetups = 15;
constexpr std::int64_t kSetupGapNs = 300'000'000;
/// Open-loop runs split into this many equal windows of the send schedule
/// (closed-loop runs use one window per replay pass). Every end-to-end
/// timing is the median over windows, so a transient stall on a shared
/// machine moves one window rather than the result.
constexpr std::size_t kWindows = 5;
/// Validity of an open-loop window. A window counts while the generator kept
/// to its schedule (p99 lateness of the sends due in it at most
/// kLateLimitMs). The generator is one mostly idle thread, so a larger lag
/// means the whole machine stalled, and the stall would be charged to the
/// host's latency. The medians always use at least kMinValidWindows windows,
/// the least late ones. A run with fewer on-schedule windows, or one the
/// host finishes more than kDrainLimitMs after the last due send (a
/// backlog), reports itself stalled. A stall is the machine's, not the
/// program's, so it fails no operation.
constexpr double kLateLimitMs = 2.0;
constexpr std::size_t kMinValidWindows = 3;
constexpr double kDrainLimitMs = 100.0;
/// The traced run fails when per-thread CPU and process CPU differ by more
/// than this share ("the stages add back up").
constexpr double kStageSumTolerance = 0.10;
/// Lead between the go command and the first due send.
constexpr std::int64_t kLeadNs = 20'000'000;
/// Live tee retention: keep this much stream time per station archive,
/// retiring every kRetireEvery records (deterministic, so bytes/sample
/// repeats exactly).
constexpr double kRetainSeconds = 120.0;
constexpr std::size_t kRetireEvery = 4096;
/// Generator sends at most this many records per batch.
constexpr std::size_t kMaxBatch = 256;
/// Read-time ring per replay station; must exceed the queue depth in chunks.
constexpr std::size_t kRing = 1024;
/// Queue bound of each push-fed station, in chunks. With the scheduler's
/// default (65536 samples) the 64 queues could hold 16 MB, and how much of
/// that filled followed the machine's stalls, not the program, so
/// peak_rss_mb varied by a third between runs. Bounded, a stall blocks the
/// receivers and backs up TCP instead.
constexpr std::size_t kPushQueueChunks = 16;

// -- pipes between host and generator ----------------------------------------

bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  auto* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

struct GenReport {
  std::uint64_t digest = 0;
  std::int64_t last_due_ns = 0;
  double late_p99_ms = 0.0;
  /// p99 lateness of the sends due in each window of the schedule.
  std::array<double, kWindows> window_late_p99_ms{};
  std::int32_t ok = 1;
};

/// Window of send `e` of the `events` in an open-loop schedule.
std::size_t window_of(std::size_t e, std::size_t events) {
  return std::min(kWindows - 1, e * kWindows / events);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size()))) - 1;
  const auto at = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(at), v.end());
  return v[at];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// -- the load generator (forked child, one thread) ---------------------------

void write_store(const Spec& spec, const Pool& pool, const Plan& plan,
                 const fs::path& dir) {
  river::SegmentStoreOptions options;
  options.pack_payloads = true;
  river::SegmentedRecordLog log(dir, options);
  river::AudioSegmentArchiver archiver(log, kSampleRate, spec.chunk);
  for (std::size_t s = 0; s < spec.stations; ++s) {
    for (std::size_t r = 0; r < plan.chunks_per_station; ++r) {
      archiver.push(chunk_of(spec, pool, plan, s, r));
    }
  }
  archiver.finish();
  log.close();
}

void sleep_until_ns(std::int64_t t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(t % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

/// Open-loop schedule: send e of E is due at t0 + e * step, round-robin over
/// stations, so each station sends one chunk per `stations * step`. Sends
/// never wait for the host; lateness is recorded per record.
void send_schedule(const Spec& spec, const Pool& pool, const Plan& plan,
                   std::vector<river::TcpStream>& conns, std::int64_t t0,
                   GenReport& report) {
  const std::size_t stations = spec.stations;
  const std::size_t events = plan.chunks_per_station * stations;
  const auto due_of = [&](std::size_t e) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(e) * plan.step_ns);
  };
  std::vector<std::vector<std::uint8_t>> buf(conns.size());
  std::vector<std::vector<std::size_t>> sends(conns.size());  // events batched
  std::vector<double> late_ms;
  late_ms.reserve(events);
  std::array<std::vector<double>, kWindows> window_late_ms;
  std::size_t e = 0;
  while (e < events) {
    const std::int64_t now = now_ns();
    if (due_of(e) > now) {
      sleep_until_ns(due_of(e));
      continue;
    }
    for (std::size_t batch = 0; e < events && batch < kMaxBatch && due_of(e) <= now;
         ++batch, ++e) {
      const std::size_t s = e % stations;
      const auto samples = chunk_of(spec, pool, plan, s, e / stations);
      auto rec = river::Record::data(
          river::kSubtypeAudio, river::FloatVec(samples.begin(), samples.end()));
      if (spec.push_fed) rec.set_attr(river::kAttrStation, static_cast<std::int64_t>(s));
      const auto frame = river::encode_record(rec);
      const std::size_t c = s % conns.size();
      buf[c].insert(buf[c].end(), frame.begin(), frame.end());
      sends[c].push_back(e);
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (buf[c].empty()) continue;
      const std::int64_t at = now_ns();
      for (const std::size_t sent : sends[c]) {
        const double late = static_cast<double>(at - due_of(sent)) / 1e6;
        late_ms.push_back(late);
        window_late_ms[window_of(sent, events)].push_back(late);
      }
      if (!conns[c].send_all(buf[c].data(), buf[c].size())) report.ok = 0;
      buf[c].clear();
      sends[c].clear();
    }
    if (report.ok == 0) break;
  }
  const auto& eos = river::eos_sentinel();
  for (auto& conn : conns) {
    if (!conn.send_all(eos.data(), eos.size())) report.ok = 0;
  }
  report.last_due_ns = due_of(events == 0 ? 0 : events - 1);
  report.late_p99_ms = quantile(late_ms, 0.99);
  for (std::size_t w = 0; w < kWindows; ++w) {
    report.window_late_p99_ms[w] = quantile(window_late_ms[w], 0.99);
  }
}

[[noreturn]] void generator_main(const Spec& spec, std::uint64_t seed,
                                 double seconds, double rate_scale, int ctl,
                                 int rep, std::uint16_t port,
                                 const fs::path& store) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  int code = 0;
  try {
    const Pool pool = render_pool(spec, seed);
    const Plan plan = make_plan(spec, pool.samples.size(), seconds, rate_scale);
    if (!spec.open_loop) write_store(spec, pool, plan, store);
    GenReport report;
    report.digest = input_digest(spec, seed, pool, plan);
    if (!write_all(rep, &report.digest, sizeof report.digest)) _exit(1);
    std::vector<river::TcpStream> conns;
    for (;;) {
      char cmd = 0;
      if (!read_all(ctl, &cmd, 1)) {
        code = 1;
        break;
      }
      if (cmd == 'C') {
        for (std::size_t c = 0; c < spec.connections; ++c) {
          conns.push_back(river::TcpStream::connect("127.0.0.1", port));
        }
      } else if (cmd == 'R') {
        conns.clear();
      } else if (cmd == 'G') {
        std::int64_t t0 = 0;
        if (!read_all(ctl, &t0, sizeof t0)) _exit(1);
        send_schedule(spec, pool, plan, conns, t0, report);
        conns.clear();
        if (!write_all(rep, &report, sizeof report)) code = 1;
        break;
      } else {  // 'Q': nothing to send
        if (!write_all(rep, &report, sizeof report)) code = 1;
        break;
      }
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "generator: %s\n", ex.what());
    code = 1;
  }
  _exit(code);
}

// -- host-side adapters ------------------------------------------------------

/// live_tcp ingest: pulls audio off one TCP connection and tees every chunk
/// into the station's packed archive before the scheduler queues it.
class TeeSource final : public river::SampleSource {
 public:
  TeeSource(std::shared_ptr<river::RecordChannel> channel,
            river::SegmentedRecordLog& log, std::size_t chunk)
      : in_(std::move(channel)), log_(log), archiver_(log, kSampleRate, chunk) {}

  [[nodiscard]] std::size_t read(std::span<float> out) override {
    std::size_t n = 0;
    {
      const Span span(SpanKind::kTcpRead, reads_);
      n = in_.read(out);
    }
    const Span span(SpanKind::kStoreAppend, reads_++);
    if (n == 0) {
      archiver_.finish();
      return 0;
    }
    archiver_.push(out.first(n));
    if (reads_ % kRetireEvery == 0) {
      log_.retire_before(static_cast<double>(archiver_.samples_archived()) /
                             kSampleRate -
                         kRetainSeconds);
    }
    return n;
  }
  [[nodiscard]] double sample_rate() const override { return kSampleRate; }
  [[nodiscard]] bool clean() const { return in_.clean(); }

 private:
  river::RecordChannelSource in_;
  river::SegmentedRecordLog& log_;
  river::AudioSegmentArchiver archiver_;
  std::uint64_t reads_ = 0;
};

/// backfill_replay source: SegmentStoreSource (what add_replay_station
/// installs) plus the time each chunk was handed to the host, which starts
/// the closed-loop emission clock.
class ReplaySource final : public river::SampleSource {
 public:
  ReplaySource(const fs::path& dir, double t0, double t1) : in_(dir, t0, t1) {}

  [[nodiscard]] std::size_t read(std::span<float> out) override {
    std::size_t n = 0;
    {
      const Span span(SpanKind::kStoreRead, reads_);
      n = in_.read(out);
    }
    ring_[reads_ % kRing].store(now_ns(), std::memory_order_relaxed);
    ++reads_;
    return n;
  }
  [[nodiscard]] double sample_rate() const override { return kSampleRate; }
  [[nodiscard]] std::int64_t read_time(std::size_t chunk) const {
    return ring_[chunk % kRing].load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool clean() const { return in_.clean(); }

 private:
  river::SegmentStoreSource in_;
  std::uint64_t reads_ = 0;
  std::array<std::atomic<std::int64_t>, kRing> ring_{};
};

struct Observed {
  Emission e;
  std::int64_t start_ns = 0;  ///< closed loop: read time of the emit chunk
  std::int64_t done_ns = 0;
};

/// The ensemble sink every station feeds: featurize, classify, timestamp.
class BenchSink final : public river::EnsembleSink {
 public:
  BenchSink(const core::FeatureExtractor& features,
            const meso::MesoClassifier& classifier,
            const core::SessionScheduler& scheduler, std::size_t station,
            std::size_t chunk, const ReplaySource* replay)
      : features_(features),
        classifier_(classifier),
        scheduler_(scheduler),
        station_(station),
        chunk_(chunk),
        replay_(replay) {
    out.reserve(4096);
  }

  void accept(river::Ensemble ensemble) override {
    const std::uint64_t id = (std::uint64_t{station_} << 32) | out.size();
    const Span span(SpanKind::kSinkAccept, id);
    Observed o;
    o.e.start = ensemble.start_sample;
    o.e.length = ensemble.length();
    o.e.hash = hash_samples(ensemble.samples);
    // Safe from the station's own sink: the session is quiescent here.
    const std::size_t consumed = scheduler_.session(station_).samples_consumed();
    o.e.emit_chunk = consumed / chunk_ - 1;
    if (replay_ != nullptr) o.start_ns = replay_->read_time(o.e.emit_chunk);
    o.e.label = label_ensemble(features_, classifier_, ensemble.samples, id);
    o.done_ns = now_ns();
    out.push_back(o);
  }
  void finish() override { finish_ns = now_ns(); }

  std::vector<Observed> out;
  std::int64_t finish_ns = 0;

 private:
  const core::FeatureExtractor& features_;
  const meso::MesoClassifier& classifier_;
  const core::SessionScheduler& scheduler_;
  std::size_t station_;
  std::size_t chunk_;
  const ReplaySource* replay_;
};

/// One host instance. Member order is teardown order reversed: the
/// scheduler goes first (it holds sinks and sources), then the sources'
/// archivers, then the logs they write.
struct Host {
  std::shared_ptr<const core::SpectralEngine> engine;
  std::unique_ptr<meso::MesoClassifier> classifier;
  std::unique_ptr<core::FeatureExtractor> features;
  std::vector<std::unique_ptr<river::SegmentedRecordLog>> logs;
  std::vector<std::shared_ptr<river::TcpRecordChannel>> channels;
  std::vector<std::shared_ptr<TeeSource>> tees;
  std::vector<std::shared_ptr<ReplaySource>> replays;
  std::vector<std::shared_ptr<BenchSink>> sinks;
  std::unique_ptr<core::SessionScheduler> scheduler;
  // Traced only, written by on_round on the scheduling thread.
  std::size_t rounds = 0;
  std::vector<double> queued;
};

struct RunContext {
  const Spec& spec;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  double rate_scale = 1.0;
  bool traced = false;
  fs::path work;
  core::PipelineParams params;
};

core::StationConfig station_config(const RunContext& ctx, const Host& host) {
  core::StationConfig config;
  config.params = ctx.params;
  config.policy = core::BackpressurePolicy::kBlock;
  config.read_chunk_samples = ctx.spec.chunk;
  if (ctx.spec.push_fed) config.queue_capacity_samples = kPushQueueChunks * ctx.spec.chunk;
  config.engine = host.engine;
  return config;
}

/// Fresh scheduler plus stations. TCP workloads take their accepted
/// connections from host.channels.
void build_stations(const RunContext& ctx, Host& host) {
  const Spec& spec = ctx.spec;
  host.sinks.clear();
  host.replays.clear();
  host.tees.clear();
  host.scheduler.reset();
  core::SchedulerOptions options;
  options.threads = kLanes;
  if (ctx.traced) {
    options.on_round = [&host](const core::SchedulerStats& stats) {
      ++host.rounds;
      host.queued.push_back(static_cast<double>(stats.total_queued_samples()));
    };
  }
  host.scheduler = std::make_unique<core::SessionScheduler>(std::move(options));
  const std::size_t replay_len = replay_chunks(spec) * spec.chunk;
  for (std::size_t s = 0; s < spec.stations; ++s) {
    const std::string name = spec.name + "-" + std::to_string(s);
    const ReplaySource* replay = nullptr;
    std::shared_ptr<river::SampleSource> source;
    if (spec.archive) {
      const fs::path dir = ctx.work / ("live-" + std::to_string(s));
      fs::remove_all(dir);
      river::SegmentStoreOptions so;
      so.pack_payloads = true;
      // The archive's CPU path (pack, CRC, write) is measured; per-seal
      // fsync would measure this machine's disk instead.
      so.sync_on_seal = false;
      host.logs.push_back(std::make_unique<river::SegmentedRecordLog>(dir, so));
      auto tee = std::make_shared<TeeSource>(host.channels[s], *host.logs.back(),
                                             spec.chunk);
      host.tees.push_back(tee);
      source = tee;
    } else if (!spec.open_loop) {
      // Station s replays its own stretch of the store; the bounds are the
      // archiver's own time stamps (start_sample / rate).
      const double t0 = static_cast<double>(s * replay_len) / kSampleRate;
      const double t1 = static_cast<double>((s + 1) * replay_len) / kSampleRate;
      auto rs = std::make_shared<ReplaySource>(ctx.work / "store", t0, t1);
      host.replays.push_back(rs);
      replay = rs.get();
      source = rs;
    }
    auto sink = std::make_shared<BenchSink>(*host.features, *host.classifier,
                                            *host.scheduler, s, spec.chunk, replay);
    host.sinks.push_back(sink);
    if (source) {
      host.scheduler->add_station(name, source, sink, station_config(ctx, host));
    } else {
      host.scheduler->add_station(name, sink, station_config(ctx, host));
    }
  }
}

/// Everything between process start-up and "ready for input": engine,
/// classifier training on the pre-rendered clips, scheduler, store open and
/// TCP accept.
std::unique_ptr<Host> set_up(const RunContext& ctx, const TrainingSet& training,
                             river::TcpListener* listener, int ctl) {
  auto host = std::make_unique<Host>();
  host->engine = std::make_shared<const core::SpectralEngine>(ctx.params);
  host->classifier = train_classifier(training, ctx.params, host->engine);
  host->features =
      std::make_unique<core::FeatureExtractor>(ctx.params, host->engine);
  if (listener != nullptr) {
    const char cmd = 'C';
    if (!write_all(ctl, &cmd, 1)) throw std::runtime_error("generator gone");
    for (std::size_t c = 0; c < ctx.spec.connections; ++c) {
      host->channels.push_back(
          std::make_shared<river::TcpRecordChannel>(listener->accept()));
    }
  }
  build_stations(ctx, *host);
  return host;
}

/// fanin_quiet receiver: demultiplexes one connection into push().
void receive(Host& host, const Spec& spec, std::size_t conn,
             std::atomic<std::size_t>& faults) {
  river::TcpRecordChannel& channel = *host.channels[conn];
  try {
    river::Record rec;
    for (std::uint64_t k = 0;; ++k) {
      river::RecvStatus status{};
      {
        const Span span(SpanKind::kTcpRead, k);
        status = channel.recv(rec);
      }
      if (status != river::RecvStatus::kRecord) {
        if (status != river::RecvStatus::kClosed) ++faults;
        break;
      }
      const std::int64_t station = rec.attr_int(river::kAttrStation, -1);
      if (station < 0 || static_cast<std::size_t>(station) >= spec.stations ||
          static_cast<std::size_t>(station) % spec.connections != conn ||
          !rec.is_float()) {
        ++faults;
        continue;
      }
      const Span span(SpanKind::kSchedPush, k);
      host.scheduler->push(static_cast<std::size_t>(station), rec.floats());
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "receiver %zu: %s\n", conn, ex.what());
    ++faults;
  }
  for (std::size_t s = conn; s < spec.stations; s += spec.connections) {
    host.scheduler->close_station(s);
  }
}

struct Usage {
  double cpu_s = 0.0;
  long nvcsw = 0;
  long maxrss_kb = 0;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime), ru.ru_nvcsw, ru.ru_maxrss};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}


int run(const RunContext& ctx) {
  const Spec& spec = ctx.spec;
  fs::remove_all(ctx.work);
  fs::create_directories(ctx.work);

  std::unique_ptr<river::TcpListener> listener;
  if (spec.connections > 0) listener = std::make_unique<river::TcpListener>(0);
  int ctl_pipe[2];
  int rep_pipe[2];
  if (pipe(ctl_pipe) != 0 || pipe(rep_pipe) != 0) throw std::runtime_error("pipe");
  std::fflush(stdout);
  const pid_t child = fork();
  if (child < 0) throw std::runtime_error("fork");
  if (child == 0) {
    ::close(ctl_pipe[1]);
    ::close(rep_pipe[0]);
    generator_main(spec, ctx.seed, ctx.seconds, ctx.rate_scale, ctl_pipe[0],
                   rep_pipe[1], listener ? listener->port() : 0,
                   ctx.work / "store");
  }
  ::close(ctl_pipe[0]);
  ::close(rep_pipe[1]);
  const int ctl = ctl_pipe[1];
  const int rep = rep_pipe[0];

  // Input synthesis stays outside set-up: the generator renders its pool
  // (and, for backfill, writes the store) while the host renders the
  // labeled training clips.
  const TrainingSet training = render_training();
  std::uint64_t gen_digest = 0;
  if (!read_all(rep, &gen_digest, sizeof gen_digest)) {
    throw std::runtime_error("generator failed before ready");
  }

  std::vector<double> setup_s;
  std::unique_ptr<Host> host;
  for (int k = 0; k < kSetups; ++k) {
    if (host) {
      host.reset();
      if (listener) {
        const char cmd = 'R';
        if (!write_all(ctl, &cmd, 1)) throw std::runtime_error("generator gone");
      }
      sleep_until_ns(now_ns() + kSetupGapNs);
    }
    const std::int64_t t = now_ns();
    host = set_up(ctx, training, listener.get(), ctl);
    setup_s.push_back(static_cast<double>(now_ns() - t) / 1e9);
  }

  // ---- measured interval ----------------------------------------------------
  Tracer::begin(ctx.traced);
  const Usage u0 = usage();
  const std::uint64_t allocs0 = allocation_count();
  const std::int64_t main_cpu0 = thread_cpu_ns();
  const std::int64_t t0 = now_ns() + (spec.open_loop ? kLeadNs : 0);
  if (listener) {
    char go[1 + sizeof t0];
    go[0] = 'G';
    std::memcpy(go + 1, &t0, sizeof t0);
    if (!write_all(ctl, go, sizeof go)) throw std::runtime_error("generator gone");
  }
  // Only the pool-independent fields (schedule length and spacing) are used.
  const Plan shape = make_plan(spec, 0, ctx.seconds, ctx.rate_scale);
  const double window_ns =
      static_cast<double>(shape.chunks_per_station * spec.stations) *
      shape.step_ns / static_cast<double>(kWindows);
  std::vector<Usage> marks;  // window boundaries
  std::vector<std::int64_t> pass_wall_ns;
  std::thread sampler;
  if (spec.open_loop) {
    marks.resize(kWindows + 1);
    sampler = std::thread([&marks, t0, window_ns] {
      for (std::size_t k = 0; k <= kWindows; ++k) {
        sleep_until_ns(t0 + static_cast<std::int64_t>(static_cast<double>(k) *
                                                      window_ns));
        marks[k] = usage();
      }
    });
  }
  std::atomic<std::size_t> faults{0};
  std::vector<std::vector<std::vector<Observed>>> passes;  // [pass][station]
  std::size_t samples_in = 0;
  std::size_t dropped = 0;
  std::size_t unclean = 0;
  std::int64_t t_end = t0;
  const std::size_t n_passes = replay_passes(spec, ctx.seconds);
  for (std::size_t p = 0; p < n_passes; ++p) {
    const std::int64_t pass_start = now_ns();
    if (!spec.open_loop) marks.push_back(usage());
    if (p > 0) build_stations(ctx, *host);
    std::vector<std::thread> receivers;
    if (spec.push_fed) {
      for (std::size_t c = 0; c < spec.connections; ++c) {
        receivers.emplace_back(receive, std::ref(*host), std::cref(spec), c,
                               std::ref(faults));
      }
    }
    host->scheduler->run();
    for (auto& t : receivers) t.join();
    const auto stats = host->scheduler->stats();
    std::vector<std::vector<Observed>> obs;
    for (std::size_t s = 0; s < spec.stations; ++s) {
      samples_in += stats.stations[s].samples_consumed;
      dropped += stats.stations[s].samples_dropped;
      t_end = std::max(t_end, host->sinks[s]->finish_ns);
      obs.push_back(std::move(host->sinks[s]->out));
    }
    for (const auto& tee : host->tees) unclean += tee->clean() ? 0U : 1U;
    for (const auto& rs : host->replays) unclean += rs->clean() ? 0U : 1U;
    passes.push_back(std::move(obs));
    pass_wall_ns.push_back(now_ns() - pass_start);
  }
  if (!spec.open_loop) marks.push_back(usage());
  if (sampler.joinable()) sampler.join();
  const std::int64_t main_cpu1 = thread_cpu_ns();
  const std::uint64_t allocs1 = allocation_count();
  const Usage u1 = usage();
  Tracer::end();
  // ---- end of measured interval --------------------------------------------

  double bytes_per_sample = 0.0;
  if (spec.archive) {
    std::uint64_t bytes = 0;
    std::uint64_t frames = 0;
    for (auto& log : host->logs) {
      log->close();
      for (const auto& seg : log->segments()) {
        bytes += seg.bytes;
        frames += seg.frames;
      }
    }
    bytes_per_sample = static_cast<double>(bytes) /
                       static_cast<double>(frames * spec.chunk);
  }

  GenReport gen;
  if (!listener) {
    const char cmd = 'Q';
    if (!write_all(ctl, &cmd, 1)) throw std::runtime_error("generator gone");
  }
  const bool gen_ok = read_all(rep, &gen, sizeof gen);
  ::close(ctl);
  ::close(rep);
  int status = 0;
  waitpid(child, &status, 0);
  if (!gen_ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("generator failed");
  }

  // ---- correctness: serial reference over the same input --------------------
  const Pool pool = render_pool(spec, ctx.seed);
  const Plan plan = make_plan(spec, pool.samples.size(), ctx.seconds, ctx.rate_scale);
  const std::uint64_t digest = input_digest(spec, ctx.seed, pool, plan);
  std::vector<std::vector<Emission>> ref(spec.stations);
  {
    std::vector<std::thread> workers;
    std::atomic<std::size_t> next{0};
    const std::size_t n_workers = std::min<std::size_t>(4, spec.stations);
    for (std::size_t w = 0; w < n_workers; ++w) {
      workers.emplace_back([&] {
        for (std::size_t s = next++; s < spec.stations; s = next++) {
          ref[s] = reference_station(spec, pool, plan, s, ctx.params,
                                     *host->features, *host->classifier);
        }
      });
    }
    for (auto& w : workers) w.join();
  }

  const std::size_t n_windows = spec.open_loop ? kWindows : passes.size();
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> window_latency_ms(n_windows);
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const auto& obs = passes[p];
    for (std::size_t s = 0; s < spec.stations; ++s) {
      const auto& want = ref[s];
      const auto& got = obs[s];
      attempted += want.size();
      const std::size_t common = std::min(want.size(), got.size());
      failed += std::max(want.size(), got.size()) - common;
      for (std::size_t k = 0; k < common; ++k) {
        const Emission& w = want[k];
        const Emission& g = got[k].e;
        const bool same = w.start == g.start && w.length == g.length &&
                          w.hash == g.hash && w.label == g.label &&
                          (w.tail || w.emit_chunk == g.emit_chunk);
        if (!same) {
          ++failed;
          continue;
        }
        if (w.tail) continue;
        const std::size_t send = w.emit_chunk * spec.stations + s;
        const std::int64_t start =
            spec.open_loop
                ? t0 + static_cast<std::int64_t>(static_cast<double>(send) *
                                                 plan.step_ns)
                : got[k].start_ns;
        const double ms = static_cast<double>(got[k].done_ns - start) / 1e6;
        const std::size_t window =
            spec.open_loop
                ? window_of(send, plan.chunks_per_station * spec.stations)
                : p;
        latency_ms.push_back(ms);
        window_latency_ms[window].push_back(ms);
      }
    }
  }
  // Streams: every sample delivered, none dropped, every close clean.
  const std::size_t streams = spec.stations * passes.size();
  attempted += streams;
  const std::size_t expected_samples = streams * plan.chunks_per_station * spec.chunk;
  if (samples_in != expected_samples || dropped != 0) ++failed;
  failed += unclean + faults.load();
  if (gen.digest != digest || gen_digest != digest || gen.ok == 0) ++failed;

  // Validity of an open-loop run: the medians use the on-schedule windows,
  // and at least the kMinValidWindows least late ones.
  const double drain_ms =
      spec.open_loop ? static_cast<double>(t_end - gen.last_due_ns) / 1e6 : 0.0;
  std::vector<bool> valid(n_windows, true);
  std::size_t on_schedule = n_windows;
  if (spec.open_loop) {
    std::vector<std::size_t> by_lateness(n_windows);
    for (std::size_t w = 0; w < n_windows; ++w) by_lateness[w] = w;
    std::stable_sort(by_lateness.begin(), by_lateness.end(),
                     [&gen](std::size_t a, std::size_t b) {
                       return gen.window_late_p99_ms[a] < gen.window_late_p99_ms[b];
                     });
    on_schedule = 0;
    for (std::size_t k = 0; k < n_windows; ++k) {
      const bool late = gen.window_late_p99_ms[by_lateness[k]] > kLateLimitMs;
      on_schedule += late ? 0U : 1U;
      valid[by_lateness[k]] = !late || k < kMinValidWindows;
    }
  }
  const bool stalled = spec.open_loop && (on_schedule < kMinValidWindows ||
                                          drain_ms > kDrainLimitMs);

  const QualityCounters q = quality(spec, pool, plan, ref);
  const double audio_s = static_cast<double>(samples_in) / kSampleRate;
  const double wall_s = static_cast<double>(t_end - t0) / 1e9;
  const double cpu_ms = (u1.cpu_s - u0.cpu_s) * 1e3;
  std::vector<double> cpu_per_audio_s;
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::vector<double> window_msps;
  const double window_audio_s = audio_s / static_cast<double>(n_windows);
  for (std::size_t w = 0; w < n_windows; ++w) {
    const double cpu = (marks[w + 1].cpu_s - marks[w].cpu_s) * 1e3 / window_audio_s;
    const double p50 = quantile(window_latency_ms[w], 0.5);
    const double p90 = quantile(window_latency_ms[w], 0.9);
    const double late_ms = spec.open_loop ? gen.window_late_p99_ms[w] : 0.0;
    const double msps = spec.open_loop ? 0.0
                                       : window_audio_s * kSampleRate /
                                             static_cast<double>(pass_wall_ns[w]) * 1e3;
    std::printf("window %zu: cpu %.4f ms/audio-s, p50 %.3f ms, p90 %.3f ms, "
                "pass %.3f Msamples/s, generator late p99 %.3f ms%s\n",
                w, cpu, p50, p90, msps, late_ms,
                !valid[w]                   ? " (late, not counted)"
                : late_ms > kLateLimitMs ? " (late, counted: among the least late)"
                                         : "");
    if (!valid[w]) continue;
    cpu_per_audio_s.push_back(cpu);
    p50s.push_back(p50);
    p90s.push_back(p90);
    window_msps.push_back(msps);
  }

  std::printf("workload %s seed %" PRIu64 ": %.0f audio-s in %.3f s wall, "
              "%zu passes, %zu windows; %zu latency samples (whole run: p50 "
              "%.3f ms, p90 %.3f ms, p99 %.3f ms); generator late p99 %.3f ms\n",
              spec.name.c_str(), ctx.seed, audio_s, wall_s, passes.size(),
              n_windows, latency_ms.size(), quantile(latency_ms, 0.5),
              quantile(latency_ms, 0.9), quantile(latency_ms, 0.99),
              gen.late_p99_ms);
  std::printf("counters: {\"ensembles\": %zu, \"data_reduction\": %.6f, "
              "\"trigger_precision\": %.6f, \"meso_accuracy\": %.6f, "
              "\"archive_bytes_per_sample\": %.6f, \"input_digest\": \"%016" PRIx64
              "\"}\n",
              q.ensembles, q.reduction, q.trigger_precision, q.meso_accuracy,
              bytes_per_sample, digest);
  std::printf("calibration: {\"rate_scale\": %.4f, \"offered_msps\": %.6f, "
              "\"emit_p99_ms\": %.3f, \"drain_ms\": %.3f, "
              "\"gen_late_p99_ms\": %.3f}\n",
              ctx.rate_scale,
              spec.open_loop ? spec.rate_x * ctx.rate_scale * kSampleRate *
                                   static_cast<double>(spec.stations) / 1e6
                             : 0.0,
              quantile(latency_ms, 0.99),
              drain_ms, gen.late_p99_ms);
  std::printf("validity: {\"stalled\": %s, \"on_schedule_windows\": %zu, "
              "\"drain_ms\": %.3f}\n",
              stalled ? "true" : "false", on_schedule, drain_ms);
  // Emission latency follows the machine's scheduling delays far more than
  // the program (NOTES.md), so it is reported here, and by run.py among the
  // per-layer metrics of a traced run, rather than as a bounded metric.
  std::printf("latency: {\"samples\": %zu, \"emit_p50_ms\": %.17g, "
              "\"emit_p90_ms\": %.17g}\n",
              latency_ms.size(), median(p50s), median(p90s));

  std::vector<Metric> metrics;
  if (!ctx.traced) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"throughput_msps",
         spec.open_loop ? audio_s * kSampleRate / wall_s / 1e6 : median(window_msps),
         "Msamples/s"},
        {"cpu_ms_per_audio_s", median(cpu_per_audio_s), "ms/audio-s"},
        {"peak_rss_mb", static_cast<double>(u1.maxrss_kb) / 1024.0, "MB"},
    };
  } else {
    const TraceSummary tr = Tracer::summary();
    double span_cpu_ms = 0.0;
    std::printf("%-20s %10s %12s %12s %12s\n", "span", "calls", "cpu_ms",
                "wait_ms", "self_ms");
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      const SpanAgg& a = tr.kinds[k];
      const double cpu = static_cast<double>(a.cpu_ns) / 1e6;
      const double wait = static_cast<double>(a.wall_ns - a.cpu_ns) / 1e6;
      const std::string name = kSpanNames[k];
      std::printf("%-20s %10" PRIu64 " %12.3f %12.3f %12.3f\n", name.c_str(),
                  a.calls, cpu, wait, static_cast<double>(a.self_ns) / 1e6);
      metrics.push_back({name + ".calls", static_cast<double>(a.calls), "count"});
      metrics.push_back({name + ".cpu_ms", cpu, "ms"});
      metrics.push_back({name + ".wait_ms", wait, "ms"});
      // Self CPU: child spans (features, classify) run inside sink accept.
      if (static_cast<SpanKind>(k) == SpanKind::kSinkAccept) {
        metrics.push_back(
            {name + ".self_ms", static_cast<double>(a.self_ns) / 1e6, "ms"});
      } else {
        span_cpu_ms += cpu;
      }
    }
    const SpanAgg& accept = tr.kinds[static_cast<std::size_t>(SpanKind::kSinkAccept)];
    // Only top-level spans add to the CPU sum (sink accept includes its
    // children, so count it once, whole).
    span_cpu_ms += static_cast<double>(accept.cpu_ns) / 1e6 -
                   static_cast<double>(
                       tr.kinds[static_cast<std::size_t>(SpanKind::kFeatures)].cpu_ns +
                       tr.kinds[static_cast<std::size_t>(SpanKind::kClassify)].cpu_ns) /
                       1e6;
    const double self_cpu_ms = cpu_ms - span_cpu_ms;
    // Independent check: per-thread CPU of every thread that recorded spans
    // plus the scheduling thread must add back up to process CPU.
    const double threads_ms =
        static_cast<double>(tr.other_thread_cpu_ns + (main_cpu1 - main_cpu0)) / 1e6;
    const double stage_sum_error = std::fabs(threads_ms / cpu_ms - 1.0);
    const bool adds_up = stage_sum_error <= kStageSumTolerance;
    ++attempted;
    if (!adds_up) ++failed;
    std::printf("process cpu %.3f ms = spans %.3f ms + session self %.3f ms; "
                "per-thread sum %.3f ms (off by %.2f%%, limit %.0f%%: %s)\n",
                cpu_ms, span_cpu_ms, self_cpu_ms, threads_ms,
                100.0 * stage_sum_error, 100.0 * kStageSumTolerance,
                adds_up ? "ok" : "FAIL");
    std::printf("spans kept %zu, not kept beyond the cap %zu\n", tr.spans_kept,
                tr.spans_dropped);
    metrics.push_back({"core.session.self_cpu_ms", self_cpu_ms, "ms"});
    metrics.push_back({"core.sched.rounds_per_audio_s",
                       static_cast<double>(host->rounds) / audio_s, "1/audio-s"});
    metrics.push_back({"core.sched.queue_p99_samples",
                       quantile(host->queued, 0.99), "samples"});
    metrics.push_back(
        {"proc.cpu_ms_per_audio_s", median(cpu_per_audio_s), "ms/audio-s"});
    metrics.push_back({"proc.vol_ctx_switches_per_audio_s",
                       static_cast<double>(u1.nvcsw - u0.nvcsw) / audio_s,
                       "1/audio-s"});
    metrics.push_back({"proc.allocs_per_audio_s",
                       static_cast<double>(allocs1 - allocs0) / audio_s,
                       "1/audio-s"});
    metrics.push_back({"gen.late_p99_ms", gen.late_p99_ms, "ms"});
    metrics.push_back({"trace.stage_sum_error", stage_sum_error, "fraction"});
    fs::create_directories(".bench_traces");
    Tracer::write(".bench_traces/" + spec.name + "-seed" +
                  std::to_string(ctx.seed) + ".jsonl");
  }
  host.reset();
  fs::remove_all(ctx.work);
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

/// Determinism self-test: the same seed gives the same input digest and
/// ensemble count; another seed changes the digest.
int self_test() {
  const core::PipelineParams params;
  int failures = 0;
  for (const Spec& spec : specs()) {
    std::uint64_t digests[3] = {};
    std::size_t counts[3] = {};
    const std::uint64_t seeds[3] = {11, 11, 12};
    for (int i = 0; i < 3; ++i) {
      const Pool pool = render_pool(spec, seeds[i]);
      const Plan plan = make_plan(spec, pool.samples.size(), 0.2, 1.0);
      digests[i] = input_digest(spec, seeds[i], pool, plan);
      core::StreamSession session(params);
      for (std::size_t r = 0; r < pool.samples.size() / spec.chunk; ++r) {
        counts[i] += session.push(chunk_of(spec, pool, plan, 0, r));
        static_cast<void>(session.drain());
      }
      counts[i] += session.finish().size();
    }
    const bool ok = digests[0] == digests[1] && counts[0] == counts[1] &&
                    digests[0] != digests[2] && counts[0] > 0;
    std::printf("%-16s digest %016" PRIx64 " / %016" PRIx64 " / %016" PRIx64
                ", ensembles %zu / %zu / %zu: %s\n",
                spec.name.c_str(), digests[0], digests[1], digests[2], counts[0],
                counts[1], counts[2], ok ? "ok" : "FAIL");
    failures += ok ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr,
               "perfbench_host: %s\nusage: perfbench_host --workload NAME "
               "--seed N --seconds S --trace 0|1 [--rate-scale X]\n"
               "       perfbench_host --self-test\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      args[key] = "1";
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      usage_error(("unexpected argument " + key).c_str());
    }
  }
  try {
    if (args.count("--self-test") != 0) return self_test();
    for (const char* key : {"--workload", "--seed", "--seconds", "--trace"}) {
      if (args.count(key) == 0) usage_error((std::string("missing ") + key).c_str());
    }
    const Spec* spec = find_spec(args["--workload"]);
    if (spec == nullptr) usage_error("unknown workload");
    RunContext ctx{*spec, 0, 0.0, 1.0, false, {}, {}};
    ctx.seed = std::stoull(args["--seed"]);
    ctx.seconds = std::stod(args["--seconds"]);
    ctx.traced = args["--trace"] == "1";
    if (args.count("--rate-scale") != 0) ctx.rate_scale = std::stod(args["--rate-scale"]);
    if (!(ctx.seconds > 0.0) || !(ctx.rate_scale > 0.0)) usage_error("bad --seconds/--rate-scale");
    ctx.work = fs::path(".bench_work") / (spec->name + "-" + std::to_string(getpid()));
    // A fixed mmap threshold: glibc's adaptive one lets freed multi-MB
    // buffers (replay prefetch windows) stay resident depending on thread
    // timing, which made peak_rss_mb vary from run to run.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    return run(ctx);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench_host: %s\n", ex.what());
    return 1;
  }
}
