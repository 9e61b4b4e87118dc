// Host-scale session multiplexing: many stations' streaming extraction
// sessions driven fairly on one machine.
//
// The paper's deployment shape is a sensor network of many acoustic
// stations feeding one analysis host. SessionScheduler owns one named
// StreamSession per station — each bound to a river::SampleSource and an
// river::EnsembleSink — and drives them from its own lanes with deficit
// round-robin scheduling: stations with work wait in one FIFO active list,
// and every visit gives a station a `quantum_samples` credit to process
// whole chunks while its credit lasts, so a chatty station cannot starve a
// quiet one. A lane that finishes a visit takes the next ready station at
// once; no lane waits for another (work-conserving), and a station is
// served by at most one lane at a time, so its ensembles stay in order.
//
// Ingest is decoupled from processing by a per-station bounded queue with
// an explicit backpressure policy:
//   kBlock      — the producer (reader thread or push() caller) waits for
//                 queue room; backpressure propagates upstream (a TCP
//                 sender eventually blocks on its socket). A blocked
//                 producer is woken at a low watermark, once the queue is
//                 at most half full, and then refills it in one burst
//                 rather than waking for every dequeued chunk.
//   kDropOldest — the producer never waits; the oldest queued chunks are
//                 evicted to make room and every evicted sample is counted
//                 in StationStats::samples_dropped (lossy-edge accounting,
//                 complementing the sources' clean-vs-lost end tracking).
// The queue never holds more than `queue_capacity_samples` samples; with
// the session's own bounded buffering this caps the host's memory at
// sum over stations of (queue capacity + open ensemble + merge gap).
//
// Live re-parameterization: reconfigure(station, params) hands new
// trigger / merge-gap / length-floor parameters to a running session; they
// are adopted at the next safe automaton boundary (between ensembles, via
// StreamSession::reconfigure) without restarting the stream or losing the
// open ensemble.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/stream_session.hpp"
#include "river/sample_io.hpp"

namespace dynriver::core {

/// What an ingest queue does when a chunk arrives and the queue is full.
enum class BackpressurePolicy : std::uint8_t {
  kBlock,      ///< producer waits for room, woken once the queue is half
               ///< free (lossless; upstream slows down)
  kDropOldest  ///< evict oldest queued chunks, counting every lost sample
};

/// Per-station configuration.
struct StationConfig {
  PipelineParams params;
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  /// Ingest-queue bound in samples (a hard bound: enqueue never exceeds it;
  /// chunks must individually fit). Default ~3 s at the paper's rate.
  std::size_t queue_capacity_samples = 65536;
  /// Samples per source read; 0 = params.record_size. Must be <= the queue
  /// capacity. Also the granularity of drop-oldest eviction.
  std::size_t read_chunk_samples = 0;
  /// Weighted deficit round-robin: this station's per-round credit in
  /// samples; 0 adopts the scheduler-wide SchedulerOptions::quantum_samples
  /// (uniform fairness). A station with twice the quantum drains twice the
  /// samples per round while backlogged — priority stations (a critical
  /// hydrophone among routine ones) get a proportional throughput share
  /// without starving anyone.
  std::size_t quantum_samples = 0;
  /// Session observation knobs (taps, on_signal). on_signal runs on a
  /// scheduler lane.
  SessionOptions session_options;
  /// Optional shared SpectralEngine (e.g. one engine for all stations);
  /// nullptr builds a private one from `params`.
  std::shared_ptr<const SpectralEngine> engine;
};

/// Point-in-time per-station accounting.
struct StationStats {
  std::string name;
  std::size_t samples_in = 0;       ///< accepted into the ingest queue
  std::size_t samples_dropped = 0;  ///< evicted under kDropOldest
  std::size_t samples_consumed = 0; ///< pushed through the session
  std::size_t ensembles_out = 0;    ///< delivered to the sink
  std::size_t queued_samples = 0;   ///< current ingest-queue depth
  std::size_t session_buffered_samples = 0;  ///< open ensemble + gap + cuts
  /// Non-finite samples the session read as 0.0f (the archive keeps them).
  std::size_t samples_replaced = 0;
  bool finished = false;  ///< source/close seen, queue drained, sink finished
};

/// Aggregate snapshot across every station.
struct SchedulerStats {
  std::vector<StationStats> stations;
  /// Scheduling rounds completed so far. A round is one full cycle through
  /// the active list: every station that was ready when the round began has
  /// had one visit.
  std::size_t rounds = 0;

  [[nodiscard]] std::size_t total_queued_samples() const;
  [[nodiscard]] std::size_t total_buffered_samples() const;  ///< queues + sessions
  [[nodiscard]] std::size_t total_samples_dropped() const;
  [[nodiscard]] std::size_t total_ensembles_out() const;
};

struct SchedulerOptions {
  /// Lanes run() serves stations on: 0 = common::default_thread_count()
  /// (DR_THREADS, else hardware concurrency), 1 = serial on the caller,
  /// >= 2 = that many lanes, the caller being one of them.
  std::size_t threads = 0;
  /// Deficit round-robin credit per station per round, in samples, for
  /// stations that leave StationConfig::quantum_samples at 0. A station
  /// processes whole queued chunks while its accumulated credit lasts;
  /// credit carries over while work remains (so chunks larger than one
  /// quantum still progress) and resets when its queue drains.
  std::size_t quantum_samples = 4500;
  /// Observer invoked after every scheduling round (one full cycle through
  /// the active list) with a fresh stats() snapshot — fairness/memory audits
  /// hook in here. It runs on whichever lane closes the round, while the
  /// other lanes keep working, so the snapshot is exact per station but not
  /// a quiescent whole. Calls never overlap: they are serialized behind
  /// their own mutex. Under process_available() it runs on the caller.
  std::function<void(const SchedulerStats&)> on_round;
};

/// Multiplexes N stations' StreamSessions on one host. Stations are added
/// up front; run() (or repeated process_available() calls) drives them to
/// completion. Thread-safe entry points: push(), close_station(),
/// reconfigure(), stats().
class SessionScheduler {
 public:
  explicit SessionScheduler(SchedulerOptions options = {});
  ~SessionScheduler();

  SessionScheduler(const SessionScheduler&) = delete;
  SessionScheduler& operator=(const SessionScheduler&) = delete;

  /// Source-fed station: run() spawns a reader thread that pulls
  /// `read_chunk_samples` at a time from `source` into the ingest queue
  /// under the configured backpressure policy, and closes the station at
  /// end of source. Returns the station id.
  std::size_t add_station(std::string name,
                          std::shared_ptr<river::SampleSource> source,
                          std::shared_ptr<river::EnsembleSink> sink,
                          StationConfig config = {});

  /// Push-fed station: no source; feed it with push() from any thread and
  /// end the stream with close_station().
  std::size_t add_station(std::string name,
                          std::shared_ptr<river::EnsembleSink> sink,
                          StationConfig config = {});

  /// Enqueue one chunk for a (push-fed) station under its backpressure
  /// policy. kBlock waits for queue room — some thread must be driving
  /// run()/process_available() or the wait never ends. Returns the number
  /// of samples evicted to make room (always 0 under kBlock).
  std::size_t push(std::size_t station, std::span<const float> samples);

  /// No more input for this station: once its queue drains, the session is
  /// finished, the tail ensembles delivered, and the sink finished.
  void close_station(std::size_t station);

  /// Live re-parameterization of a running session. Validated eagerly
  /// (must be reconfigure_compatible with the station's current params);
  /// adopted by the serving lane before the station's next processed chunk,
  /// at a safe automaton boundary. Ensembles already in flight are
  /// unaffected.
  void reconfigure(std::size_t station, const PipelineParams& params);

  /// Drive every station to completion: spawns the reader threads and
  /// `threads - 1` lane threads, serves stations on the caller as the last
  /// lane, and returns once all stations are finished. Call at most once.
  /// Push-fed stations must be closed (by other threads) for run() to
  /// return. The first exception a sink (or on_round) throws on any lane
  /// shuts the scheduler down — lanes stop, blocked producers are released,
  /// lanes and readers are joined — and is rethrown here.
  void run();

  /// One deficit-round-robin round over the stations that are ready at
  /// entry (queued work, or closed and ready to finish), served serially on
  /// the caller through the same visit path run()'s lanes use. Returns true
  /// while any station is unfinished. Alternative to run() for callers that
  /// interleave their own work or drive the scheduler deterministically
  /// (tests); `threads` does not apply. A sink exception propagates to the
  /// caller, and the station it came from is not served again.
  bool process_available();

  [[nodiscard]] SchedulerStats stats() const;
  [[nodiscard]] std::size_t station_count() const { return stations_.size(); }

  /// The station's session — for featurize() and parameter inspection.
  /// Only safe while the station is quiescent: from its own sink's
  /// accept()/finish() callbacks, between process_available() calls, or
  /// after run() returns.
  [[nodiscard]] const StreamSession& session(std::size_t station) const;

 private:
  struct Station;

  /// What a visit left behind: more work (back to the active list's
  /// tail), none for now (parked until enqueue/close), or a finished sink.
  enum class Visit : std::uint8_t { kRequeue, kPark, kFinished };

  std::size_t add_station_impl(std::string name,
                               std::shared_ptr<river::SampleSource> source,
                               std::shared_ptr<river::EnsembleSink> sink,
                               StationConfig config);
  std::size_t enqueue(Station& st, std::span<const float> samples);
  void close_internal(Station& st);
  void make_ready(Station& st) DR_EXCLUDES(ready_mu_);
  Station* pop_ready_locked(bool& closes_round) DR_REQUIRES(ready_mu_);
  Station* next_ready(bool& closes_round) DR_EXCLUDES(ready_mu_);
  void serve(Station& st, bool closes_round) DR_EXCLUDES(ready_mu_);
  Visit process_station(Station& st);
  void deliver(Station& st, std::vector<river::Ensemble> ensembles);
  void lane_loop();
  void shut_down(std::exception_ptr error) DR_EXCLUDES(ready_mu_);
  void reader_loop(Station& st);

  SchedulerOptions options_;
  std::vector<std::unique_ptr<Station>> stations_;
  std::atomic<std::size_t> rounds_{0};
  bool running_ = false;
  /// Set once (under ready_mu_) by the destructor or a failing lane: lanes
  /// stop popping and producers stop waiting for room.
  std::atomic<bool> shutdown_{false};

  // The active list. ready_mu_ is a leaf: it is never held together with a
  // station mu (or on_round_mu_).
  common::Mutex ready_mu_;
  common::CondVar ready_cv_;  ///< parked lanes wait here
  std::deque<Station*> ready_ DR_GUARDED_BY(ready_mu_);
  /// Pops left in the current round; 0 = the next pop opens a round.
  std::size_t round_left_ DR_GUARDED_BY(ready_mu_) = 0;
  std::size_t unfinished_ DR_GUARDED_BY(ready_mu_) = 0;
  std::size_t parked_ DR_GUARDED_BY(ready_mu_) = 0;  ///< lanes in wait
  /// Notifies sent to parked lanes that no lane has woken for yet, so a
  /// burst of enqueues wakes each parked lane at most once.
  std::size_t wakeups_ DR_GUARDED_BY(ready_mu_) = 0;
  std::exception_ptr error_ DR_GUARDED_BY(ready_mu_);

  /// Serializes on_round; taken with no other lock held (stats() then takes
  /// station locks under it).
  common::Mutex on_round_mu_;
  std::vector<std::thread> readers_;
};

/// Archive backfill wiring: add a station whose source replays stream times
/// [t0, t1) of the segment store at `store_dir` (see river/segment_store.hpp)
/// through the scheduler — a month of archive re-extracts at batch speed
/// through the same sessions that serve live traffic. The archived records
/// carry their sample rate; `config.params` still fixes the session's
/// spectral configuration, so it must match the archived stream. Returns the
/// station id.
std::size_t add_replay_station(SessionScheduler& scheduler, std::string name,
                               const std::filesystem::path& store_dir,
                               double t0, double t1,
                               std::shared_ptr<river::EnsembleSink> sink,
                               StationConfig config = {});

}  // namespace dynriver::core
