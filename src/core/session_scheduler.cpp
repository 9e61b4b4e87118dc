#include "core/session_scheduler.hpp"

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"
#include "river/segment_store.hpp"

namespace dynriver::core {

// ---------------------------------------------------------------------------
// SchedulerStats
// ---------------------------------------------------------------------------

std::size_t SchedulerStats::total_queued_samples() const {
  std::size_t acc = 0;
  for (const auto& s : stations) acc += s.queued_samples;
  return acc;
}

std::size_t SchedulerStats::total_buffered_samples() const {
  std::size_t acc = 0;
  for (const auto& s : stations) {
    acc += s.queued_samples + s.session_buffered_samples;
  }
  return acc;
}

std::size_t SchedulerStats::total_samples_dropped() const {
  std::size_t acc = 0;
  for (const auto& s : stations) acc += s.samples_dropped;
  return acc;
}

std::size_t SchedulerStats::total_ensembles_out() const {
  std::size_t acc = 0;
  for (const auto& s : stations) acc += s.ensembles_out;
  return acc;
}

// ---------------------------------------------------------------------------
// SessionScheduler::Station
// ---------------------------------------------------------------------------

struct SessionScheduler::Station {
  std::string name;
  StationConfig config;          ///< immutable after add_station
  std::size_t chunk_samples = 0; ///< resolved read/eviction granularity
  std::unique_ptr<StreamSession> session;
  std::shared_ptr<river::SampleSource> source;  ///< null for push-fed
  std::shared_ptr<river::EnsembleSink> sink;

  mutable common::Mutex mu;       ///< guards queue + flags + counters
  common::CondVar room;           ///< kBlock producers wait for queue room
  std::deque<std::vector<float>> queue DR_GUARDED_BY(mu);
  std::size_t queued_samples DR_GUARDED_BY(mu) = 0;
  /// kBlock producers waiting on `room` right now.
  std::size_t room_waiters DR_GUARDED_BY(mu) = 0;
  bool closed DR_GUARDED_BY(mu) = false;  ///< no more input will arrive
  /// finish() delivered (claimed by the serving lane).
  bool session_finished DR_GUARDED_BY(mu) = false;
  /// sink finished too; never runnable again.
  bool finished DR_GUARDED_BY(mu) = false;
  /// On the active list or being served by a lane. Set only on the
  /// unscheduled->scheduled transition (enqueue/close), cleared only by the
  /// serving lane when a visit leaves no work — so one lane at a time.
  bool scheduled DR_GUARDED_BY(mu) = false;
  /// Live reconfigure hand-off.
  std::optional<PipelineParams> pending_params DR_GUARDED_BY(mu);

  /// Resolved per-round credit (config.quantum_samples or the scheduler
  /// default) — weighted DRR reads this, never the options, per round.
  std::size_t quantum = 0;
  /// Deficit round-robin credit; touched only by the one lane serving the
  /// station (`scheduled` admits one lane at a time; hand-offs between
  /// lanes go through ready_mu_).
  std::size_t deficit = 0;

  // Counters. samples_consumed is advanced in the same critical section
  // that dequeues a chunk (the identity `in == consumed + dropped + queued`
  // is exact for every stats() reader at every instant); session_buffered and
  // samples_replaced are cached copies of session state published after
  // each processing pass — stats() never touches the session from a
  // foreign thread.
  std::size_t samples_in DR_GUARDED_BY(mu) = 0;
  std::size_t samples_dropped DR_GUARDED_BY(mu) = 0;
  std::size_t samples_consumed DR_GUARDED_BY(mu) = 0;
  std::size_t ensembles_out DR_GUARDED_BY(mu) = 0;
  std::size_t session_buffered DR_GUARDED_BY(mu) = 0;
  std::size_t samples_replaced DR_GUARDED_BY(mu) = 0;
};

// ---------------------------------------------------------------------------
// SessionScheduler
// ---------------------------------------------------------------------------

SessionScheduler::SessionScheduler(SchedulerOptions options)
    : options_(std::move(options)) {
  DR_EXPECTS(options_.quantum_samples >= 1);
}

SessionScheduler::~SessionScheduler() {
  // run() joins its own threads; this only matters when run() was never
  // called or a caller's exception left push()ers blocked on queue room.
  shut_down(nullptr);
  for (auto& t : readers_) {
    if (t.joinable()) t.join();
  }
}

void SessionScheduler::shut_down(std::exception_ptr error) {
  {
    const common::LockGuard lk(ready_mu_);
    if (!error_) error_ = std::move(error);
    shutdown_.store(true, std::memory_order_relaxed);
  }
  ready_cv_.notify_all();
  for (auto& st : stations_) {
    // A producer that read shutdown_ as false still holds mu until it
    // waits; taking mu here orders the notify after that wait.
    { const common::LockGuard lk(st->mu); }
    st->room.notify_all();
  }
}

std::size_t SessionScheduler::add_station_impl(
    std::string name, std::shared_ptr<river::SampleSource> source,
    std::shared_ptr<river::EnsembleSink> sink, StationConfig config) {
  DR_EXPECTS(!running_);
  DR_EXPECTS(sink != nullptr);
  config.params.validate();
  auto st = std::make_unique<Station>();
  st->chunk_samples = config.read_chunk_samples != 0 ? config.read_chunk_samples
                                                     : config.params.record_size;
  st->quantum = config.quantum_samples != 0 ? config.quantum_samples
                                            : options_.quantum_samples;
  DR_EXPECTS(st->chunk_samples >= 1);
  DR_EXPECTS(st->chunk_samples <= config.queue_capacity_samples);
  st->name = std::move(name);
  st->session = std::make_unique<StreamSession>(
      config.params, config.session_options, config.engine);
  st->source = std::move(source);
  st->sink = std::move(sink);
  st->config = std::move(config);
  stations_.push_back(std::move(st));
  const common::LockGuard lk(ready_mu_);
  ++unfinished_;
  return stations_.size() - 1;
}

std::size_t SessionScheduler::add_station(
    std::string name, std::shared_ptr<river::SampleSource> source,
    std::shared_ptr<river::EnsembleSink> sink, StationConfig config) {
  DR_EXPECTS(source != nullptr);
  return add_station_impl(std::move(name), std::move(source), std::move(sink),
                          std::move(config));
}

std::size_t SessionScheduler::add_station(
    std::string name, std::shared_ptr<river::EnsembleSink> sink,
    StationConfig config) {
  return add_station_impl(std::move(name), nullptr, std::move(sink),
                          std::move(config));
}

void SessionScheduler::make_ready(Station& st) {
  bool wake = false;
  {
    const common::LockGuard lk(ready_mu_);
    ready_.push_back(&st);
    if (parked_ > wakeups_) {
      ++wakeups_;
      wake = true;
    }
  }
  if (wake) ready_cv_.notify_one();
}

std::size_t SessionScheduler::enqueue(Station& st,
                                      std::span<const float> samples) {
  if (samples.empty()) return 0;
  // A chunk must individually fit: the queue bound is hard, never "capacity
  // plus one oversized chunk".
  DR_EXPECTS(samples.size() <= st.config.queue_capacity_samples);
  std::size_t dropped = 0;
  bool schedule = false;
  {
    common::UniqueLock lk(st.mu);
    DR_EXPECTS(!st.closed);
    if (st.config.policy == BackpressurePolicy::kBlock) {
      while (!shutdown_.load(std::memory_order_relaxed) &&
             st.queued_samples + samples.size() >
                 st.config.queue_capacity_samples) {
        ++st.room_waiters;
        st.room.wait(lk);
        --st.room_waiters;
      }
      if (shutdown_.load(std::memory_order_relaxed)) return 0;
    } else {
      // kDropOldest: evict whole chunks, oldest first, until this one fits.
      // Every evicted sample is accounted — pushed == consumed + dropped +
      // still-queued holds exactly at all times.
      while (st.queued_samples + samples.size() >
             st.config.queue_capacity_samples) {
        dropped += st.queue.front().size();
        st.queued_samples -= st.queue.front().size();
        st.queue.pop_front();
      }
    }
    st.queue.emplace_back(samples.begin(), samples.end());
    st.queued_samples += samples.size();
    st.samples_in += samples.size();
    st.samples_dropped += dropped;
    schedule = !st.scheduled;
    st.scheduled = true;
  }
  if (schedule) make_ready(st);
  return dropped;
}

std::size_t SessionScheduler::push(std::size_t station,
                                   std::span<const float> samples) {
  return enqueue(*stations_.at(station), samples);
}

void SessionScheduler::close_internal(Station& st) {
  bool schedule = false;
  {
    const common::LockGuard lk(st.mu);
    st.closed = true;
    schedule = !st.scheduled && !st.finished;
    if (schedule) st.scheduled = true;
  }
  st.room.notify_all();
  if (schedule) make_ready(st);
}

void SessionScheduler::close_station(std::size_t station) {
  close_internal(*stations_.at(station));
}

void SessionScheduler::reconfigure(std::size_t station,
                                   const PipelineParams& params) {
  Station& st = *stations_.at(station);
  params.validate();
  // Validated against the construction-time params: the scoring/spectral
  // fields are invariant for the session's lifetime, so they are the stable
  // reference no matter how many reconfigures already landed.
  DR_EXPECTS(reconfigure_compatible(params, st.config.params));
  {
    const common::LockGuard lk(st.mu);
    st.pending_params = params;
  }
}

void SessionScheduler::deliver(Station& st,
                               std::vector<river::Ensemble> ensembles) {
  if (ensembles.empty()) return;
  const std::size_t count = ensembles.size();
  for (auto& e : ensembles) st.sink->accept(std::move(e));
  const common::LockGuard lk(st.mu);
  st.ensembles_out += count;
}

SessionScheduler::Visit SessionScheduler::process_station(Station& st) {
  st.deficit += st.quantum;
  bool drained = false;
  for (;;) {
    std::vector<float> chunk;
    bool wake_producer = false;
    {
      const common::LockGuard lk(st.mu);
      if (st.queue.empty()) {
        drained = true;
        break;
      }
      if (st.queue.front().size() > st.deficit) break;  // credit exhausted
      chunk = std::move(st.queue.front());
      st.queue.pop_front();
      st.queued_samples -= chunk.size();
      // Counted as consumed in the same critical section that dequeues it,
      // so `pushed == consumed + dropped + queued` holds exactly for every
      // stats() reader at every instant — the chunk is unconditionally fed
      // to the session before this lane lets go of the station.
      st.samples_consumed += chunk.size();
      if (st.pending_params) {
        // Hand the live re-parameterization to the session before the next
        // chunk; the session defers to the ensemble boundary internally.
        st.session->reconfigure(*st.pending_params);
        st.pending_params.reset();
      }
      // Low watermark: a blocked producer wakes once half the queue is free,
      // then refills it in one burst instead of one chunk per dequeue. Every
      // dequeue below the mark notifies again, and the queue drains to empty
      // while a producer waits, so any chunk that fits the queue gets room.
      wake_producer = st.room_waiters > 0 &&
                      st.queued_samples <= st.config.queue_capacity_samples / 2;
    }
    if (wake_producer) st.room.notify_all();
    st.deficit -= chunk.size();
    if (st.session->push(chunk) > 0) deliver(st, st.session->drain());
  }
  // Classic DRR: an emptied queue forfeits leftover credit, so an idle
  // station cannot bank quanta and later monopolize a round.
  if (drained) st.deficit = 0;

  bool close_now = false;
  {
    const common::LockGuard lk(st.mu);
    close_now = st.closed && st.queue.empty() && !st.session_finished;
    if (close_now) st.session_finished = true;
  }
  if (close_now) {
    deliver(st, st.session->finish());
    st.sink->finish();
  }

  const common::LockGuard lk(st.mu);
  st.session_buffered = st.session->buffered_samples();
  st.samples_replaced = st.session->samples_replaced();
  if (close_now) {
    st.finished = true;
    st.scheduled = false;
    return Visit::kFinished;
  }
  // Decided in the same critical section enqueue/close_internal test
  // `scheduled` in, so no arrival can fall between this check and parking.
  if (!st.queue.empty() || st.closed) return Visit::kRequeue;
  st.scheduled = false;
  return Visit::kPark;
}

SessionScheduler::Station* SessionScheduler::pop_ready_locked(
    bool& closes_round) {
  if (ready_.empty()) return nullptr;
  // A round covers exactly the stations on the list when it opens: the
  // list is FIFO, so they are the next round_left_ pops.
  if (round_left_ == 0) round_left_ = ready_.size();
  Station* st = ready_.front();
  ready_.pop_front();
  closes_round = --round_left_ == 0;
  return st;
}

SessionScheduler::Station* SessionScheduler::next_ready(bool& closes_round) {
  common::UniqueLock lk(ready_mu_);
  for (;;) {
    if (shutdown_.load(std::memory_order_relaxed)) return nullptr;
    if (Station* st = pop_ready_locked(closes_round)) return st;
    if (unfinished_ == 0) return nullptr;
    ++parked_;
    ready_cv_.wait(lk);
    --parked_;
    if (wakeups_ > 0) --wakeups_;
  }
}

void SessionScheduler::serve(Station& st, bool closes_round) {
  const Visit visit = process_station(st);
  bool all_finished = false;
  {
    const common::LockGuard lk(ready_mu_);
    // Requeueing wakes nobody: the lane serving it is about to pop again.
    if (visit == Visit::kRequeue) ready_.push_back(&st);
    if (visit == Visit::kFinished) all_finished = --unfinished_ == 0;
  }
  if (all_finished) ready_cv_.notify_all();
  if (closes_round) {
    rounds_.fetch_add(1, std::memory_order_relaxed);
    if (options_.on_round) {
      const common::LockGuard lk(on_round_mu_);
      options_.on_round(stats());
    }
  }
}

bool SessionScheduler::process_available() {
  std::size_t visits = 0;
  {
    const common::LockGuard lk(ready_mu_);
    visits = ready_.size();
    round_left_ = visits;
  }
  for (; visits > 0; --visits) {
    bool closes_round = false;
    Station* st = nullptr;
    {
      const common::LockGuard lk(ready_mu_);
      st = pop_ready_locked(closes_round);
    }
    serve(*st, closes_round);
  }
  const common::LockGuard lk(ready_mu_);
  return unfinished_ > 0;
}

void SessionScheduler::lane_loop() {
  try {
    bool closes_round = false;
    while (Station* st = next_ready(closes_round)) serve(*st, closes_round);
  } catch (...) {
    shut_down(std::current_exception());
  }
}

void SessionScheduler::reader_loop(Station& st) {
  std::vector<float> buf(st.chunk_samples);
  while (!shutdown_.load(std::memory_order_relaxed)) {
    const std::size_t n = st.source->read(buf);
    if (n == 0) break;
    enqueue(st, std::span<const float>(buf.data(), n));
  }
  close_internal(st);
}

void SessionScheduler::run() {
  DR_EXPECTS(!running_);
  running_ = true;
  readers_.reserve(stations_.size());
  for (auto& st : stations_) {
    if (st->source != nullptr) {
      readers_.emplace_back([this, s = st.get()] { reader_loop(*s); });
    }
  }
  const std::size_t lane_count = options_.threads != 0
                                     ? options_.threads
                                     : common::default_thread_count();
  std::vector<std::thread> lanes;
  lanes.reserve(lane_count - 1);
  for (std::size_t i = 1; i < lane_count; ++i) {
    try {
      lanes.emplace_back([this] { lane_loop(); });
    } catch (...) {  // no thread to spare: stop the lanes that did start
      shut_down(std::current_exception());
      break;
    }
  }
  lane_loop();
  for (auto& t : lanes) t.join();
  for (auto& t : readers_) t.join();
  readers_.clear();
  std::exception_ptr error;
  {
    const common::LockGuard lk(ready_mu_);
    error = error_;
  }
  if (error) std::rethrow_exception(error);
}

SchedulerStats SessionScheduler::stats() const {
  SchedulerStats out;
  out.rounds = rounds_.load(std::memory_order_relaxed);
  out.stations.reserve(stations_.size());
  for (const auto& stp : stations_) {
    const Station& st = *stp;
    const common::LockGuard lk(st.mu);
    StationStats s;
    s.name = st.name;
    s.samples_in = st.samples_in;
    s.samples_dropped = st.samples_dropped;
    s.samples_consumed = st.samples_consumed;
    s.ensembles_out = st.ensembles_out;
    s.queued_samples = st.queued_samples;
    s.session_buffered_samples = st.session_buffered;
    s.samples_replaced = st.samples_replaced;
    s.finished = st.finished;
    out.stations.push_back(std::move(s));
  }
  return out;
}

const StreamSession& SessionScheduler::session(std::size_t station) const {
  return *stations_.at(station)->session;
}

std::size_t add_replay_station(SessionScheduler& scheduler, std::string name,
                               const std::filesystem::path& store_dir,
                               double t0, double t1,
                               std::shared_ptr<river::EnsembleSink> sink,
                               StationConfig config) {
  auto source = std::make_shared<river::SegmentStoreSource>(store_dir, t0, t1);
  return scheduler.add_station(std::move(name), std::move(source),
                               std::move(sink), std::move(config));
}

}  // namespace dynriver::core
