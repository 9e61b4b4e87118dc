// Record channels: the links between pipeline segments.
//
// A channel moves records between segments that may live on different
// threads or hosts. InProcessChannel is a bounded MPMC queue providing
// backpressure.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>

#include "common/thread_annotations.hpp"
#include "river/record.hpp"

namespace dynriver::river {

/// Result of a receive operation.
enum class RecvStatus : std::uint8_t {
  kRecord,        ///< a record was received
  kClosed,        ///< the channel was closed cleanly by the sender
  kDisconnected,  ///< the connection died without a clean close
  kTimeout,       ///< recv_for() deadline expired with no record
};

/// Abstract bidirectional-agnostic record link. Senders call `send` and then
/// either `close` (clean end-of-stream) or drop the channel (abnormal).
class RecordChannel {
 public:
  virtual ~RecordChannel() = default;

  /// Blocking send. Returns false when the peer is gone.
  virtual bool send(Record rec) = 0;

  /// Blocking receive.
  virtual RecvStatus recv(Record& out) = 0;

  /// Receive with a deadline. Channels that cannot wait with a timeout run
  /// a plain blocking receive instead (and therefore never return kTimeout).
  virtual RecvStatus recv_for(Record& out, int timeout_ms) {
    (void)timeout_ms;
    return recv(out);
  }

  /// Clean end-of-stream from the sending side.
  virtual void close() = 0;

  /// Abnormal termination (simulates a dying host/segment).
  virtual void disconnect() = 0;
};

/// Bounded in-process MPMC channel with blocking semantics.
class InProcessChannel final : public RecordChannel {
 public:
  explicit InProcessChannel(std::size_t capacity = 256);

  bool send(Record rec) override;
  RecvStatus recv(Record& out) override;
  RecvStatus recv_for(Record& out, int timeout_ms) override;
  void close() override;
  void disconnect() override;

  [[nodiscard]] std::size_t size() const;

 private:
  mutable common::Mutex mu_;
  common::CondVar cv_send_;
  common::CondVar cv_recv_;
  std::deque<Record> queue_ DR_GUARDED_BY(mu_);
  std::size_t capacity_;  ///< immutable after construction
  bool closed_ DR_GUARDED_BY(mu_) = false;
  bool disconnected_ DR_GUARDED_BY(mu_) = false;
};

}  // namespace dynriver::river
