#include "river/channel.hpp"

#include "common/contracts.hpp"

namespace dynriver::river {

InProcessChannel::InProcessChannel(std::size_t capacity) : capacity_(capacity) {
  DR_EXPECTS(capacity >= 1);
}

bool InProcessChannel::send(Record rec) {
  common::UniqueLock lock(mu_);
  while (queue_.size() >= capacity_ && !closed_ && !disconnected_) {
    cv_send_.wait(lock);
  }
  if (closed_ || disconnected_) return false;
  queue_.push_back(std::move(rec));
  cv_recv_.notify_one();
  return true;
}

RecvStatus InProcessChannel::recv(Record& out) {
  common::UniqueLock lock(mu_);
  while (queue_.empty() && !closed_ && !disconnected_) cv_recv_.wait(lock);
  if (!queue_.empty()) {
    out = std::move(queue_.front());
    queue_.pop_front();
    cv_send_.notify_one();
    return RecvStatus::kRecord;
  }
  return disconnected_ ? RecvStatus::kDisconnected : RecvStatus::kClosed;
}

RecvStatus InProcessChannel::recv_for(Record& out, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  common::UniqueLock lock(mu_);
  while (queue_.empty() && !closed_ && !disconnected_) {
    if (cv_recv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // Deadline passed: re-test the predicate once (a notify may have
      // raced the timeout), then report.
      if (queue_.empty() && !closed_ && !disconnected_) {
        return RecvStatus::kTimeout;
      }
      break;
    }
  }
  if (!queue_.empty()) {
    out = std::move(queue_.front());
    queue_.pop_front();
    cv_send_.notify_one();
    return RecvStatus::kRecord;
  }
  return disconnected_ ? RecvStatus::kDisconnected : RecvStatus::kClosed;
}

void InProcessChannel::close() {
  {
    const common::LockGuard lock(mu_);
    closed_ = true;
  }
  cv_recv_.notify_all();
  cv_send_.notify_all();
}

void InProcessChannel::disconnect() {
  {
    const common::LockGuard lock(mu_);
    disconnected_ = true;
    queue_.clear();  // an abnormal death loses in-flight records
  }
  cv_recv_.notify_all();
  cv_send_.notify_all();
}

std::size_t InProcessChannel::size() const {
  const common::LockGuard lock(mu_);
  return queue_.size();
}

}  // namespace dynriver::river
