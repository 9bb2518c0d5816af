// Bounded blocking queue — the backpressure primitive of the streaming
// ingest pipeline (haystack::pipeline).
//
// A mutex+condvar ring usable MPSC or MPMC. push() blocks while the queue
// is full, so backpressure propagates upstream stage by stage until the
// datagram producer itself slows down; pop()/pop_wave() block while the
// queue is empty. close() starts the drain-then-stop protocol: new pushes
// are refused, consumers keep draining until the queue is empty and then
// see end-of-stream (nullopt / 0). A closed queue stays closed.
//
// Every queue keeps its own telemetry::StageStats (depth, throughput,
// producer/consumer stalls, adaptive-batch waves) so a deployment can see
// exactly which stage is the bottleneck. A queue may additionally carry an
// obs::FlightRecorder: each producer stall then lands as a
// kBackpressureStall event (source = stage tag, a = depth at stall), so a
// post-mortem dump shows *which* stage pushed back and when.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "telemetry/counters.hpp"

namespace haystack::pipeline {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity,
                        obs::FlightRecorder* recorder = nullptr,
                        std::uint32_t stage_tag = 0)
      : capacity_{std::max<std::size_t>(1, capacity)},
        recorder_{recorder},
        stage_tag_{stage_tag} {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full (backpressure). Returns false — and
  /// drops the item — when the queue is closed.
  bool push(T item) {
    std::unique_lock lock{mu_};
    if (items_.size() >= capacity_ && !closed_) {
      ++stats_.producer_stalls;
      if (recorder_ != nullptr) {
        recorder_->record(obs::EventKind::kBackpressureStall, stage_tag_,
                          items_.size());
      }
      not_full_.wait(lock,
                     [&] { return items_.size() < capacity_ || closed_; });
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    ++stats_.enqueued;
    stats_.max_depth = std::max(stats_.max_depth, items_.size());
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty. nullopt means closed and fully
  /// drained — end of stream.
  std::optional<T> pop() {
    std::unique_lock lock{mu_};
    if (items_.empty() && !closed_) {
      ++stats_.consumer_stalls;
      not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    ++stats_.dequeued;
    not_full_.notify_one();
    return item;
  }

  /// Adaptive batching: blocks for the first item, then claims whatever
  /// else is already queued, up to `max` items, in one critical section.
  /// Returns the number of items appended to `out`; 0 means closed and
  /// fully drained.
  std::size_t pop_wave(std::vector<T>& out, std::size_t max) {
    std::unique_lock lock{mu_};
    if (items_.empty() && !closed_) {
      ++stats_.consumer_stalls;
      not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    }
    const std::size_t n = std::min(std::max<std::size_t>(1, max),
                                   items_.size());
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    if (n > 0) {
      stats_.dequeued += n;
      ++stats_.waves;
      not_full_.notify_all();
    }
    return n;
  }

  /// Refuse new pushes; wake everyone. Consumers drain what remains.
  void close() {
    std::lock_guard lock{mu_};
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock{mu_};
    return closed_;
  }

  [[nodiscard]] std::size_t depth() const {
    std::lock_guard lock{mu_};
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] telemetry::StageStats stats() const {
    std::lock_guard lock{mu_};
    telemetry::StageStats s = stats_;
    s.depth = items_.size();
    s.capacity = capacity_;
    // Per-queue the summed high-water IS the high-water; aggregation via
    // operator+= then keeps the sum and the max as distinct quantities.
    s.high_water_sum = s.max_depth;
    return s;
  }

 private:
  const std::size_t capacity_;
  obs::FlightRecorder* const recorder_;
  const std::uint32_t stage_tag_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
  telemetry::StageStats stats_;  // depth/capacity filled at snapshot time
};

}  // namespace haystack::pipeline
