// Persistent worker pool over bounded per-shard queues.
//
// One long-lived consumer thread per shard, each draining its own
// BoundedQueue in adaptive waves — submissions only ever contend with
// their shard's consumer, never with other shards. Because a shard is one
// queue consumed by one thread, per-producer FIFO order is preserved per
// shard; that ordering contract is what the sharded detector's bit-for-bit
// determinism rests on.
//
// Lifecycle protocol:
//   submit() the first submit spawns the workers, so a pool nothing feeds
//            costs no threads; racing first submits spawn them once.
//   drain()  quiescence barrier — returns once every item submitted
//            before the call has been fully handled. Cheap when idle,
//            immediate on a pool that never started.
//   stop()   drain-then-stop — closes the queues (pending items are still
//            consumed), joins the workers. Later submits are refused; a
//            stopped pool never restarts.
//   start()  starts the workers up front; a no-op once the pool has
//            started or stopped.
// submit()/drain()/stop()/start() may be called from any number of
// threads. Handlers must not call drain() (a worker waiting on itself
// would deadlock).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/observability.hpp"
#include "obs/span.hpp"
#include "pipeline/bounded_queue.hpp"

namespace haystack::pipeline {

struct ShardPoolConfig {
  unsigned shards = 1;
  std::size_t queue_capacity = 1024;
  /// Adaptive-batching bound: max items a worker claims per wake-up.
  std::size_t max_wave = 64;
  /// Optional observability sink. When set, each worker records its waves
  /// into its own stage_wave_ns and stage_wave_items series, labelled
  /// {shard, stage_name(stage_tag)}, and the queues record
  /// kBackpressureStall flight events with source = stage_tag.
  obs::Observability* obs = nullptr;
  /// This pool's stage (an obs::StageTag).
  std::uint32_t stage_tag = 0;
};

template <typename Item>
class ShardPool {
 public:
  /// Called on the shard's worker thread with a claimed wave of items.
  using Handler = std::function<void(unsigned shard,
                                     std::vector<Item>& wave)>;

  ShardPool(const ShardPoolConfig& config, Handler handler)
      : config_{config}, handler_{std::move(handler)} {
    config_.shards = std::max(1u, config_.shards);
    config_.max_wave = std::max<std::size_t>(1, config_.max_wave);
    state_ = std::make_unique<ShardState[]>(config_.shards);
    obs::Observability* sink = config_.obs;
    queues_.reserve(config_.shards);
    for (unsigned s = 0; s < config_.shards; ++s) {
      queues_.push_back(std::make_unique<BoundedQueue<Item>>(
          config_.queue_capacity,
          sink != nullptr ? &sink->recorder : nullptr, config_.stage_tag));
      if (sink == nullptr) continue;
      // One series per worker, not one per pool: every wave records into
      // them, and workers sharing one histogram contend on its cache lines
      // every wave (measured at >15% streaming overhead at 8 shards,
      // versus ~1% with per-worker series).
      const obs::Labels labels{{"shard", std::to_string(s)},
                               {"stage", obs::stage_name(config_.stage_tag)}};
      state_[s].wave_ns = sink->registry.histogram("stage_wave_ns", labels);
      state_[s].wave_items =
          sink->registry.histogram("stage_wave_items", labels);
    }
  }

  ~ShardPool() { stop(); }

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Blocking submit with backpressure. Returns false when the pool is
  /// stopped (the item is dropped).
  bool submit(unsigned shard, Item item) {
    if (!started_.load(std::memory_order_acquire)) start();
    ShardState& st = state_[shard];
    st.submitted.fetch_add(1, std::memory_order_relaxed);
    if (queues_[shard]->push(std::move(item))) return true;
    st.submitted.fetch_sub(1, std::memory_order_relaxed);  // refused
    return false;
  }

  /// Quiescence barrier: returns once every item submitted before this
  /// call has been handled. Safe from multiple threads; cheap when idle.
  void drain() {
    std::vector<std::uint64_t> targets(config_.shards);
    for (unsigned s = 0; s < config_.shards; ++s) {
      targets[s] = state_[s].submitted.load(std::memory_order_relaxed);
    }
    // Announce the waiter before the predicate check so a worker that
    // completes a wave after this store either sees the waiter (and
    // notifies) or its completion is already visible to the predicate.
    drain_waiters_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock lock{drain_mu_};
      drain_cv_.wait(lock, [&] {
        for (unsigned s = 0; s < config_.shards; ++s) {
          if (state_[s].completed.load(std::memory_order_seq_cst) <
              targets[s]) {
            return false;
          }
        }
        return true;
      });
    }
    drain_waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Drain-then-stop: pending items are still consumed before workers
  /// exit. Idempotent; on a pool that never started it just closes the
  /// queues.
  void stop() {
    std::lock_guard lock{lifecycle_mu_};
    started_.store(true, std::memory_order_release);
    for (auto& q : queues_) q->close();
    for (auto& w : workers_) w.join();
    workers_.clear();
  }

  /// Starts the workers unless the pool has already started or stopped
  /// (a stopped pool stays stopped and keeps refusing submits).
  void start() {
    std::lock_guard lock{lifecycle_mu_};
    if (started_.load(std::memory_order_relaxed)) return;
    workers_.reserve(config_.shards);
    for (unsigned s = 0; s < config_.shards; ++s) {
      workers_.emplace_back([this, s] { run(s); });
    }
    started_.store(true, std::memory_order_release);
  }

  [[nodiscard]] unsigned shards() const noexcept { return config_.shards; }

  [[nodiscard]] telemetry::StageStats stats(unsigned shard) const {
    return queues_[shard]->stats();
  }

  [[nodiscard]] telemetry::StageStats stats_total() const {
    telemetry::StageStats total;
    for (unsigned s = 0; s < config_.shards; ++s) total += stats(s);
    return total;
  }

 private:
  struct ShardState {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> completed{0};
    /// The worker's stage_wave_* series; null without an obs sink.
    std::shared_ptr<obs::Histogram> wave_ns;
    std::shared_ptr<obs::Histogram> wave_items;
  };

  void run(unsigned shard) {
    obs::Histogram* wave_ns = state_[shard].wave_ns.get();
    obs::Histogram* wave_items = state_[shard].wave_items.get();
    std::vector<Item> wave;
    wave.reserve(config_.max_wave);
    for (;;) {
      wave.clear();
      const std::size_t n = queues_[shard]->pop_wave(wave, config_.max_wave);
      if (n == 0) break;  // closed and drained
      if (wave_items != nullptr) wave_items->record(n);
      {
        obs::SpanTimer span{wave_ns};
        handler_(shard, wave);
      }
      state_[shard].completed.fetch_add(n, std::memory_order_seq_cst);
      // Notify only when a drain() is actually parked (ISSUE 6): on the
      // streaming hot path no one is waiting, and the shared-mutex
      // lock/notify per wave was measurable contention across workers.
      // The seq_cst completed-store / waiters-load here pairs with the
      // waiter's seq_cst announce-then-check: either we see the waiter,
      // or the waiter's predicate sees our completion.
      if (drain_waiters_.load(std::memory_order_seq_cst) != 0) {
        // Empty critical section pairs the notify with the waiter's
        // predicate check so no drain() wakeup is lost.
        { std::lock_guard lock{drain_mu_}; }
        drain_cv_.notify_all();
      }
    }
  }

  ShardPoolConfig config_;
  Handler handler_;
  std::unique_ptr<ShardState[]> state_;
  std::vector<std::unique_ptr<BoundedQueue<Item>>> queues_;
  /// Guards workers_; started_ turns true once start(), stop() or the
  /// first submit has run, so submit() checks it without the lock.
  std::mutex lifecycle_mu_;
  std::atomic<bool> started_{false};
  std::vector<std::thread> workers_;
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::atomic<int> drain_waiters_{0};
};

}  // namespace haystack::pipeline
