// Background reporter: a thread that periodically scrapes the
// MetricRegistry, renders the snapshot as Prometheus text and hands it to
// a caller-supplied sink — the in-process stand-in for an external
// scrape endpoint. The scrape path only reads atomics and copies strings,
// so it is safe to run full-rate while every pipeline stage is ingesting
// (the TSan pass in tests/run_sanitizers.sh covers exactly that overlap).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace haystack::obs {

struct ReporterConfig {
  std::chrono::milliseconds period{1000};
  /// When set, each scrape also records EventKind::kScrape (a = scrape #,
  /// b = rendered bytes) so dumps show when observation itself happened.
  FlightRecorder* recorder = nullptr;
};

/// Periodic scraper. start() spawns the thread; stop() (or destruction)
/// joins it. The sink runs on the reporter thread.
class Reporter {
 public:
  using Sink = std::function<void(const std::string& rendered)>;

  Reporter(MetricRegistry& registry, ReporterConfig config, Sink sink);
  ~Reporter();

  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  void start();
  void stop();

  /// Renders and delivers one scrape synchronously on the calling thread
  /// (works whether or not the background thread is running).
  void scrape_now();

  /// Completed scrapes (background + scrape_now).
  [[nodiscard]] std::uint64_t scrapes() const noexcept {
    return scrapes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool running() const noexcept { return thread_.joinable(); }

 private:
  void run();
  void do_scrape();

  MetricRegistry& registry_;
  const ReporterConfig config_;
  const Sink sink_;

  std::atomic<std::uint64_t> scrapes_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace haystack::obs
