#include "obs/reporter.hpp"

#include "obs/export.hpp"

namespace haystack::obs {

Reporter::Reporter(MetricRegistry& registry, ReporterConfig config, Sink sink)
    : registry_{registry}, config_{config}, sink_{std::move(sink)} {}

Reporter::~Reporter() { stop(); }

void Reporter::start() {
  if (thread_.joinable()) return;
  {
    std::lock_guard lock{mu_};
    stop_requested_ = false;
  }
  thread_ = std::thread{[this] { run(); }};
}

void Reporter::stop() {
  {
    std::lock_guard lock{mu_};
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Reporter::scrape_now() { do_scrape(); }

void Reporter::run() {
  std::unique_lock lock{mu_};
  while (!stop_requested_) {
    if (cv_.wait_for(lock, config_.period,
                     [this] { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    do_scrape();
    lock.lock();
  }
}

void Reporter::do_scrape() {
  const std::string rendered = to_prometheus(registry_);
  const std::uint64_t n =
      scrapes_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (config_.recorder != nullptr) {
    config_.recorder->record(EventKind::kScrape, 0, n, rendered.size());
  }
  if (sink_) sink_(rendered);
}

}  // namespace haystack::obs
