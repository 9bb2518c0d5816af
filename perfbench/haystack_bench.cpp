// End-to-end benchmark program: runs one workload per process and prints
// one JSON object as the last line of stdout (perfbench/benchmark.py turns
// it into the metric table and checks it).
//
//   haystack_bench --workload {study,wire,serve} --seed S --seconds T
//                  [--trace FILE] [--lines N] [--hours H]
//
// Every workload ingests through one pipeline::IngestPipeline (2 shards,
// default queues, waves and snapshot policy) fed by one producer thread.
// Each runs one untimed warm-up pass, then timed passes over the same input
// until --seconds have passed (at least three), and reports the median
// pass. The workloads differ in where the flows come from, and so in which
// layer bounds throughput:
//
//   study  generates the first 8 hours of a wild-ISP study of 1 M lines
//          inside each pass, pushing 4096-observation chunks as they fill,
//          into a fresh pipeline per pass. Generation bounds it; evidence
//          grows to 94 % of a full day's rows (~450 k).
//   wire   replays pre-encoded NetFlow v9 datagrams (100 k lines x 24 h,
//          4 routers) through push_datagram into a fresh pipeline per
//          pass. Decode bounds it; generation is set-up, outside timing.
//   serve  re-feeds pre-generated observations (100 k lines x 24 h) into
//          one long-lived pipeline that publishes a view every 50 000
//          observations per shard, while one open-loop client queries it.
//          Evidence is cache-sized, so detection and view publication
//          bound it. The only workload that publishes views and serves
//          queries.
//
// Every run checks its final evidence against a single-threaded replay
// that calls each layer's public function in turn over the same input.
// Layers are timed only from outside, around calls into their public
// functions. --trace adds spans around those calls, runs the timed passes
// once untraced and once traced (their ratio is the tracing overhead),
// and writes the spans to FILE as JSON.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/detector.hpp"
#include "core/sharded_detector.hpp"
#include "core/signature_index.hpp"
#include "flow/flow_batch.hpp"
#include "flow/netflow_v9.hpp"
#include "pipeline/ingest.hpp"
#include "serve/control.hpp"
#include "serve/query.hpp"
#include "simnet/backend.hpp"
#include "simnet/catalog.hpp"
#include "simnet/manual_analysis.hpp"
#include "simnet/population.hpp"
#include "simnet/rates.hpp"
#include "simnet/wild_isp.hpp"
#include "telemetry/border_fleet.hpp"

#ifndef HAYSTACK_BUILD_TYPE
#define HAYSTACK_BUILD_TYPE "unknown"
#endif

namespace {

using namespace haystack;
using Clock = std::chrono::steady_clock;

constexpr unsigned kShards = 2;
constexpr std::size_t kChunk = 4096;
constexpr std::uint64_t kPublishEvery = 50'000;
constexpr std::uint32_t kStudyLines = 1'000'000;
/// Long enough for evidence to reach 94 % of a full day's rows, short
/// enough (~6 s) for a warm-up and three timed passes in one run.
constexpr util::HourBin kStudyHours = 8;
constexpr std::uint32_t kInputLines = 100'000;  ///< wire, serve
constexpr util::HourBin kInputHours = 24;       ///< wire, serve
/// serve's client: queries per second, and every kFreshEvery-th is fresh.
constexpr unsigned kQueriesPerSecond = 1000;
constexpr unsigned kFreshEvery = 10;
constexpr int kRoundTrips = 9;
/// Set-ups are repeated until both limits are reached; setup_s is the
/// median. A study set-up takes ~35 ms, so one alone is mostly noise.
constexpr std::size_t kMinSetups = 3;
constexpr double kSetupBudgetS = 2.0;
constexpr std::size_t kMinPasses = 3;
constexpr unsigned kRouters = 4;
/// Datagrams per push span (wire) and per serial-replay layer phase; one
/// span per datagram would cost more than the decode it measures.
constexpr std::size_t kDatagramGroup = 256;
/// The client sleeps until this long before each due time, then spins:
/// plain sleep_until wake-up slack would dominate a live query.
constexpr std::chrono::microseconds kSpinWindow{200};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Nearest-rank quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// --- tracing ---------------------------------------------------------------

enum Layer : std::uint32_t {
  kSetup,
  kGenerate,
  kExport,
  kPipelined,
  kPass,
  kPush,
  kDrain,
  kSerial,
  kDecode,
  kNormalize,
  kSigOf,
  kDetect,
  kCheckpointSave,
  kCheckpointRestore,
  kSnapshot,
  kVerdict,
  kFreshSnapshot,
  kServiceCounts,
  kLayerCount,
};

constexpr const char* kLayerNames[kLayerCount] = {
    "setup",
    "simnet.generate",
    "telemetry.export",
    "pipelined",
    "pipeline.pass",
    "pipeline.push",
    "pipeline.drain",
    "serial",
    "flow.decode",
    "pipeline.normalize",
    "core.sig_of",
    "core.detect",
    "core.checkpoint_save",
    "core.checkpoint_restore",
    "serve.snapshot",
    "serve.verdict",
    "serve.fresh_snapshot",
    "serve.service_counts",
};

/// Which part of a traced run a span belongs to.
enum Run : std::uint32_t { kRunSetup, kRunPipelined, kRunSerial, kRunCount };
constexpr const char* kRunNames[kRunCount] = {"setup", "pipelined", "serial"};

struct Span {
  std::uint32_t layer = 0;
  std::uint32_t run = 0;
  std::int64_t parent = -1;  ///< index in the same log, or -1
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t items = 0;  ///< flows (or calls) the span covered
};

/// Spans recorded by one thread. Each thread owns its log, so recording
/// takes no lock; logs are merged when the trace is written.
class SpanLog {
 public:
  explicit SpanLog(Run run) : run_{run} {}

  std::size_t open(Layer layer) {
    const std::int64_t parent =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    spans_.push_back(Span{layer, run_, parent, now_ns(), 0, 0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index, std::uint64_t items) {
    spans_[index].end = now_ns();
    spans_[index].items = items;
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Run run_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a no-op when tracing is off (null log).
class Scope {
 public:
  Scope(SpanLog* log, Layer layer, std::uint64_t items = 0)
      : log_{log}, index_{log != nullptr ? log->open(layer) : 0},
        items_{items} {}
  ~Scope() {
    if (log_ != nullptr) log_->close(index_, items_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void add_items(std::uint64_t n) { items_ += n; }

 private:
  SpanLog* log_;
  std::size_t index_;
  std::uint64_t items_;
};

// --- run-wide state ----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 25.0;
  std::string trace_path;
  std::uint32_t lines = 0;  ///< 0: the workload's default
  std::uint32_t hours = 0;  ///< 0: the workload's default
};

/// Everything a run reports, filled in as it goes.
struct Report {
  std::map<std::string, double> metrics;  ///< end-to-end, plus context
  std::map<std::string, double> layers;   ///< per-layer values this program
                                          ///< computes itself
  std::map<std::string, bool> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;
  std::uint32_t lines = 0;
  util::HourBin hours = 0;
  std::uint64_t flows = 0;  ///< per pass
  unsigned passes = 0;

  void check(const std::string& name, bool ok) {
    auto [it, inserted] = checks.emplace(name, ok);
    if (!inserted) it->second = it->second && ok;
  }
};

/// Spans and timings of a traced run; all null/zero when tracing is off.
struct Tracing {
  std::unique_ptr<SpanLog> setup;
  std::unique_ptr<SpanLog> pipelined;
  std::unique_ptr<SpanLog> serial;
  std::vector<SpanLog> clients;  ///< copied out of the query client
  double untraced_wall = 0.0;    ///< median pass
  double traced_wall = 0.0;

  [[nodiscard]] bool on() const { return serial != nullptr; }
};

// --- the simulated world -----------------------------------------------------

/// Catalog, service backends and rules are fixed; --seed drives the
/// subscriber population, its traffic and the export fleet, so a seed
/// changes the inputs without changing the rule set they are matched to.
struct World {
  World(std::uint64_t seed, std::uint32_t lines)
      : backend{catalog, simnet::BackendConfig{}},
        rules{simnet::build_ruleset(backend)},
        rates{catalog, 7},
        population{catalog, {.seed = mix64(seed ^ 0x706f70), .lines = lines}},
        wild{backend, population, rates, {.seed = mix64(seed ^ 0x77696c64)}},
        fleet_seed{mix64(seed ^ 0x666c74)} {}

  simnet::Catalog catalog;
  simnet::Backend backend;
  core::RuleSet rules;
  simnet::DomainRateModel rates;
  simnet::Population population;
  simnet::WildIspSim wild;
  std::uint64_t fleet_seed;
};

/// `publish_every`: SnapshotPolicy::auto_publish_observations; 0 (the
/// default) publishes views only on demand.
std::unique_ptr<pipeline::IngestPipeline> make_pipeline(
    const World& world, std::uint64_t publish_every = 0) {
  pipeline::IngestConfig config;
  config.shards = kShards;
  config.snapshots.auto_publish_observations = publish_every;
  return std::make_unique<pipeline::IngestPipeline>(world.rules.hitlist,
                                                    world.rules, config);
}

/// Generates hours [0, hours) of the world's wild-ISP traffic and hands it
/// to `consume` in kChunk-observation chunks as each fills: nothing is held
/// for a whole hour. One generate span per hour.
template <typename Consume>
void generate(const World& world, util::HourBin hours, SpanLog* log,
              Consume&& consume) {
  std::vector<core::Observation> chunk;
  for (util::HourBin h = 0; h < hours; ++h) {
    Scope g{log, kGenerate};
    world.wild.hour_observations(h, [&](const simnet::WildObs& o) {
      if (chunk.empty()) chunk.reserve(kChunk);
      chunk.push_back(core::Observation{o.line, o.flow.key.dst,
                                        o.flow.key.dst_port, o.flow.packets,
                                        h});
      g.add_items(1);
      if (chunk.size() == kChunk) consume(std::exchange(chunk, {}));
    });
  }
  if (!chunk.empty()) consume(std::move(chunk));
}

// --- correctness: order-independent evidence digest ------------------------

template <typename DetectorT>
std::uint64_t digest_of(const DetectorT& det, bool with_packets) {
  std::uint64_t sum = 0;
  std::uint64_t rows = 0;
  det.for_each_evidence([&](core::SubscriberKey s, core::ServiceId service,
                            const core::Evidence& ev) {
    std::uint64_t h = mix64(s);
    h = mix64(h ^ service);
    h = mix64(h ^ ev.mask(0));
    h = mix64(h ^ ev.mask(1));
    h = mix64(h ^ ((std::uint64_t{ev.first_seen()} << 32) |
                   ev.satisfied_hour()));
    if (with_packets) h = mix64(h ^ ev.packets());
    sum += h;  // addition: independent of visiting order
    ++rows;
  });
  return mix64(sum ^ mix64(rows));
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// --- freshness: bench-side log of what was pushed when ----------------------

/// (cumulative hitlist-matched observations pushed, push time) entries.
/// The producer appends; the query client reads concurrently. Only matched
/// observations reach the shards, so only they are ever counted by
/// DetectionSnapshot::observations().
class PushLog {
 public:
  explicit PushLog(std::size_t capacity)
      : entries_{std::make_unique_for_overwrite<Entry[]>(capacity)},
        capacity_{capacity} {}

  /// Producer thread only. False (entry dropped) when full.
  bool append(std::uint64_t cumulative, std::uint64_t t_ns) {
    const std::size_t n = size_.load(std::memory_order_relaxed);
    if (n == capacity_) return false;
    entries_[n] = Entry{cumulative, t_ns};
    size_.store(n + 1, std::memory_order_release);
    return true;
  }

  [[nodiscard]] std::uint64_t pushed() const {
    const std::size_t n = size_.load(std::memory_order_acquire);
    return n == 0 ? 0 : entries_[n - 1].cumulative;
  }

  /// Age at `now` of the oldest pushed observation beyond the first
  /// `visible`; 0 when everything pushed is visible.
  [[nodiscard]] std::uint64_t age_ns(std::uint64_t visible,
                                     std::uint64_t now) const {
    const std::size_t n = size_.load(std::memory_order_acquire);
    const Entry* first = entries_.get();
    const Entry* it = std::upper_bound(
        first, first + n, visible,
        [](std::uint64_t v, const Entry& e) { return v < e.cumulative; });
    if (it == first + n) return 0;
    return now > it->t_ns ? now - it->t_ns : 0;
  }

 private:
  struct Entry {
    std::uint64_t cumulative;
    std::uint64_t t_ns;
  };
  std::unique_ptr<Entry[]> entries_;
  std::size_t capacity_;
  std::atomic<std::size_t> size_{0};
};

/// Pushes observation chunks (study, serve) and logs when each became
/// pushed. The hits counter is bumped by the push call itself on this
/// thread, so after the call it is exactly the cumulative matched count.
class ObservationFeed {
 public:
  explicit ObservationFeed(pipeline::IngestPipeline& pipe)
      : pipe_{pipe},
        hits_{pipe.observability().registry.counter("signature_hits_total")} {}

  void push(std::vector<core::Observation> chunk, SpanLog* log) {
    Scope s{log, kPush, chunk.size()};
    const std::uint64_t t = now_ns();
    ok_ = pipe_.push_observations(std::move(chunk)) && ok_;
    ok_ = log_.append(hits_->value(), t) && ok_;
    ++pushes_;
  }

  [[nodiscard]] const PushLog& log() const { return log_; }
  /// Counts every push as attempted, and a failed push log as failed.
  void report(Report& report) {
    report.attempted += std::exchange(pushes_, 0);
    if (!ok_) ++report.failed;
    report.check("pushes_accepted", ok_);
  }

 private:
  pipeline::IngestPipeline& pipe_;
  std::shared_ptr<obs::Counter> hits_;
  PushLog log_{std::size_t{1} << 22};  // untouched pages stay unmapped
  std::uint64_t pushes_ = 0;
  bool ok_ = true;
};

// --- serve's open-loop query client ------------------------------------------

struct QueryKey {
  core::SubscriberKey subscriber = 0;
  core::ServiceId service = 0;
};

std::vector<QueryKey> make_query_keys(const World& world, std::uint64_t seed) {
  std::vector<QueryKey> keys(4096);
  const std::uint32_t lines = world.population.line_count();
  const auto& rules = world.rules.rules;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t r = mix64(seed ^ (i * 0x9e37));
    keys[i].subscriber = static_cast<simnet::LineId>(r % lines);
    keys[i].service = rules[(r >> 32) % rules.size()].service;
  }
  return keys;
}

/// Per-layer metrics of view publication and queries. study and wire
/// publish no views and serve no queries, and report each as 0, "not
/// applicable".
constexpr const char* kServeMetrics[] = {
    "serve.live_query_p50_us",     "serve.live_query_p99_us",
    "serve.fresh_query_p50_ms",    "serve.fresh_query_p99_ms",
    "serve.live_staleness_p99_ms", "serve.query_late_p99_us",
    "serve.publishes_per_s",
};

void report_no_serving(Report& report) {
  for (const char* name : kServeMetrics) report.layers[name] = 0.0;
}

/// Sends kQueriesPerSecond queries on a fixed schedule, regardless of how
/// fast they complete: every kFreshEvery-th a fresh whole-population count
/// (fresh_snapshot + service_counts), the rest live point queries
/// (snapshot + verdict). Each is timed from when it was due, so a slow
/// query's delay to the ones behind it is counted. Queries run on the
/// client's own thread from construction until stop().
class QueryClient {
 public:
  QueryClient(const serve::ControlPlane& control, const PushLog& pushed,
              const std::vector<QueryKey>& keys, bool trace)
      : control_{control}, pushed_{pushed}, keys_{keys}, trace_{trace},
        thread_{[this] { loop(); }} {}
  ~QueryClient() { stop(); }
  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  /// After stop().
  void report(Report& report, Tracing& tracing) const {
    auto& l = report.layers;
    l["serve.live_query_p50_us"] = quantile(live_ns_, 0.50) / 1e3;
    l["serve.live_query_p99_us"] = quantile(live_ns_, 0.99) / 1e3;
    l["serve.fresh_query_p50_ms"] = quantile(fresh_ns_, 0.50) / 1e6;
    l["serve.fresh_query_p99_ms"] = quantile(fresh_ns_, 0.99) / 1e6;
    l["serve.live_staleness_p99_ms"] = quantile(stale_ns_, 0.99) / 1e6;
    l["serve.query_late_p99_us"] = quantile(late_ns_, 0.99) / 1e3;
    report.metrics["live_queries"] = static_cast<double>(live_ns_.size());
    report.metrics["fresh_queries"] = static_cast<double>(fresh_ns_.size());
    report.attempted += live_ns_.size() + fresh_ns_.size();
    report.failed += failed_;
    report.check("queries_consistent", failed_ == 0);
    if (trace_) tracing.clients.push_back(spans_);
  }

 private:
  void loop() {
    SpanLog* log = trace_ ? &spans_ : nullptr;
    const auto period = std::chrono::nanoseconds{1'000'000'000 /
                                                 kQueriesPerSecond};
    const auto t0 = Clock::now();
    std::vector<std::uint64_t> last_epochs;
    for (std::int64_t i = 0;; ++i) {
      const auto due = t0 + period * i;
      for (;;) {
        // At least one query of each kind, so even a toy run has both.
        if (i >= kFreshEvery && stop_.load(std::memory_order_acquire)) return;
        const auto now = Clock::now();
        if (now >= due) break;
        if (now < due - kSpinWindow) {
          std::this_thread::sleep_until(due - kSpinWindow);
        }
      }
      const auto started = Clock::now();
      const bool fresh = i % kFreshEvery == 0;
      std::optional<serve::DetectionSnapshot> snap;
      if (fresh) {
        {
          Scope s{log, kFreshSnapshot, 1};
          snap.emplace(control_.fresh_snapshot());
        }
        Scope c{log, kServiceCounts, 1};
        sink_ += snap->service_counts().size();
      } else {
        {
          Scope s{log, kSnapshot, 1};
          snap.emplace(control_.snapshot());
        }
        const QueryKey key = keys_[mix64(i) % keys_.size()];
        Scope v{log, kVerdict, 1};
        sink_ += snap->verdict(key.subscriber, key.service).detected ? 1 : 0;
      }
      const auto done = Clock::now();
      const auto latency = static_cast<double>((done - due).count());
      if (fresh) {
        fresh_ns_.push_back(latency);
      } else {
        live_ns_.push_back(latency);
        late_ns_.push_back(static_cast<double>((started - due).count()));
        stale_ns_.push_back(static_cast<double>(
            pushed_.age_ns(snap->observations(), now_ns())));
      }
      // Fresh views are published to the same hub, so epochs must never
      // go backwards across both kinds of query.
      auto epochs = snap->epochs();
      bool ok = snap->min_ruleset_version() == snap->max_ruleset_version();
      for (std::size_t s = 0; s < last_epochs.size(); ++s) {
        ok = ok && epochs[s] >= last_epochs[s];
      }
      last_epochs = std::move(epochs);
      if (!ok) ++failed_;
    }
  }

  const serve::ControlPlane& control_;
  const PushLog& pushed_;
  const std::vector<QueryKey>& keys_;
  bool trace_;
  std::vector<double> live_ns_;   ///< completion − due
  std::vector<double> fresh_ns_;  ///< completion − due
  std::vector<double> late_ns_;   ///< live start − due (generator lateness)
  std::vector<double> stale_ns_;  ///< live, see PushLog::age_ns
  std::uint64_t failed_ = 0;      ///< epoch went backwards / versions mixed
  std::uint64_t sink_ = 0;        ///< keeps query results observable
  SpanLog spans_{kRunPipelined};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after, joined before, the rest
};

// --- shared measurement steps ------------------------------------------------

/// Runs `setup` until kMinSetups repetitions and kSetupBudgetS have both
/// been reached, keeping the last result, and reports the median as
/// setup_s. When tracing, one more traced set-up gives the spans.
template <typename T, typename Setup>
std::unique_ptr<T> timed_setups(Report& report, SpanLog* log, Setup&& setup) {
  std::vector<double> times;
  std::unique_ptr<T> result;
  const std::uint64_t start = now_ns();
  while (times.size() < kMinSetups || seconds_since(start) < kSetupBudgetS) {
    result.reset();  // the previous copy must not inflate peak memory
    const std::uint64_t t0 = now_ns();
    result = setup(nullptr);
    times.push_back(seconds_since(t0));
  }
  report.metrics["setup_s"] = quantile(times, 0.5);
  report.metrics["setups"] = static_cast<double>(times.size());
  if (log != nullptr) {
    result.reset();
    Scope s{log, kSetup};
    result = setup(log);
  }
  return result;
}

/// Calls `pass(log)` until `budget_s` has passed and at least kMinPasses
/// were timed; returns each pass's wall time.
template <typename Pass>
std::vector<double> timed_passes(double budget_s, SpanLog* log, Pass&& pass) {
  std::vector<double> walls;
  const std::uint64_t start = now_ns();
  Scope root{log, kPipelined};
  while (walls.size() < kMinPasses || seconds_since(start) < budget_s) {
    walls.push_back(pass(log));
  }
  return walls;
}

void report_passes(const std::vector<double>& walls, std::uint64_t flows,
                   Report& report) {
  std::vector<double> rates;
  for (const double w : walls) rates.push_back(static_cast<double>(flows) / w);
  report.metrics["flows_per_s"] = quantile(rates, 0.50);
  report.metrics["flows_per_s_q1"] = quantile(rates, 0.25);
  report.metrics["flows_per_s_q3"] = quantile(rates, 0.75);
  report.flows = flows;
  report.passes = static_cast<unsigned>(walls.size());
}

/// Stage counters from stats(), per pass (`s` covers `passes` passes).
void report_stage_stats(const pipeline::IngestPipeline::Stats& s,
                        std::size_t passes, Report& report) {
  const double n = static_cast<double>(std::max<std::size_t>(1, passes));
  auto& l = report.layers;
  l["pipeline.decode.producer_stalls"] =
      static_cast<double>(s.decode.producer_stalls) / n;
  l["pipeline.normalize.producer_stalls"] =
      static_cast<double>(s.normalize.producer_stalls) / n;
  l["pipeline.detect.producer_stalls"] =
      static_cast<double>(s.detect.producer_stalls) / n;
  l["pipeline.detect.waves"] = static_cast<double>(s.detect.waves) / n;
  l["pipeline.detect.high_water_sum"] =
      static_cast<double>(s.detect.high_water_sum);
}

/// Checks a drained pipeline: codec and normalizer rejected nothing, the
/// conservation self-check holds, and a fresh snapshot counts exactly the
/// `pushed` matched observations.
void check_pipeline(pipeline::IngestPipeline& pipe, std::uint64_t pushed,
                    Report& report) {
  const auto self = pipe.self_check();
  const auto s = pipe.stats();
  const std::uint64_t bad = s.malformed_datagrams + s.unknown_version +
                            s.dropped_direction + (self.ok ? 0 : 1);
  report.failed += bad;
  report.check("pipeline_clean", bad == 0);
  if (!self.ok) std::fprintf(stderr, "self-check: %s\n", self.detail.c_str());
  report.check("visible_equals_pushed",
               pipe.control().fresh_snapshot().observations() == pushed);
}

/// Evidence size, then kRoundTrips save_checkpoint_compact →
/// restore_checkpoint round trips of the final state into fresh detectors
/// (core.resume_s is their median); each restored detector must match.
void checkpoint_round_trips(const pipeline::IngestPipeline& pipe,
                            const core::RuleSet& rules, SpanLog* log,
                            Report& report) {
  const auto snap = pipe.control().fresh_snapshot();
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  for (unsigned s = 0; s < snap.shards(); ++s) {
    entries += snap.view(s).evidence.size();
    bytes += snap.view(s).evidence.memory_bytes();
  }
  report.layers["core.evidence_entries"] = static_cast<double>(entries);
  report.layers["core.evidence_mib"] = static_cast<double>(bytes) / 1048576.0;

  const auto& det = pipe.detector();
  const std::uint64_t saved = digest_of(det, true);
  std::vector<double> times;
  for (int i = 0; i < kRoundTrips; ++i) {
    core::ShardedDetector fresh{rules.hitlist, rules, {}, kShards};
    const std::uint64_t t0 = now_ns();
    std::vector<std::uint8_t> blob;
    {
      Scope s{log, kCheckpointSave, 1};
      blob = core::save_checkpoint_compact(det);
    }
    bool ok = false;
    {
      Scope s{log, kCheckpointRestore, 1};
      ok = core::restore_checkpoint(blob, fresh);
    }
    times.push_back(seconds_since(t0));
    report.layers["core.checkpoint_bytes"] = static_cast<double>(blob.size());
    ok = ok && digest_of(fresh, true) == saved;
    ++report.attempted;
    if (!ok) ++report.failed;
    report.check("restores_match", ok);
  }
  report.layers["core.resume_s"] = quantile(times, 0.5);
}

/// With tracing off, `measure(nullptr, seconds)`. With tracing on, the
/// same split in two halves, untraced then traced; the ratio of their
/// median pass walls is the tracing overhead.
template <typename Measure>
void measure_runs(const Args& args, Tracing& tracing, Measure&& measure) {
  if (!tracing.on()) {
    measure(nullptr, args.seconds);
    return;
  }
  tracing.untraced_wall = measure(nullptr, args.seconds / 2);
  tracing.traced_wall = measure(tracing.pipelined.get(), args.seconds / 2);
}

// --- serial replay: each layer's function in turn, on one thread ----------

struct SerialResult {
  std::uint64_t digest = 0;
  std::uint64_t digest_no_packets = 0;
  std::uint64_t flows = 0;
  std::uint64_t matched = 0;  ///< flows the hitlist matched
};

/// Replays observations through SignatureIndex::sig_of and
/// Detector::observe_interned, one layer phase per chunk.
class SerialDetect {
 public:
  explicit SerialDetect(const core::RuleSet& rules)
      : det_{rules.hitlist, rules, {}} {
    index_.build(rules.hitlist, rules);
  }

  void feed(const std::vector<core::Observation>& obs, SpanLog* log) {
    sigs_.resize(obs.size());
    {
      Scope s{log, kSigOf, obs.size()};
      for (std::size_t i = 0; i < obs.size(); ++i) {
        sigs_[i] = index_.sig_of(obs[i].server, obs[i].port,
                                 util::day_of(obs[i].hour));
        matched_ += sigs_[i] != core::kNoSig ? 1 : 0;
      }
    }
    Scope s{log, kDetect, obs.size()};
    for (std::size_t i = 0; i < obs.size(); ++i) {
      det_.observe_interned(obs[i].subscriber, sigs_[i], obs[i].packets,
                            obs[i].hour);
    }
    flows_ += obs.size();
  }

  /// Digests the final evidence; reports serial throughput over `t0` and
  /// the hitlist hit ratio.
  SerialResult finish(std::uint64_t t0, Report& report) const {
    const double flows = static_cast<double>(std::max<std::uint64_t>(1, flows_));
    report.layers["pipeline.serial_flows_per_s"] = flows / seconds_since(t0);
    report.layers["core.sig_hit_ratio"] = static_cast<double>(matched_) / flows;
    return {digest_of(det_, true), digest_of(det_, false), flows_, matched_};
  }

 private:
  core::SignatureIndex index_;
  core::Detector det_;
  std::vector<core::Signature> sigs_;
  std::uint64_t flows_ = 0;
  std::uint64_t matched_ = 0;
};

/// study and wire: one untimed warm-up pass, then timed passes, each into
/// a fresh pipeline that `feed(pipe, log)` fills and that then drains.
/// `feed` returns how many observations the shards must count. Every pass
/// must match the serial `reference`; the last pass's pipeline is kept
/// for the checkpoint round trips. Returns the median pass wall.
template <typename Feed>
double fresh_pipeline_passes(const World& world, const SerialResult& reference,
                             SpanLog* log, double budget_s, Report& report,
                             Feed&& feed) {
  std::unique_ptr<pipeline::IngestPipeline> pipe;
  auto pass = [&](SpanLog* pass_log) {
    pipe.reset();  // one pipeline's memory at a time
    pipe = make_pipeline(world);
    const std::uint64_t t0 = now_ns();
    std::uint64_t pushed = 0;
    {
      Scope p{pass_log, kPass, reference.flows};
      pushed = feed(*pipe, pass_log);
      Scope d{pass_log, kDrain};
      pipe->drain();
    }
    const double wall = seconds_since(t0);
    check_pipeline(*pipe, pushed, report);
    report.check("digest_matches_serial",
                 digest_of(pipe->detector(), true) == reference.digest);
    return wall;
  };

  pass(nullptr);
  pipeline::IngestPipeline::Stats totals;
  const auto walls = timed_passes(budget_s, log, [&](SpanLog* pass_log) {
    const double wall = pass(pass_log);
    const auto s = pipe->stats();
    const std::size_t high_water =
        std::max(totals.detect.high_water_sum, s.detect.high_water_sum);
    totals.decode += s.decode;
    totals.normalize += s.normalize;
    totals.detect += s.detect;
    totals.detect.high_water_sum = high_water;  // largest pass, not a sum
    return wall;
  });
  report_passes(walls, reference.flows, report);
  report_stage_stats(totals, walls.size(), report);
  report.digest = hex(digest_of(pipe->detector(), true));
  checkpoint_round_trips(*pipe, world.rules, log, report);
  return quantile(walls, 0.5);
}

// --- the wire ------------------------------------------------------------------

/// NetFlow v9 datagrams of some hours, in export order.
struct WireInput {
  std::vector<std::vector<std::uint8_t>> datagrams;
  std::vector<util::HourBin> hours;  ///< per datagram
  std::uint64_t flows = 0;
  std::uint64_t bytes = 0;
};

/// Generates `hours` of wild traffic and encodes each hour with
/// BorderRouterFleet::export_hour (4 routers, no further sampling).
std::unique_ptr<WireInput> encode_hours(const World& world,
                                        util::HourBin hours, SpanLog* log) {
  auto input = std::make_unique<WireInput>();
  telemetry::BorderFleetConfig config;
  config.seed = world.fleet_seed;
  config.routers = kRouters;
  config.sampling = 1;  // the generator already applied the ISP's sampling
  telemetry::BorderRouterFleet fleet{config};
  std::vector<flow::FlowRecord> records;
  for (util::HourBin h = 0; h < hours; ++h) {
    records.clear();
    {
      Scope g{log, kGenerate};
      world.wild.hour_observations(
          h, [&](const simnet::WildObs& o) { records.push_back(o.flow); });
      g.add_items(records.size());
    }
    std::vector<std::vector<std::uint8_t>> datagrams;
    {
      Scope e{log, kExport, records.size()};
      datagrams = fleet.export_hour(records, h);
    }
    for (const auto& d : datagrams) {
      input->bytes += d.size();
      // An exact-size copy: the exporter's buffers carry spare capacity
      // that would double the resident input.
      input->datagrams.emplace_back(d.begin(), d.end());
      input->hours.push_back(h);
    }
    input->flows += records.size();
  }
  return input;
}

/// Single-threaded reference for wire: every datagram through
/// Collector::ingest_batch, default_normalizer, sig_of and
/// observe_interned, kDatagramGroup datagrams per layer phase.
SerialResult serial_wire(const World& world, const WireInput& input,
                         SpanLog* log, Report& report) {
  const pipeline::Normalizer normalize =
      pipeline::default_normalizer(pipeline::IngestConfig{}.anonymization_key);
  flow::nf9::Collector collector{flow::nf9::CollectorConfig{
      .dedup_window = pipeline::IngestConfig{}.dedup_window}};
  SerialDetect serial{world.rules};
  std::vector<flow::FlowBatch> batches(kDatagramGroup);
  std::vector<core::Observation> obs;
  std::uint64_t bad = 0;
  const std::size_t count = input.datagrams.size();
  const std::uint64_t t0 = now_ns();
  {
    Scope root{log, kSerial, input.flows};
    for (std::size_t first = 0; first < count; first += kDatagramGroup) {
      const std::size_t last = std::min(count, first + kDatagramGroup);
      {
        Scope d{log, kDecode};
        for (std::size_t i = first; i < last; ++i) {
          auto& batch = batches[i - first];
          batch.clear();
          if (!collector.ingest_batch(input.datagrams[i], batch)) ++bad;
          d.add_items(batch.size());
        }
      }
      obs.clear();
      {
        Scope n{log, kNormalize};
        for (std::size_t i = first; i < last; ++i) {
          const auto& batch = batches[i - first];
          for (std::size_t r = 0; r < batch.size(); ++r) {
            if (auto o = normalize(batch.record(r), input.hours[i])) {
              obs.push_back(*o);
            } else {
              ++bad;
            }
          }
          n.add_items(batch.size());
        }
      }
      serial.feed(obs, log);
    }
  }
  const SerialResult result = serial.finish(t0, report);
  report.check("serial_decode_clean", bad == 0 && result.flows == input.flows);
  return result;
}

// --- workloads ---------------------------------------------------------------

/// study: the first hours of the wild-ISP study, generated and pushed
/// inside each pass.
void run_study(const Args& args, Report& report, Tracing& tracing) {
  report.lines = args.lines != 0 ? args.lines : kStudyLines;
  report.hours = args.hours != 0 ? args.hours : kStudyHours;
  const auto world = timed_setups<World>(report, tracing.setup.get(),
                                         [&](SpanLog*) {
    return std::make_unique<World>(args.seed, report.lines);
  });

  // The serial replay generates the same study once more.
  SerialResult reference;
  {
    SpanLog* log = tracing.serial.get();
    SerialDetect serial{world->rules};
    const std::uint64_t t0 = now_ns();
    {
      Scope root{log, kSerial};
      generate(*world, report.hours, log,
               [&](std::vector<core::Observation> chunk) {
                 root.add_items(chunk.size());
                 serial.feed(chunk, log);
               });
    }
    reference = serial.finish(t0, report);
  }

  measure_runs(args, tracing, [&](SpanLog* log, double budget_s) {
    return fresh_pipeline_passes(
        *world, reference, log, budget_s, report,
        [&](pipeline::IngestPipeline& pipe, SpanLog* pass_log) {
          ObservationFeed feed{pipe};
          generate(*world, report.hours, pass_log,
                   [&](std::vector<core::Observation> chunk) {
                     feed.push(std::move(chunk), pass_log);
                   });
          feed.report(report);
          return feed.log().pushed();
        });
  });
  report.layers["flow.datagram_bytes_per_flow"] = 0.0;  // no wire here
  report_no_serving(report);
}

/// wire: pre-encoded datagrams replayed through push_datagram, a fresh
/// pipeline per pass (collector template and sequence state starts over).
void run_wire(const Args& args, Report& report, Tracing& tracing) {
  report.lines = args.lines != 0 ? args.lines : kInputLines;
  report.hours = args.hours != 0 ? args.hours : kInputHours;

  struct Setup {
    std::unique_ptr<World> world;
    std::unique_ptr<WireInput> input;
  };
  const auto setup = timed_setups<Setup>(
      report, tracing.setup.get(), [&](SpanLog* log) {
        auto s = std::make_unique<Setup>();
        s->world = std::make_unique<World>(args.seed, report.lines);
        s->input = encode_hours(*s->world, report.hours, log);
        return s;
      });
  const World& world = *setup->world;
  const WireInput& input = *setup->input;
  report.layers["flow.datagram_bytes_per_flow"] =
      static_cast<double>(input.bytes) /
      static_cast<double>(std::max<std::uint64_t>(1, input.flows));
  const SerialResult reference =
      serial_wire(world, input, tracing.serial.get(), report);

  const std::size_t count = input.datagrams.size();
  measure_runs(args, tracing, [&](SpanLog* log, double budget_s) {
    return fresh_pipeline_passes(
        world, reference, log, budget_s, report,
        [&](pipeline::IngestPipeline& pipe, SpanLog* pass_log) {
          bool ok = true;
          for (std::size_t i = 0; i < count; i += kDatagramGroup) {
            const std::size_t end = std::min(count, i + kDatagramGroup);
            Scope s{pass_log, kPush, end - i};
            for (std::size_t d = i; d < end; ++d) {
              ok = pipe.push_datagram(input.datagrams[d], input.hours[d]) &&
                   ok;
            }
          }
          report.attempted += count;
          if (!ok) ++report.failed;
          report.check("pushes_accepted", ok);
          return reference.matched;
        });
  });
  report_no_serving(report);
}

/// serve: pre-generated observations re-fed pass after pass into one
/// long-lived pipeline, while the query client runs.
void run_serve(const Args& args, Report& report, Tracing& tracing) {
  report.lines = args.lines != 0 ? args.lines : kInputLines;
  report.hours = args.hours != 0 ? args.hours : kInputHours;

  struct Setup {
    std::unique_ptr<World> world;
    std::vector<std::vector<core::Observation>> chunks;
    std::uint64_t flows = 0;
    std::unique_ptr<pipeline::IngestPipeline> pipe;
  };
  const auto setup = timed_setups<Setup>(
      report, tracing.setup.get(), [&](SpanLog* log) {
        auto s = std::make_unique<Setup>();
        s->world = std::make_unique<World>(args.seed, report.lines);
        generate(*s->world, report.hours, log,
                 [&](std::vector<core::Observation> chunk) {
                   s->flows += chunk.size();
                   s->chunks.push_back(std::move(chunk));
                 });
        s->pipe = make_pipeline(*s->world, kPublishEvery);
        return s;
      });
  const World& world = *setup->world;
  const auto keys = make_query_keys(world, args.seed);
  report.layers["flow.datagram_bytes_per_flow"] = 0.0;  // no wire here

  SerialResult reference;
  {
    SpanLog* log = tracing.serial.get();
    SerialDetect serial{world.rules};
    const std::uint64_t t0 = now_ns();
    {
      Scope root{log, kSerial, setup->flows};
      for (const auto& chunk : setup->chunks) serial.feed(chunk, log);
    }
    reference = serial.finish(t0, report);
  }

  std::unique_ptr<pipeline::IngestPipeline> pipe = std::move(setup->pipe);
  measure_runs(args, tracing, [&](SpanLog* log, double budget_s) {
    if (!pipe) pipe = make_pipeline(world, kPublishEvery);
    ObservationFeed feed{*pipe};
    auto pass = [&](SpanLog* pass_log) {
      const std::uint64_t t0 = now_ns();
      Scope p{pass_log, kPass, setup->flows};
      for (const auto& chunk : setup->chunks) feed.push(chunk, pass_log);
      Scope d{pass_log, kDrain};
      pipe->drain();
      return seconds_since(t0);
    };
    pass(nullptr);  // warm-up, before the client starts
    const auto publishes0 = pipe->detector().view_hub().publishes();
    std::vector<double> walls;
    {
      QueryClient client{pipe->control(), feed.log(), keys, log != nullptr};
      walls = timed_passes(budget_s, log, pass);
      client.stop();
      client.report(report, tracing);
    }
    double wall_sum = 0.0;
    for (const double w : walls) wall_sum += w;
    feed.report(report);
    report_passes(walls, setup->flows, report);
    report_stage_stats(pipe->stats(), walls.size() + 1, report);
    report.layers["serve.publishes_per_s"] =
        static_cast<double>(pipe->detector().view_hub().publishes() -
                            publishes0) /
        wall_sum;
    check_pipeline(*pipe, feed.log().pushed(), report);
    // Packets are left out: every pass re-feeds the same observations.
    report.digest = hex(digest_of(pipe->detector(), false));
    report.check("digest_matches_serial",
                 report.digest == hex(reference.digest_no_packets));
    checkpoint_round_trips(*pipe, world.rules, log, report);
    pipe.reset();
    return quantile(walls, 0.5);
  });
}

// --- output ------------------------------------------------------------------

/// {"layers": [...], "runs": [...], "spans": [[layer, run, parent, start_ns,
/// end_ns, items], ...]}; parent indexes the merged span list (-1: root).
void write_trace(const std::string& path, const std::string& workload,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream out{path};
  out << "{\"workload\":\"" << workload << "\",\"layers\":[";
  for (unsigned i = 0; i < kLayerCount; ++i) {
    out << (i ? "," : "") << '"' << kLayerNames[i] << '"';
  }
  out << "],\"runs\":[";
  for (unsigned i = 0; i < kRunCount; ++i) {
    out << (i ? "," : "") << '"' << kRunNames[i] << '"';
  }
  out << "],\"spans\":[";
  std::int64_t base = 0;
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out << (first ? "" : ",") << '[' << s.layer << ',' << s.run << ','
          << (s.parent < 0 ? -1 : base + s.parent) << ',' << s.start << ','
          << s.end << ',' << s.items << ']';
      first = false;
    }
    base += static_cast<std::int64_t>(log->spans().size());
  }
  out << "]}\n";
}

std::string json_object(const std::vector<std::pair<std::string, std::string>>&
                            fields) {
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    out += (out.size() > 1 ? "," : "") + ("\"" + key + "\":") + value;
  }
  return out + "}";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) { return "\"" + s + "\""; }

template <typename Map, typename Fn>
std::string json_map(const Map& map, Fn format) {
  std::vector<std::pair<std::string, std::string>> fields;
  for (const auto& [k, v] : map) fields.emplace_back(k, format(v));
  return json_object(fields);
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--trace") {
      a.trace_path = value;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
    } else {
      const unsigned long long v = std::strtoull(value, &end, 10);
      if (flag == "--seed") {
        a.seed = v;
      } else if (flag == "--lines") {
        a.lines = static_cast<std::uint32_t>(v);
      } else if (flag == "--hours") {
        a.hours = static_cast<std::uint32_t>(v);
      } else {
        return std::nullopt;
      }
    }
    if (end != nullptr && (*end != '\0' || end == value)) return std::nullopt;
  }
  const bool known =
      a.workload == "study" || a.workload == "wire" || a.workload == "serve";
  if (!known || !(a.seconds >= 0) || a.hours > util::kStudyHours) {
    return std::nullopt;
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: haystack_bench --workload {study,wire,serve} "
                 "--seed S --seconds T [--trace FILE] [--lines N] "
                 "[--hours H<=336]\n");
    return 2;
  }

  Report report;
  Tracing tracing;
  if (!args->trace_path.empty()) {
    tracing.setup = std::make_unique<SpanLog>(kRunSetup);
    tracing.pipelined = std::make_unique<SpanLog>(kRunPipelined);
    tracing.serial = std::make_unique<SpanLog>(kRunSerial);
  }
  if (args->workload == "study") {
    run_study(*args, report, tracing);
  } else if (args->workload == "wire") {
    run_wire(*args, report, tracing);
  } else {
    run_serve(*args, report, tracing);
  }
  report.metrics["peak_rss_mib"] = peak_rss_mib();

  if (tracing.on()) {
    report.layers["trace.overhead_share"] =
        tracing.traced_wall / std::max(tracing.untraced_wall, 1e-12) - 1.0;
    std::vector<const SpanLog*> logs{tracing.setup.get(),
                                     tracing.pipelined.get(),
                                     tracing.serial.get()};
    for (const SpanLog& log : tracing.clients) logs.push_back(&log);
    write_trace(args->trace_path, args->workload, logs);
  }

  bool correct = report.failed == 0;
  for (const auto& [name, ok] : report.checks) correct = correct && ok;
  const auto number = [](double v) { return json_number(v); };
  const std::string out = json_object({
      {"workload", json_string(args->workload)},
      {"seed", std::to_string(args->seed)},
      {"seconds", json_number(args->seconds)},
      {"lines", std::to_string(report.lines)},
      {"hours", std::to_string(report.hours)},
      {"flows_per_pass", std::to_string(report.flows)},
      {"passes", std::to_string(report.passes)},
      {"shards", std::to_string(kShards)},
      {"digest", json_string(report.digest)},
      {"correct", correct ? "true" : "false"},
      {"attempted", std::to_string(report.attempted)},
      {"failed", std::to_string(report.failed)},
      {"checks",
       json_map(report.checks, [](bool v) { return v ? "true" : "false"; })},
      {"build", json_object({{"compiler", json_string(__VERSION__)},
                             {"build_type", json_string(HAYSTACK_BUILD_TYPE)}})},
      {"metrics", json_map(report.metrics, number)},
      {"layers", json_map(report.layers, number)},
  });
  std::printf("%s\n", out.c_str());
  return 0;
}
