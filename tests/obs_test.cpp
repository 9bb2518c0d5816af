// Observability suite (ISSUE 5).
//
// Covers the obs primitives standalone (registry semantics, log2 bucket
// math, exporter round-trips, flight-recorder ring behaviour, reporter
// scheduling) and their integration with the pipeline: deterministic
// flight-recorder replay of the seeded exporter-restart fault scenario,
// registry-backed conservation self-checks, and a concurrent
// scrape-while-ingesting workload that the TSan acceptance pass runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/detector.hpp"
#include "flow/impairment.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "obs/reporter.hpp"
#include "obs/span.hpp"
#include "pipeline/ingest.hpp"
#include "simnet/ground_truth.hpp"
#include "telemetry/border_fleet.hpp"
#include "util/cpus.hpp"

namespace haystack {
namespace {

using obs::EventKind;
using obs::Histogram;
using obs::Labels;
using obs::MetricRegistry;

// --- Registry semantics ----------------------------------------------------

TEST(MetricRegistryTest, GetOrCreateReturnsSameInstance) {
  MetricRegistry reg;
  auto a = reg.counter("flows_total");
  auto b = reg.counter("flows_total");
  EXPECT_EQ(a.get(), b.get());
  a->add(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistryTest, LabelsDistinguishSeries) {
  MetricRegistry reg;
  auto decode = reg.counter("wave_items", {{"stage", "decode"}});
  auto meter = reg.counter("wave_items", {{"stage", "meter"}});
  EXPECT_NE(decode.get(), meter.get());
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricRegistryTest, KindCollisionReturnsDetachedMetric) {
  MetricRegistry reg;
  auto c = reg.counter("depth");
  auto g = reg.gauge("depth");  // collides with the counter registration
  ASSERT_NE(g, nullptr);
  g->set(42);  // live, but never exported
  EXPECT_EQ(g->value(), 42);
  EXPECT_EQ(reg.size(), 1u);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].kind, obs::MetricKind::kCounter);
  c->add(1);
  EXPECT_EQ(reg.snapshot()[0].counter, 1u);
}

TEST(MetricRegistryTest, SnapshotIsSortedAndDeterministic) {
  MetricRegistry reg;
  reg.counter("zeta");
  reg.counter("alpha", {{"x", "2"}});
  reg.counter("alpha", {{"x", "1"}});
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(obs::series_key(snap[0].name, snap[0].labels), "alpha{x=\"1\"}");
  EXPECT_EQ(obs::series_key(snap[1].name, snap[1].labels), "alpha{x=\"2\"}");
  EXPECT_EQ(snap[2].name, "zeta");
}

TEST(MetricRegistryTest, HandlesSurviveClear) {
  MetricRegistry reg;
  auto c = reg.counter("ephemeral");
  reg.clear();
  EXPECT_EQ(reg.size(), 0u);
  c->add(5);  // must not crash; handle keeps the metric alive
  EXPECT_EQ(c->value(), 5u);
}

// --- Histogram bucket math -------------------------------------------------

TEST(HistogramTest, BucketOfLog2Edges) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 63u);
}

TEST(HistogramTest, UpperBoundMatchesBucketOf) {
  // Every value must satisfy v <= upper_bound(bucket_of(v)); the bound of
  // the previous bucket must be < v.
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
        std::uint64_t{3}, std::uint64_t{7}, std::uint64_t{8},
        std::uint64_t{1000}, std::uint64_t{1} << 40}) {
    const unsigned b = Histogram::bucket_of(v);
    EXPECT_LE(v, Histogram::upper_bound(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, Histogram::upper_bound(b - 1)) << v;
    }
  }
}

TEST(HistogramTest, RecordAndSnapshot) {
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(100);
  h.record(100);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 201u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[Histogram::bucket_of(1)], 1u);
  EXPECT_EQ(s.buckets[Histogram::bucket_of(100)], 2u);
}

TEST(HistogramTest, QuantileCoarse) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.record(10);    // bucket [8,16)
  for (int i = 0; i < 10; ++i) h.record(5000);  // bucket [4096,8192)
  const auto s = h.snapshot();
  EXPECT_EQ(obs::histogram_quantile(s, 0.5),
            Histogram::upper_bound(Histogram::bucket_of(10)));
  EXPECT_EQ(obs::histogram_quantile(s, 0.99),
            Histogram::upper_bound(Histogram::bucket_of(5000)));
  EXPECT_EQ(obs::histogram_quantile(Histogram::Snapshot{}, 0.5), 0u);
}

// --- Exporters + round-trip ------------------------------------------------

MetricRegistry& populated_registry(MetricRegistry& reg) {
  reg.counter("flows_total", {{"stage", "decode"}})->add(1234);
  reg.counter("flows_total", {{"stage", "meter"}})->add(99);
  reg.gauge("queue_depth", {{"stage", "detect"}})->set(-7);
  auto h = reg.histogram("wave_ns", {{"stage", "decode"}});
  h->record(0);
  h->record(3);
  h->record(1000);
  reg.counter("odd_label", {{"note", "a\"b\\c\nd"}})->add(1);
  return reg;
}

TEST(ExportTest, PrometheusRoundTrip) {
  MetricRegistry reg;
  populated_registry(reg);
  const std::string text = obs::to_prometheus(reg);
  std::string error;
  const auto parsed = obs::parse_prometheus(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  std::map<std::string, double> by_key;
  for (const auto& s : *parsed) {
    std::string key = s.name;
    for (const auto& [k, v] : s.labels) key += "|" + k + "=" + v;
    by_key[key] = s.value;
  }
  EXPECT_EQ(by_key.at("flows_total|stage=decode"), 1234.0);
  EXPECT_EQ(by_key.at("flows_total|stage=meter"), 99.0);
  EXPECT_EQ(by_key.at("queue_depth|stage=detect"), -7.0);
  EXPECT_EQ(by_key.at("odd_label|note=a\"b\\c\nd"), 1.0);
  EXPECT_EQ(by_key.at("wave_ns_count|stage=decode"), 3.0);
  EXPECT_EQ(by_key.at("wave_ns_sum|stage=decode"), 1003.0);
  EXPECT_EQ(by_key.at("wave_ns_bucket|le=+Inf|stage=decode"), 3.0);
  // Cumulative: the le="3" bucket holds the 0 and the 3.
  EXPECT_EQ(by_key.at("wave_ns_bucket|le=3|stage=decode"), 2.0);
}

TEST(ExportTest, JsonRoundTripMatchesPrometheus) {
  MetricRegistry reg;
  populated_registry(reg);
  std::string error;
  const auto from_prom = obs::parse_prometheus(obs::to_prometheus(reg), &error);
  ASSERT_TRUE(from_prom.has_value()) << error;
  const auto from_json = obs::parse_json(obs::to_json(reg), &error);
  ASSERT_TRUE(from_json.has_value()) << error;

  // Same series, same values, sample-for-sample (order included: both
  // flatten the same sorted snapshot).
  ASSERT_EQ(from_prom->size(), from_json->size());
  for (std::size_t i = 0; i < from_prom->size(); ++i) {
    EXPECT_EQ((*from_prom)[i].name, (*from_json)[i].name) << i;
    EXPECT_EQ((*from_prom)[i].labels, (*from_json)[i].labels) << i;
    EXPECT_EQ((*from_prom)[i].value, (*from_json)[i].value) << i;
  }
}

TEST(ExportTest, ParsersRejectMalformedInput) {
  std::string error;
  EXPECT_FALSE(obs::parse_prometheus("no_value_here\n", &error).has_value());
  EXPECT_FALSE(
      obs::parse_prometheus("bad{unterminated=\"x 1\n", &error).has_value());
  EXPECT_FALSE(obs::parse_json("{\"metrics\":[", &error).has_value());
  EXPECT_FALSE(obs::parse_json("{\"wrong\":[]}", &error).has_value());
  EXPECT_TRUE(obs::parse_prometheus("", &error).has_value());
  EXPECT_TRUE(obs::parse_prometheus("# just a comment\n", &error).has_value());
}

// --- Flight recorder -------------------------------------------------------

TEST(FlightRecorderTest, RingOverwritesOldest) {
  obs::FlightRecorder rec{4};
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.record(EventKind::kSequenceGap, 0, i);
  }
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.overwritten(), 6u);
  const auto events = rec.dump();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().a, 6u);  // oldest surviving
  EXPECT_EQ(events.back().a, 9u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
}

TEST(FlightRecorderTest, HourStampsSubsequentEvents) {
  obs::FlightRecorder rec{8};
  rec.record(EventKind::kExporterRestart, 1);
  rec.set_hour(212);
  rec.record(EventKind::kSequenceGap, 2, 1000);
  const auto events = rec.dump();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].hour, 0u);
  EXPECT_EQ(events[1].hour, 212u);
  EXPECT_EQ(events[1].source, 2u);
}

TEST(FlightRecorderTest, JsonDumpIsWellFormed) {
  obs::FlightRecorder rec{8};
  rec.set_hour(5);
  rec.record(EventKind::kTemplateParked, 3, 260);
  const std::string json = rec.to_json();
  EXPECT_NE(json.find("\"event\":\"template_parked\""), std::string::npos);
  EXPECT_NE(json.find("\"hour\":5"), std::string::npos);
  EXPECT_NE(json.find("\"a\":260"), std::string::npos);
}

TEST(FlightRecorderTest, ClearResets) {
  obs::FlightRecorder rec{8};
  rec.record(EventKind::kScrape);
  rec.clear();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.dump().empty());
}

// --- Span timers -----------------------------------------------------------

TEST(SpanTest, RecordsIntoHistogram) {
  Histogram h;
  { obs::SpanTimer span{&h}; }
  EXPECT_EQ(h.snapshot().count, 1u);
}

// --- Reporter --------------------------------------------------------------

TEST(ReporterTest, ScrapeNowDeliversParseableSnapshot) {
  MetricRegistry reg;
  reg.counter("scrapes_seen")->add(3);
  std::vector<std::string> seen;
  obs::Reporter rep{reg, {}, [&](const std::string& s) { seen.push_back(s); }};
  rep.scrape_now();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(rep.scrapes(), 1u);
  std::string error;
  ASSERT_TRUE(obs::parse_prometheus(seen[0], &error).has_value()) << error;
}

TEST(ReporterTest, BackgroundThreadScrapesPeriodically) {
  MetricRegistry reg;
  reg.counter("ticks");
  obs::FlightRecorder rec{64};
  obs::ReporterConfig config;
  config.period = std::chrono::milliseconds{5};
  config.format = obs::ExportFormat::kJson;
  config.recorder = &rec;
  std::atomic<int> delivered{0};
  obs::Reporter rep{reg, config, [&](const std::string&) { ++delivered; }};
  rep.start();
  EXPECT_TRUE(rep.running());
  while (delivered.load() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  rep.stop();
  EXPECT_FALSE(rep.running());
  EXPECT_GE(rep.scrapes(), 3u);
  // Each scrape left a flight event.
  const auto events = rec.dump();
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::kScrape);
}

TEST(ReporterTest, StopBeforeStartIsSafe) {
  MetricRegistry reg;
  obs::Reporter rep{reg, {}, nullptr};
  rep.stop();  // no thread running — must be a no-op
  rep.start();
  rep.stop();
  rep.start();  // restartable
  rep.stop();
}

// --- Concurrent scrape-while-updating (TSan workload, primitives only) -----

TEST(ObsConcurrencyTest, ScrapeWhileRecordingIsRaceFree) {
  MetricRegistry reg;
  obs::FlightRecorder rec{128};
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&reg, &rec, &stop, t] {
      auto c = reg.counter("w", {{"t", std::to_string(t)}});
      auto h = reg.histogram("lat", {{"t", std::to_string(t)}});
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        c->add(1);
        h->record(i++);
        if (i % 512 == 0) rec.record(EventKind::kSequenceGap, t, i);
      }
    });
  }
  std::string last;
  for (int i = 0; i < 200; ++i) {
    last = obs::to_prometheus(reg);
    (void)rec.dump();
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  std::string error;
  EXPECT_TRUE(obs::parse_prometheus(last, &error).has_value()) << error;
}

// --- Pipeline integration --------------------------------------------------

core::RuleSet four_domain_rules() {
  core::RuleSet rules;
  core::DetectionRule rule;
  rule.service = 1;
  rule.name = "svc";
  rule.monitored_domains = 4;
  rule.monitored_indices = {0, 1, 2, 3};
  rules.rules.push_back(std::move(rule));
  for (std::uint16_t m = 0; m < 4; ++m) {
    for (util::DayBin day = 0; day < 3; ++day) {
      rules.hitlist.add(net::IpAddress::v4(0x0a010000U + m), 443, day,
                        {1, m});
    }
  }
  return rules;
}

flow::FlowRecord pipeline_record(std::uint32_t salt) {
  flow::FlowRecord rec;
  rec.key.src = net::IpAddress::v4(0x0a800000U + salt % 16);
  rec.key.dst = net::IpAddress::v4(0x0a010000U + salt % 4);
  rec.key.src_port = static_cast<std::uint16_t>(30000 + salt % 1000);
  rec.key.dst_port = 443;
  rec.key.proto = 6;
  rec.packets = 1 + salt % 7;
  rec.bytes = 100 + salt * 13 % 5000;
  rec.start_ms = salt * 131ULL;
  rec.end_ms = salt * 131ULL + 50;
  rec.sampling = 1;
  return rec;
}

TEST(PipelineObsTest, SelfCheckPassesOnMixedIntakeAndCatchesTampering) {
  const auto rules = four_domain_rules();
  pipeline::IngestConfig cfg;
  cfg.shards = 2;
  cfg.detector.threshold = 1.0;
  // Normalizer that drops a marked subset, so the direction-drop leg of
  // the conservation identity is actually exercised.
  pipeline::Normalizer normalizer =
      [](const flow::FlowRecord& rec,
         util::HourBin hour) -> std::optional<core::Observation> {
    if (rec.key.dst_port == 9999) return std::nullopt;
    return core::Observation{.subscriber = 7,
                             .server = rec.key.dst,
                             .port = rec.key.dst_port,
                             .packets = rec.packets,
                             .hour = hour};
  };
  pipeline::IngestPipeline pipe{rules.hitlist, rules, cfg, normalizer};

  std::vector<flow::FlowRecord> flows;
  for (std::uint32_t i = 0; i < 100; ++i) {
    flows.push_back(pipeline_record(i));
    if (i % 10 == 0) flows.back().key.dst_port = 9999;  // will be dropped
  }
  ASSERT_TRUE(pipe.push_flows(flows, /*hour=*/1));
  ASSERT_TRUE(pipe.push_observations(std::vector<core::Observation>(
      5, {.subscriber = 9,
          .server = net::IpAddress::v4(0x0a010001U),
          .port = 443,
          .packets = 2,
          .hour = 1})));

  pipe.drain();
  auto check = pipe.self_check();
  EXPECT_TRUE(check.ok) << check.detail;

  pipe.shutdown();
  check = pipe.self_check();
  EXPECT_TRUE(check.ok) << check.detail;

  const auto st = pipe.stats();
  EXPECT_EQ(st.flows_in, 100u);
  EXPECT_EQ(st.dropped_direction, 10u);
  EXPECT_EQ(st.observations_direct, 5u);
  EXPECT_EQ(st.observations, 90u + 5u);  // kept + direct
  EXPECT_EQ(st.self_check_failures, 0u);

  // The registry series *are* the pipeline's counters: nudging one from
  // the outside breaks the identity, and the self-check must say so.
  pipe.observability().registry.counter("pipeline_flows_in_total")->add(1);
  check = pipe.self_check();
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.detail.find("flow conservation"), std::string::npos);
  EXPECT_EQ(pipe.stats().self_check_failures, 1u);
  const auto events = pipe.observability().recorder.dump();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, EventKind::kSelfCheckFailed);
}

template <typename DetectorT>
std::vector<std::tuple<core::SubscriberKey, core::ServiceId, std::uint64_t,
                       std::uint64_t, std::uint16_t, std::uint64_t,
                       util::HourBin, util::HourBin>>
evidence_rows(const DetectorT& det) {
  std::vector<std::tuple<core::SubscriberKey, core::ServiceId, std::uint64_t,
                         std::uint64_t, std::uint16_t, std::uint64_t,
                         util::HourBin, util::HourBin>>
      rows;
  det.for_each_evidence([&](core::SubscriberKey sub, core::ServiceId svc,
                            const core::Evidence& ev) {
    rows.emplace_back(sub, svc, ev.mask(0), ev.mask(1), ev.distinct(),
                      ev.packets(), ev.first_seen(), ev.satisfied_hour());
  });
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(PipelineObsTest, DatagramsNormalizeInDecodeStageWithCustomNormalizer) {
  // A custom normalizer on the datagram path: rows normalize on the body
  // workers through the generic path, so drops are counted there.
  const auto rules = four_domain_rules();
  pipeline::IngestConfig cfg;
  cfg.shards = 2;
  cfg.detector.threshold = 1.0;
  const auto stock = pipeline::default_normalizer(cfg.anonymization_key);
  const pipeline::Normalizer normalizer =
      [stock](const flow::FlowRecord& rec,
              util::HourBin hour) -> std::optional<core::Observation> {
    if (rec.key.dst_port == 9999) return std::nullopt;
    return stock(rec, hour);
  };
  pipeline::IngestPipeline pipe{rules.hitlist, rules, cfg, normalizer};

  flow::nf9::Exporter exporter{{.source_id = 3}};
  std::vector<std::pair<util::HourBin, std::vector<std::uint8_t>>> datagrams;
  std::uint64_t marked = 0;
  std::uint64_t sent = 0;
  for (util::HourBin h = 0; h < 3; ++h) {
    std::vector<flow::FlowRecord> flows;
    for (std::uint32_t i = 0; i < 100; ++i) {
      flows.push_back(pipeline_record(h * 100 + i));
      if (i % 10 == 3) {
        flows.back().key.dst_port = 9999;
        ++marked;
      }
    }
    sent += flows.size();
    for (auto& packet : exporter.export_flows(flows, 1574000000U + h * 3600U)) {
      datagrams.emplace_back(h, std::move(packet));
    }
  }
  ASSERT_GT(datagrams.size(), 3u);
  for (const auto& [hour, bytes] : datagrams) {
    ASSERT_TRUE(pipe.push_datagram(bytes, hour));
  }
  pipe.drain();
  const auto check = pipe.self_check();
  EXPECT_TRUE(check.ok) << check.detail;

  const auto st = pipe.stats();
  EXPECT_EQ(st.flows_decoded, sent);
  EXPECT_EQ(st.dropped_direction, marked);
  EXPECT_EQ(st.observations, sent - marked);
  EXPECT_EQ(st.decode.enqueued, datagrams.size());

  // Synchronous replay: record-at-a-time decode (same dedup window as the
  // decode stage), the same normalizer, one flat detector.
  flow::nf9::Collector collector{
      flow::nf9::CollectorConfig{.dedup_window = cfg.dedup_window}};
  core::Detector reference{rules.hitlist, rules, cfg.detector};
  std::vector<flow::FlowRecord> records;
  std::uint64_t dropped = 0;
  for (const auto& [hour, bytes] : datagrams) {
    records.clear();
    ASSERT_TRUE(collector.ingest(bytes, records));
    for (const auto& rec : records) {
      if (const auto obs = normalizer(rec, hour)) {
        reference.observe(obs->subscriber, obs->server, obs->port,
                          obs->packets, obs->hour);
      } else {
        ++dropped;
      }
    }
  }
  EXPECT_EQ(dropped, marked);
  const auto expected = evidence_rows(reference);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(evidence_rows(pipe.detector()), expected);
}

TEST(PipelineObsTest, StatsFacadeAgreesWithPrometheusScrape) {
  const auto rules = four_domain_rules();
  pipeline::IngestConfig cfg;
  cfg.shards = 2;
  cfg.detector.threshold = 1.0;
  pipeline::IngestPipeline pipe{rules.hitlist, rules, cfg};

  std::vector<flow::FlowRecord> flows;
  for (std::uint32_t i = 0; i < 64; ++i) flows.push_back(pipeline_record(i));
  ASSERT_TRUE(pipe.push_flows(flows, /*hour=*/2));
  pipe.drain();

  const auto st = pipe.stats();
  const std::string text = obs::to_prometheus(pipe.observability().registry);
  std::string error;
  const auto parsed = obs::parse_prometheus(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  const auto value_of = [&](const std::string& name) -> double {
    for (const auto& s : *parsed) {
      if (s.name == name && s.labels.empty()) return s.value;
    }
    return -1.0;
  };
  EXPECT_EQ(value_of("pipeline_flows_in_total"), double(st.flows_in));
  EXPECT_EQ(value_of("pipeline_observations_total"),
            double(st.observations));
  EXPECT_EQ(value_of("pipeline_dropped_direction_total"),
            double(st.dropped_direction));

  // Per-shard detector series sum back to the observation total.
  double shard_flows = 0;
  for (const auto& s : *parsed) {
    if (s.name == "detector_flows_total") shard_flows += s.value;
  }
  EXPECT_EQ(shard_flows, double(st.observations));
}

/// shard label → snapshot of each `name` series labelled {stage=`stage`}.
std::map<std::string, Histogram::Snapshot> stage_series(
    const MetricRegistry& reg, const std::string& name,
    const std::string& stage) {
  std::map<std::string, Histogram::Snapshot> out;
  for (const auto& sample : reg.snapshot()) {
    if (sample.name != name) continue;
    std::string shard;
    bool in_stage = false;
    for (const auto& [key, value] : sample.labels) {
      if (key == "shard") shard = value;
      if (key == "stage") in_stage = value == stage;
    }
    if (in_stage) out[shard] = sample.hist;
  }
  return out;
}

TEST(PipelineObsTest, StageWaveSeriesArePerWorkerAndCountEveryWave) {
  // Every stage pool worker records each wave into its own
  // stage_wave_{ns,items}{shard=w, stage=...} pair. Once drained, the
  // series must account for exactly the waves and items the queues saw.
  const auto rules = four_domain_rules();
  pipeline::IngestConfig cfg;
  cfg.shards = 2;
  cfg.detector.threshold = 1.0;
  pipeline::IngestPipeline pipe{rules.hitlist, rules, cfg};

  flow::nf9::Exporter exporter{{.source_id = 5}};
  for (util::HourBin h = 0; h < 3; ++h) {
    std::vector<flow::FlowRecord> flows;
    for (std::uint32_t i = 0; i < 300; ++i) {
      flows.push_back(pipeline_record(h * 300 + i));
    }
    for (auto& packet : exporter.export_flows(flows, 1574000000U + h * 3600U)) {
      ASSERT_TRUE(pipe.push_datagram(std::move(packet), h));
    }
  }
  pipe.drain();
  const auto st = pipe.stats();
  ASSERT_GT(st.decode.waves, 0u);
  ASSERT_GT(st.decode_body.waves, 0u);
  ASSERT_GT(st.detect.waves, 0u);
  const MetricRegistry& reg = pipe.observability().registry;

  // The header pass is one worker: shard 0.
  for (const char* name : {"stage_wave_ns", "stage_wave_items"}) {
    const auto decode = stage_series(reg, name, "decode");
    ASSERT_EQ(decode.size(), 1u) << name;
    ASSERT_EQ(decode.count("0"), 1u) << name;
    EXPECT_EQ(decode.at("0").count, st.decode.waves) << name;
  }
  EXPECT_EQ(stage_series(reg, "stage_wave_items", "decode").at("0").sum,
            st.decode.dequeued);

  // One series per body worker; Stats sums the body queues.
  const unsigned body_workers = std::max(1u, util::usable_cpus() - 1);
  for (const char* name : {"stage_wave_ns", "stage_wave_items"}) {
    const auto body = stage_series(reg, name, "decode_body");
    ASSERT_EQ(body.size(), body_workers) << name;
    std::uint64_t waves = 0;
    for (unsigned w = 0; w < body_workers; ++w) {
      ASSERT_EQ(body.count(std::to_string(w)), 1u) << name << " worker " << w;
      waves += body.at(std::to_string(w)).count;
    }
    EXPECT_EQ(waves, st.decode_body.waves) << name;
  }
  std::uint64_t body_items = 0;
  for (const auto& [worker, snap] :
       stage_series(reg, "stage_wave_items", "decode_body")) {
    body_items += snap.sum;
  }
  EXPECT_EQ(body_items, st.decode_body.dequeued);

  // One series per detect shard, each matching its own queue.
  ASSERT_EQ(st.detect_shards.size(), 2u);
  for (const char* name : {"stage_wave_ns", "stage_wave_items"}) {
    const auto detect = stage_series(reg, name, "detect");
    ASSERT_EQ(detect.size(), 2u) << name;
    for (unsigned s = 0; s < 2; ++s) {
      const std::string shard = std::to_string(s);
      ASSERT_EQ(detect.count(shard), 1u) << name << " shard " << s;
      EXPECT_EQ(detect.at(shard).count, st.detect_shards[s].waves)
          << name << " shard " << s;
    }
  }
  for (unsigned s = 0; s < 2; ++s) {
    EXPECT_EQ(stage_series(reg, "stage_wave_items", "detect")
                  .at(std::to_string(s))
                  .sum,
              st.detect_shards[s].dequeued)
        << "shard " << s;
  }
}

TEST(PipelineObsTest, ScrapeWhileIngestingIsRaceFree) {
  // The TSan acceptance workload: a background Reporter scrapes the live
  // registry while two producers push flows through the full pipeline.
  const auto rules = four_domain_rules();
  pipeline::IngestConfig cfg;
  cfg.shards = 4;
  cfg.queue_capacity = 64;
  cfg.detector.threshold = 1.0;
  pipeline::IngestPipeline pipe{rules.hitlist, rules, cfg};

  std::atomic<std::uint64_t> scrape_bytes{0};
  obs::ReporterConfig rcfg;
  rcfg.period = std::chrono::milliseconds{1};
  rcfg.recorder = &pipe.observability().recorder;
  obs::Reporter reporter{pipe.observability().registry, rcfg,
                         [&scrape_bytes](const std::string& text) {
                           scrape_bytes.fetch_add(text.size());
                         }};
  reporter.start();

  std::vector<std::thread> producers;
  for (unsigned t = 0; t < 2; ++t) {
    producers.emplace_back([&pipe, t] {
      for (std::uint32_t i = 0; i < 200; ++i) {
        std::vector<flow::FlowRecord> flows;
        for (std::uint32_t j = 0; j < 8; ++j) {
          flows.push_back(pipeline_record(t * 100'000 + i * 8 + j));
        }
        if (!pipe.push_flows(std::move(flows), i % 24)) break;
      }
    });
  }
  for (auto& p : producers) p.join();
  pipe.drain();
  // The coalesced pipeline can drain this whole workload inside one
  // reporter period; give the background thread a bounded window to
  // complete a scrape before stopping so the assertion is not a race
  // against ingest speed.
  for (int spin = 0; spin < 2000 && reporter.scrapes() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  reporter.stop();

  EXPECT_GE(reporter.scrapes(), 1u);
  EXPECT_GT(scrape_bytes.load(), 0u);
  const auto check = pipe.self_check();
  EXPECT_TRUE(check.ok) << check.detail;
  EXPECT_EQ(pipe.stats().flows_in, 2u * 200u * 8u);
}

TEST(CheckpointObsTest, SaveRestoreAndRejectionRecordFlightEvents) {
  const auto rules = four_domain_rules();
  core::Detector det{rules.hitlist, rules, {.threshold = 1.0}};
  for (std::uint16_t m = 0; m < 3; ++m) {
    det.observe(7, net::IpAddress::v4(0x0a010000U + m), 443, 5, 1);
  }

  obs::FlightRecorder rec{64};
  auto blob = core::save_checkpoint_compact(det, &rec);
  std::string error;
  ASSERT_TRUE(core::restore_checkpoint(blob, det, &error, &rec)) << error;
  auto bad = blob;
  bad[0] ^= 0xff;  // break the magic
  EXPECT_FALSE(core::restore_checkpoint(bad, det, &error, &rec));

  const auto events = rec.dump();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::kCheckpointSave);
  EXPECT_EQ(events[1].kind, EventKind::kCheckpointRestore);
  EXPECT_EQ(events[2].kind, EventKind::kCheckpointRejected);
  EXPECT_EQ(events[0].a, events[1].a);  // same entry count both ways
  EXPECT_EQ(events[0].b, blob.size());
  EXPECT_GT(events[0].a, 0u);
}

// A resumed study is watched through the per-shard evidence gauges, so a
// restore must leave both where the source had them — bytes included.
TEST(CheckpointObsTest, RestoreSetsPerShardEvidenceGauges) {
  const auto rules = four_domain_rules();
  constexpr unsigned kShards = 2;
  obs::Observability source_obs;
  core::ShardedDetector source{rules.hitlist, rules, {.threshold = 1.0},
                               kShards, 1024, &source_obs};
  std::vector<core::Observation> batch;
  for (core::SubscriberKey sub = 0; sub < 3000; ++sub) {
    batch.push_back(
        {sub, net::IpAddress::v4(0x0a010000U + sub % 4), 443, 5, 1});
  }
  source.process_batch(batch);
  const auto blob = core::save_checkpoint_compact(source);

  obs::Observability target_obs;
  core::ShardedDetector target{rules.hitlist, rules, {.threshold = 1.0},
                               kShards, 1024, &target_obs};
  std::string error;
  ASSERT_TRUE(core::restore_checkpoint(blob, target, &error)) << error;
  for (unsigned s = 0; s < kShards; ++s) {
    const Labels shard{{"shard", std::to_string(s)}};
    for (const char* name :
         {"detector_evidence_entries", "detector_evidence_bytes"}) {
      const auto want = source_obs.registry.gauge(name, shard)->value();
      EXPECT_GT(want, 0) << name << " shard " << s;
      EXPECT_EQ(target_obs.registry.gauge(name, shard)->value(), want)
          << name << " shard " << s;
    }
  }
}

// --- Deterministic flight-recorder replay of the fleet fault scenario ------

// Wire-level events follow datagram order through the single decode path,
// so two identical seeded runs must produce the same event tape. Timing-
// dependent kinds (backpressure, scrapes) are excluded.
bool is_wire_event(EventKind kind) {
  switch (kind) {
    case EventKind::kExporterRestart:
    case EventKind::kSequenceGap:
    case EventKind::kSequenceReplay:
    case EventKind::kTemplateParked:
    case EventKind::kTemplateRecovered:
    case EventKind::kTemplateEvicted:
      return true;
    default:
      return false;
  }
}

std::vector<simnet::LabeledFlow> fleet_hour(std::uint32_t hour,
                                            std::uint32_t flows) {
  std::vector<simnet::LabeledFlow> out;
  out.reserve(flows);
  for (std::uint32_t i = 0; i < flows; ++i) {
    simnet::LabeledFlow lf;
    lf.instance = 1 + i % 40;
    lf.domain_index = i % 6;
    lf.flow = pipeline_record(hour * 100003U + i);
    lf.flow.key.dst = net::IpAddress::v4(0x34000000U + i * 3);
    lf.flow.sampling = 1;
    out.push_back(std::move(lf));
  }
  return out;
}

std::vector<obs::Event> run_seeded_fleet_scenario() {
  obs::Observability observability;
  telemetry::BorderFleetConfig config;
  config.routers = 3;
  config.sampling = 1;
  config.impairment = flow::ImpairmentConfig{.seed = 77,
                                             .drop = 0.08,
                                             .duplicate = 0.05,
                                             .reorder = 0.05,
                                             .truncate = 0.03};
  config.restart_router = 1;
  config.restart_hour = 6;
  config.obs = &observability;
  telemetry::BorderRouterFleet fleet{config};
  for (std::uint32_t hour = 0; hour < 12; ++hour) {
    observability.recorder.set_hour(hour);
    (void)fleet.observe(fleet_hour(hour, 300), hour);
  }
  std::vector<obs::Event> wire;
  for (const auto& event : observability.recorder.dump()) {
    if (is_wire_event(event.kind)) wire.push_back(event);
  }
  return wire;
}

TEST(FlightReplayTest, SeededFleetRestartScenarioReplaysDeterministically) {
  const auto first = run_seeded_fleet_scenario();
  const auto second = run_seeded_fleet_scenario();

  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].kind, second[i].kind) << "event " << i;
    EXPECT_EQ(first[i].source, second[i].source) << "event " << i;
    EXPECT_EQ(first[i].a, second[i].a) << "event " << i;
    EXPECT_EQ(first[i].b, second[i].b) << "event " << i;
    EXPECT_EQ(first[i].hour, second[i].hour) << "event " << i;
  }

  // The scheduled restart is on the tape: the fleet records it when it
  // swaps the exporter, and the collector records it again when the
  // sequence reset is detected on ingest.
  bool saw_restart = false;
  for (const auto& event : first) {
    if (event.kind == EventKind::kExporterRestart) {
      saw_restart = true;
      EXPECT_EQ(event.hour, 6u);
    }
  }
  EXPECT_TRUE(saw_restart);
}

// --- EventKind wire pinning (ISSUE 8 satellite) ----------------------------

// Event.kind rides a uint8 slot in checkpoint/export ring headers, so the
// numeric value of every shipped kind is wire format. This pins them all:
// reordering the enum, inserting before an existing kind, or growing past
// the uint8 sentinel must fail here before it silently corrupts archived
// rings. The three serve alert kinds land strictly after kCollectorResync.
TEST(FlightRecorderWire, EventKindValuesArePinned) {
  const std::pair<EventKind, unsigned> pinned[] = {
      {EventKind::kExporterRestart, 0},
      {EventKind::kSequenceGap, 1},
      {EventKind::kSequenceReplay, 2},
      {EventKind::kTemplateParked, 3},
      {EventKind::kTemplateRecovered, 4},
      {EventKind::kTemplateEvicted, 5},
      {EventKind::kBackpressureStall, 6},
      {EventKind::kSlowWave, 7},
      {EventKind::kCacheEmergencyExpiry, 8},
      {EventKind::kCheckpointSave, 9},
      {EventKind::kCheckpointRestore, 10},
      {EventKind::kCheckpointRejected, 11},
      {EventKind::kDegradedEnter, 12},
      {EventKind::kDegradedExit, 13},
      {EventKind::kPipelineShutdown, 14},
      {EventKind::kSelfCheckFailed, 15},
      {EventKind::kScrape, 16},
      {EventKind::kDeltaMerged, 17},
      {EventKind::kDeltaRejected, 18},
      {EventKind::kCollectorResync, 19},
      {EventKind::kAlertNewDetection, 20},
      {EventKind::kAlertConfidenceDegraded, 21},
      {EventKind::kAlertLossSpike, 22},
  };
  for (const auto& [kind, value] : pinned) {
    EXPECT_EQ(static_cast<unsigned>(kind), value)
        << obs::event_name(kind);
  }
  // The sentinel trails the last shipped kind and stays within uint8.
  EXPECT_EQ(static_cast<unsigned>(EventKind::kEventKindCount),
            std::size(pinned));
  static_assert(static_cast<unsigned>(EventKind::kEventKindCount) <= 256U);
}

TEST(FlightRecorderWire, AlertKindsHaveStableNames) {
  EXPECT_STREQ(obs::event_name(EventKind::kAlertNewDetection),
               "alert_new_detection");
  EXPECT_STREQ(obs::event_name(EventKind::kAlertConfidenceDegraded),
               "alert_confidence_degraded");
  EXPECT_STREQ(obs::event_name(EventKind::kAlertLossSpike),
               "alert_loss_spike");
  EXPECT_STREQ(obs::event_name(EventKind::kEventKindCount), "unknown");
}

}  // namespace
}  // namespace haystack
