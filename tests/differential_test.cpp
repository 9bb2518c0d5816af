// Reference-model differential tests (ISSUE 1 tentpole).
//
// Each scenario builds a randomized rule universe (service count, domain
// counts, hierarchy edges, critical-domain flags all drawn from a seeded
// Pcg32), generates a randomized observation stream against it (hitlist
// hits, near-misses on port, and plain misses), and then replays the
// identical stream through:
//
//   - Detector                  (the optimized streaming engine),
//   - ReferenceDetector         (the naive log-replay oracle),
//   - ShardedDetector           (shards in {1, 2, 4, 8, 16}), via
//                               process_batch at several batch sizes and
//                               via the single-observation observe path.
//
// Agreement is asserted bit-for-bit: the set of (subscriber, service)
// evidence pairs, every Evidence field (mask words, distinct count,
// packets, first_seen, satisfied_hour), and the hierarchy-aware detection
// hour for every (subscriber, service) combination.
//
// These tests are also the designated TSan workload for process_batch:
// `HAYSTACK_SANITIZE=thread` builds run them to prove the partition-per-
// shard scheme really has no cross-thread evidence sharing (see
// tests/run_sanitizers.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <span>
#include <tuple>
#include <vector>

#include <sched.h>

#include "core/checkpoint.hpp"
#include "core/reference_detector.hpp"
#include "core/sharded_detector.hpp"
#include "flow/impairment.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v9.hpp"
#include "flow/wire.hpp"
#include "pipeline/ingest.hpp"
#include "util/cpus.hpp"
#include "util/rng.hpp"

namespace haystack::core {
namespace {

constexpr unsigned kShardSweep[] = {1, 2, 4, 8, 16};

struct Scenario {
  RuleSet rules;
  DetectorConfig config;
  std::vector<Observation> stream;
  SubscriberKey subscriber_pool = 0;  ///< subscribers are 1..pool
};

net::IpAddress service_ip(ServiceId s, std::uint16_t m) {
  return net::IpAddress::v4(0x0A000000U | (std::uint32_t{s} << 16) | m);
}

// Randomized rule universe + observation stream. Everything derives from
// `seed`, so a failure reproduces from the gtest parameter alone.
Scenario make_scenario(std::uint64_t seed) {
  util::Pcg32 rng = util::derive_rng(seed, 0xd1ff, 0);
  Scenario sc;

  // Threshold sweep: exercise the floor(D*N) boundary at several D,
  // including the degenerate D=1.0 (all domains) and tiny-D (=> 1 domain).
  constexpr double kThresholds[] = {0.1, 0.25, 0.4, 0.6, 0.8, 1.0};
  sc.config.threshold = kThresholds[seed % std::size(kThresholds)];

  const unsigned n_services = 3 + rng.bounded(8);
  for (unsigned s = 0; s < n_services; ++s) {
    DetectionRule rule;
    rule.service = static_cast<ServiceId>(s);
    rule.name = "svc" + std::to_string(s);
    rule.level = Level::kManufacturer;
    rule.monitored_domains = 1 + rng.bounded(20);
    for (std::uint16_t m = 0; m < rule.monitored_domains; ++m) {
      rule.monitored_indices.push_back(m);
    }
    // Parents always have a smaller id, so the hierarchy is acyclic;
    // chains up to the full service count are possible.
    if (s > 0 && rng.chance(0.5)) {
      rule.parent = static_cast<ServiceId>(rng.bounded(s));
    }
    if (rng.chance(0.4)) {
      rule.critical_monitored_index =
          static_cast<std::uint16_t>(rng.bounded(rule.monitored_domains));
      rule.critical_sufficient = rng.chance(0.5);
    }
    sc.rules.rules.push_back(std::move(rule));
  }

  // Hitlist over the days the stream can touch (hours < 72 => days 0..2).
  for (const auto& rule : sc.rules.rules) {
    for (std::uint16_t m = 0; m < rule.monitored_domains; ++m) {
      for (util::DayBin day = 0; day < 3; ++day) {
        sc.rules.hitlist.add(service_ip(rule.service, m), 443, day,
                             {rule.service, m});
      }
    }
  }

  sc.subscriber_pool = 1 + rng.bounded(150);
  const std::size_t n_obs = 500 + rng.bounded(3500);
  sc.stream.reserve(n_obs);
  for (std::size_t i = 0; i < n_obs; ++i) {
    Observation obs;
    obs.subscriber = 1 + rng.bounded(static_cast<std::uint32_t>(
                             sc.subscriber_pool));
    obs.packets = 1 + rng.bounded(100);
    obs.hour = rng.bounded(72);
    const std::uint32_t kind = rng.bounded(10);
    const auto s = static_cast<ServiceId>(rng.bounded(n_services));
    const auto m = static_cast<std::uint16_t>(
        rng.bounded(sc.rules.rules[s].monitored_domains));
    if (kind < 7) {
      obs.server = service_ip(s, m);  // hitlist hit
      obs.port = 443;
    } else if (kind < 9) {
      obs.server = service_ip(s, m);  // right IP, wrong port
      obs.port = static_cast<std::uint16_t>(1024 + rng.bounded(50000));
    } else {
      obs.server = net::IpAddress::v4(0xC6336400U + rng.bounded(256));
      obs.port = 443;  // miss entirely
    }
    sc.stream.push_back(obs);
  }
  return sc;
}

// Canonical bit-for-bit snapshot of a detector's evidence state.
using EvidenceRow =
    std::tuple<SubscriberKey, ServiceId, std::uint64_t, std::uint64_t,
               std::uint16_t, std::uint64_t, util::HourBin, util::HourBin>;

template <typename DetectorT>
std::vector<EvidenceRow> snapshot(const DetectorT& det) {
  std::vector<EvidenceRow> rows;
  det.for_each_evidence([&](SubscriberKey sub, ServiceId svc,
                            const Evidence& ev) {
    rows.emplace_back(sub, svc, ev.mask(0), ev.mask(1), ev.distinct(),
                      ev.packets(), ev.first_seen(), ev.satisfied_hour());
  });
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Detection verdicts for the full (subscriber, service) cross product.
template <typename DetectorT>
std::map<std::pair<SubscriberKey, ServiceId>, std::optional<util::HourBin>>
detection_map(const DetectorT& det, const Scenario& sc) {
  std::map<std::pair<SubscriberKey, ServiceId>, std::optional<util::HourBin>>
      out;
  for (SubscriberKey sub = 1; sub <= sc.subscriber_pool; ++sub) {
    for (const auto& rule : sc.rules.rules) {
      out[{sub, rule.service}] = det.detection_hour(sub, rule.service);
    }
  }
  return out;
}

class DifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialTest, AllEnginesAgreeBitForBit) {
  const Scenario sc = make_scenario(GetParam());

  // Baseline: the plain streaming detector, one observe per flow.
  Detector baseline{sc.rules.hitlist, sc.rules, sc.config};
  for (const auto& obs : sc.stream) {
    baseline.observe(obs.subscriber, obs.server, obs.port, obs.packets,
                     obs.hour);
  }
  const auto baseline_rows = snapshot(baseline);
  const auto baseline_verdicts = detection_map(baseline, sc);

  // Oracle: naive log replay must produce the same verdicts and the same
  // evidence-derived quantities.
  ReferenceDetector reference{sc.rules.hitlist, sc.rules, sc.config};
  for (const auto& obs : sc.stream) reference.observe(obs);
  ASSERT_EQ(detection_map(reference, sc), baseline_verdicts);

  std::vector<std::pair<SubscriberKey, ServiceId>> baseline_keys;
  for (const auto& row : baseline_rows) {
    baseline_keys.emplace_back(std::get<0>(row), std::get<1>(row));
  }
  ASSERT_EQ(reference.evidence_keys(), baseline_keys);
  for (const auto& row : baseline_rows) {
    const auto ref =
        reference.evidence(std::get<0>(row), std::get<1>(row));
    ASSERT_TRUE(ref.has_value());
    EXPECT_EQ(ref->seen.size(), std::get<4>(row));       // distinct
    EXPECT_EQ(ref->packets, std::get<5>(row));           // packets
    EXPECT_EQ(ref->first_seen, std::get<6>(row));        // first_seen
    EXPECT_EQ(ref->satisfied_hour.value_or(Evidence::kNever),
              std::get<7>(row));                         // satisfied_hour
    // The bitmask words must encode exactly the reference's seen-set.
    for (std::uint16_t pos = 0; pos < 128; ++pos) {
      const std::uint64_t word =
          pos < 64 ? std::get<2>(row) : std::get<3>(row);
      const bool bit = (word >> (pos & 63U)) & 1U;
      EXPECT_EQ(bit, ref->seen.count(pos) > 0) << "position " << pos;
    }
  }

  // Sharded: every shard count, batched at a seed-dependent batch size.
  const std::size_t batch_sizes[] = {1, 64, 997, sc.stream.size()};
  for (const unsigned shards : kShardSweep) {
    ShardedDetector sharded{sc.rules.hitlist, sc.rules, sc.config, shards};
    const std::size_t batch =
        batch_sizes[(GetParam() + shards) % std::size(batch_sizes)];
    std::span<const Observation> rest{sc.stream};
    while (!rest.empty()) {
      const std::size_t n = std::min(batch, rest.size());
      sharded.process_batch(rest.subspan(0, n));
      rest = rest.subspan(n);
    }
    EXPECT_EQ(snapshot(sharded), baseline_rows) << "shards=" << shards;
    EXPECT_EQ(detection_map(sharded, sc), baseline_verdicts)
        << "shards=" << shards;
    EXPECT_EQ(sharded.stats().flows, sc.stream.size());
  }

  // Sharded single-observation path must equal the batched path.
  ShardedDetector inline_path{sc.rules.hitlist, sc.rules, sc.config, 8};
  for (const auto& obs : sc.stream) inline_path.observe(obs);
  EXPECT_EQ(snapshot(inline_path), baseline_rows);
}

// >= 24 seeded scenarios x 6 threshold values (threshold cycles with the
// seed), comfortably past the issue's 20-scenario floor.
INSTANTIATE_TEST_SUITE_P(Scenarios, DifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 24));

// Streaming-pipeline equivalence (ISSUE 3): observations flowing through
// the asynchronous staged pipeline — bounded queues, adaptive waves,
// persistent shard workers — must land in evidence state bit-for-bit
// identical to the synchronous engines, for any shard count, any queue
// capacity (including the pathological capacity 1), and any producer
// chunking. Determinism is structural (per-subscriber FIFO through a
// single-consumer shard queue), not schedule luck, so this holds on every
// run.
TEST_P(DifferentialTest, StreamingPipelineMatchesSynchronousEngines) {
  const Scenario sc = make_scenario(GetParam());

  Detector baseline{sc.rules.hitlist, sc.rules, sc.config};
  for (const auto& obs : sc.stream) {
    baseline.observe(obs.subscriber, obs.server, obs.port, obs.packets,
                     obs.hour);
  }
  const auto baseline_rows = snapshot(baseline);
  const auto baseline_verdicts = detection_map(baseline, sc);

  ReferenceDetector reference{sc.rules.hitlist, sc.rules, sc.config};
  for (const auto& obs : sc.stream) reference.observe(obs);
  ASSERT_EQ(detection_map(reference, sc), baseline_verdicts);

  const std::size_t capacities[] = {1, 2, 64, 4096};
  const std::size_t chunk_sizes[] = {1, 17, 256};
  for (const unsigned shards : {1u, 4u, 16u}) {
    pipeline::IngestConfig cfg;
    cfg.shards = shards;
    cfg.queue_capacity =
        capacities[(GetParam() + shards) % std::size(capacities)];
    cfg.max_wave = 1 + GetParam() % 64;
    cfg.detector = sc.config;
    pipeline::IngestPipeline pipe{sc.rules.hitlist, sc.rules, cfg};

    const std::size_t chunk =
        chunk_sizes[(GetParam() + shards) % std::size(chunk_sizes)];
    for (std::size_t off = 0; off < sc.stream.size(); off += chunk) {
      const std::size_t n = std::min(chunk, sc.stream.size() - off);
      ASSERT_TRUE(pipe.push_observations(
          {sc.stream.begin() + static_cast<std::ptrdiff_t>(off),
           sc.stream.begin() + static_cast<std::ptrdiff_t>(off + n)}));
    }
    pipe.drain();
    EXPECT_EQ(snapshot(pipe.detector()), baseline_rows)
        << "shards=" << shards << " capacity=" << cfg.queue_capacity;
    EXPECT_EQ(detection_map(pipe.detector(), sc), baseline_verdicts)
        << "shards=" << shards;
    EXPECT_EQ(pipe.detector().stats().flows, sc.stream.size());

    // Synchronous ShardedDetector on the same stream, same shard count.
    ShardedDetector sharded{sc.rules.hitlist, sc.rules, sc.config, shards};
    sharded.process_batch(sc.stream);
    EXPECT_EQ(snapshot(pipe.detector()), snapshot(sharded))
        << "shards=" << shards;

    // Shutdown keeps the evidence readable and unchanged.
    pipe.shutdown();
    EXPECT_EQ(snapshot(pipe.detector()), baseline_rows);
  }
}

// Checkpoint/restore differential (ISSUE 2): a mid-run save → restore →
// continue must reproduce the uninterrupted run's evidence masks and
// detection hours bit-for-bit, across engines and shard counts.
TEST_P(DifferentialTest, CheckpointRestoreMatchesUninterruptedRun) {
  const Scenario sc = make_scenario(GetParam());

  Detector uninterrupted{sc.rules.hitlist, sc.rules, sc.config};
  for (const auto& obs : sc.stream) uninterrupted.observe(obs.subscriber,
                                                          obs.server,
                                                          obs.port,
                                                          obs.packets,
                                                          obs.hour);
  const auto expected_rows = snapshot(uninterrupted);
  const auto expected_verdicts = detection_map(uninterrupted, sc);

  // Crash mid-stream, checkpoint, restore into a *fresh* detector, replay
  // only the tail.
  const std::size_t cut = sc.stream.size() / 2;
  Detector first_half{sc.rules.hitlist, sc.rules, sc.config};
  for (std::size_t i = 0; i < cut; ++i) {
    const auto& obs = sc.stream[i];
    first_half.observe(obs.subscriber, obs.server, obs.port, obs.packets,
                       obs.hour);
  }
  const auto blob = save_checkpoint_compact(first_half);
  // Same state serializes to identical bytes (hash-map order must not
  // leak into the checkpoint).
  ASSERT_EQ(save_checkpoint_compact(first_half), blob);

  Detector resumed{sc.rules.hitlist, sc.rules, sc.config};
  ASSERT_TRUE(restore_checkpoint(blob, resumed));
  for (std::size_t i = cut; i < sc.stream.size(); ++i) {
    const auto& obs = sc.stream[i];
    resumed.observe(obs.subscriber, obs.server, obs.port, obs.packets,
                    obs.hour);
  }
  EXPECT_EQ(snapshot(resumed), expected_rows);
  EXPECT_EQ(detection_map(resumed, sc), expected_verdicts);
  EXPECT_EQ(resumed.stats().flows, uninterrupted.stats().flows);
  EXPECT_EQ(resumed.stats().matched, uninterrupted.stats().matched);

  // Cross-engine: the same checkpoint restores into a ShardedDetector
  // (different shard counts re-partition the restored evidence).
  for (const unsigned shards : {1u, 4u}) {
    ShardedDetector sharded{sc.rules.hitlist, sc.rules, sc.config, shards};
    ASSERT_TRUE(restore_checkpoint(blob, sharded));
    for (std::size_t i = cut; i < sc.stream.size(); ++i) {
      sharded.observe(sc.stream[i]);
    }
    EXPECT_EQ(snapshot(sharded), expected_rows) << "shards=" << shards;
    EXPECT_EQ(detection_map(sharded, sc), expected_verdicts)
        << "shards=" << shards;
    // And a sharded detector's own checkpoint bytes equal the flat
    // detector's for identical state.
    EXPECT_EQ(save_checkpoint_compact(sharded),
              save_checkpoint_compact(resumed))
        << "shards=" << shards;
  }
}

TEST(CheckpointTest, RejectsCorruptAndMismatchedBlobs) {
  const Scenario sc = make_scenario(1);
  Detector det{sc.rules.hitlist, sc.rules, sc.config};
  for (const auto& obs : sc.stream) {
    det.observe(obs.subscriber, obs.server, obs.port, obs.packets, obs.hour);
  }
  const auto blob = save_checkpoint_compact(det);
  const auto rows = snapshot(det);

  const auto expect_rejected = [&](std::vector<std::uint8_t> bad,
                                   const char* what) {
    Detector victim{sc.rules.hitlist, sc.rules, sc.config};
    victim.observe(sc.stream[0].subscriber, sc.stream[0].server,
                   sc.stream[0].port, sc.stream[0].packets,
                   sc.stream[0].hour);
    const auto before = snapshot(victim);
    std::string error;
    EXPECT_FALSE(restore_checkpoint(bad, victim, &error)) << what;
    EXPECT_FALSE(error.empty()) << what;
    // A failed restore must leave the detector untouched.
    EXPECT_EQ(snapshot(victim), before) << what;
  };

  {
    auto bad = blob;
    bad[0] ^= 0xff;
    expect_rejected(std::move(bad), "magic");
  }
  {
    auto bad = blob;
    bad[7] ^= 0x01;  // version low byte
    expect_rejected(std::move(bad), "version");
  }
  {
    auto bad = blob;
    bad[8] ^= 0x80;  // threshold bits
    expect_rejected(std::move(bad), "threshold");
  }
  {
    auto bad = blob;
    bad.resize(bad.size() - 1);
    expect_rejected(std::move(bad), "truncated");
  }
  {
    auto bad = blob;
    bad.push_back(0);
    expect_rejected(std::move(bad), "trailing");
  }
  expect_rejected({}, "empty");

  // A detector configured with a different threshold refuses the blob.
  DetectorConfig other = sc.config;
  other.threshold = sc.config.threshold == 0.25 ? 0.4 : 0.25;
  Detector mismatched{sc.rules.hitlist, sc.rules, other};
  EXPECT_FALSE(restore_checkpoint(blob, mismatched));

  // And the good blob still round-trips.
  Detector clean{sc.rules.hitlist, sc.rules, sc.config};
  ASSERT_TRUE(restore_checkpoint(blob, clean));
  EXPECT_EQ(snapshot(clean), rows);
}

// A larger, repeated workload aimed at TSan: many batches, many threads,
// interleaved queries between batches. Under HAYSTACK_SANITIZE=thread this
// is the test that would expose any evidence sharing across shard workers.
TEST(DifferentialTsanWorkload, RepeatedBatchesStayDeterministic) {
  const Scenario sc = make_scenario(0xbeef);
  ShardedDetector a{sc.rules.hitlist, sc.rules, sc.config, 8};
  ShardedDetector b{sc.rules.hitlist, sc.rules, sc.config, 8};
  std::span<const Observation> stream{sc.stream};
  for (std::size_t off = 0; off < stream.size(); off += 256) {
    const auto chunk = stream.subspan(off, std::min<std::size_t>(
                                               256, stream.size() - off));
    a.process_batch(chunk);
    b.process_batch(chunk);
    // Query concurrently-written state between batches (reads are only
    // safe between process_batch calls; this pins that contract).
    EXPECT_EQ(a.stats().flows, b.stats().flows);
  }
  EXPECT_EQ(snapshot(a), snapshot(b));
}

// ---------------------------------------------------------------------------
// Wire-level differential sweep (ISSUE 6 satellite): the streaming SoA
// fast path — push_datagram → compiled-template batch decode →
// fast-normalize → interned shard workers — must equal a seed-era
// record-at-a-time reference (Collector::ingest + default_normalizer +
// flat Detector::observe) bit for bit, for both stateful codecs, across
// shard counts, queue capacities, body-worker counts and deterministic
// fault-matrix impairments. Template loss (dropped/reordered template
// flowsets) must park-and-recover identically under compiled-template
// plans, pinned by comparing recovered-record counts between the two
// decode paths. A template redefined every few datagrams pins that each
// body decodes under the plan its datagram was scanned with, although the
// body workers execute it after later datagrams have been scanned.

enum class WireCodec { kNetflowV9, kIpfix };

struct WireImpairment {
  const char* name;
  flow::ImpairmentConfig link;
  /// Template refresh cadence (packets); small values re-announce
  /// templates often enough for park-and-recover to fire under loss.
  std::uint32_t template_refresh = 20;
  /// When non-zero, every Nth chunk travels in a hand-written datagram
  /// that redefines the IPv4 template with a 4-byte packet counter
  /// instead of 8, followed by one that restores the exporter's layout.
  std::size_t layout_every = 0;
};

/// A datagram that announces the IPv4 template (v9 256 / IPFIX 300) with
/// a `packets_len`-byte packet counter and carries `records` (IPv4) under
/// it; with no records it is a template-only announcement. The header
/// continues the exporter's stream: same source, current sequence, and
/// the uptime of an exporter booted at Unix time 0.
std::vector<std::uint8_t> layout_datagram(
    WireCodec codec, std::uint16_t packets_len,
    std::span<const flow::FlowRecord> records, std::uint32_t sequence,
    std::uint32_t unix_secs) {
  const bool v9 = codec == WireCodec::kNetflowV9;
  const std::uint16_t start_id = v9 ? 22 : 152;  // FIRST_SWITCHED / IE 152
  const std::uint16_t end_id = v9 ? 21 : 153;
  const std::uint16_t time_len = v9 ? 4 : 8;
  // (field id, length): the exporters' IPv4 layout but for IN_PKTS.
  const std::uint16_t fields[][2] = {
      {8, 4},          {12, 4}, {7, 2},  {11, 2},
      {4, 1},          {6, 1},  {2, packets_len},
      {1, 8},          {start_id, time_len},
      {end_id, time_len},       {34, 4}};
  const std::uint16_t template_id =
      v9 ? flow::nf9::kTemplateV4 : flow::ipfix::kTemplateV4;
  flow::ByteWriter w;
  w.u16(v9 ? 9 : 10);
  if (v9) {
    w.u16(records.empty() ? 1 : 2);  // flowsets
    w.u32(unix_secs * 1000U);        // sysUptime
    w.u32(unix_secs);
  } else {
    w.u16(0);  // total length, patched below
    w.u32(unix_secs);
  }
  w.u32(sequence);
  w.u32(7);  // source id / observation domain
  w.u16(v9 ? 0 : flow::ipfix::kTemplateSetId);
  w.u16(static_cast<std::uint16_t>(8 + 4 * std::size(fields)));
  w.u16(template_id);
  w.u16(static_cast<std::uint16_t>(std::size(fields)));
  for (const auto& f : fields) {
    w.u16(f[0]);
    w.u16(f[1]);
  }
  if (!records.empty()) {
    const std::size_t length_offset = w.size() + 2;
    w.u16(template_id);
    w.u16(0);  // length placeholder
    for (const flow::FlowRecord& rec : records) {
      w.u32(rec.key.src.v4_value());
      w.u32(rec.key.dst.v4_value());
      w.u16(rec.key.src_port);
      w.u16(rec.key.dst_port);
      w.u8(rec.key.proto);
      w.u8(rec.tcp_flags);
      if (packets_len == 8) {
        w.u64(rec.packets);
      } else {
        w.u32(static_cast<std::uint32_t>(rec.packets));
      }
      w.u64(rec.bytes);
      if (v9) {
        w.u32(static_cast<std::uint32_t>(rec.start_ms));
        w.u32(static_cast<std::uint32_t>(rec.end_ms));
      } else {
        w.u64(rec.start_ms);
        w.u64(rec.end_ms);
      }
      w.u32(rec.sampling);
    }
    const std::size_t unpadded = w.size() - (length_offset - 2);
    w.pad((4 - unpadded % 4) % 4);
    w.patch_u16(length_offset,
                static_cast<std::uint16_t>(w.size() - (length_offset - 2)));
  }
  if (!v9) w.patch_u16(2, static_cast<std::uint16_t>(w.size()));
  return w.take();
}

/// One datagram with the hour it was delivered at. Reordered datagrams
/// inherit the delivery hour of the transmit() call that released them —
/// the same rule for both decode paths, so equivalence is unaffected.
struct WireDatagram {
  util::HourBin hour = 0;
  std::vector<std::uint8_t> bytes;
};

/// Exports the scenario stream as wire datagrams and runs them through a
/// seeded impaired link. Observations become flow records (subscriber →
/// source address, server → destination), chunked into per-hour export
/// packets of up to 18 records.
std::vector<WireDatagram> make_wire_stream(const Scenario& sc,
                                           WireCodec codec,
                                           const WireImpairment& imp) {
  constexpr std::size_t kRecordsPerChunk = 18;
  flow::nf9::Exporter nf9{
      {.source_id = 7, .template_refresh_packets = imp.template_refresh}};
  flow::ipfix::Exporter ipfix{{.observation_domain = 7}};
  flow::ImpairedLink link{imp.link};

  std::vector<WireDatagram> out;
  std::span<const Observation> rest{sc.stream};
  for (std::size_t chunk = 0; !rest.empty(); ++chunk) {
    const std::size_t n = std::min(kRecordsPerChunk, rest.size());
    const util::HourBin hour = rest.front().hour;
    std::vector<flow::FlowRecord> records;
    records.reserve(n);
    for (const auto& obs : rest.subspan(0, n)) {
      flow::FlowRecord rec;
      rec.key.src = net::IpAddress::v4(
          0xC0A80000U + static_cast<std::uint32_t>(obs.subscriber));
      rec.key.dst = obs.server;
      rec.key.src_port = 40000;
      rec.key.dst_port = obs.port;
      rec.key.proto = 6;
      rec.tcp_flags = 0x1b;
      rec.packets = obs.packets;
      rec.bytes = obs.packets * 64;
      rec.start_ms = std::uint64_t{hour} * 1000;
      rec.end_ms = std::uint64_t{hour} * 1000 + 500;
      rec.sampling = 1;
      records.push_back(rec);
    }
    rest = rest.subspan(n);

    const std::uint32_t unix_secs = 1'600'000'000U + hour * 3600U;
    std::vector<std::vector<std::uint8_t>> packets;
    if (imp.layout_every != 0 && chunk % imp.layout_every == 0) {
      const std::uint32_t sequence = codec == WireCodec::kNetflowV9
                                         ? nf9.packets_sent()
                                         : ipfix.records_sent();
      packets.push_back(
          layout_datagram(codec, 4, records, sequence, unix_secs));
      packets.push_back(layout_datagram(codec, 8, {}, sequence, unix_secs));
    } else {
      packets = codec == WireCodec::kNetflowV9
                    ? nf9.export_flows(records, unix_secs)
                    : ipfix.export_flows(records, unix_secs);
    }
    for (auto& packet : packets) {
      for (auto& delivered : link.transmit(std::move(packet))) {
        out.push_back({hour, std::move(delivered)});
      }
    }
  }
  const util::HourBin last_hour =
      sc.stream.empty() ? 0 : sc.stream.back().hour;
  for (auto& delivered : link.flush()) {
    out.push_back({last_hour, std::move(delivered)});
  }
  return out;
}

/// Record-at-a-time reference result: flat-detector evidence plus the
/// decode accounting the streaming side must reproduce.
struct WireReference {
  std::vector<EvidenceRow> rows;
  std::uint64_t malformed = 0;
  std::uint64_t recovered_records = 0;
  std::uint64_t flows = 0;
};

WireReference run_wire_reference(const Scenario& sc, WireCodec codec,
                                 const std::vector<WireDatagram>& stream,
                                 std::uint64_t anonymization_key) {
  // Collector knobs must match the pipeline's decode stage (same dedup
  // window) or the comparison would be between different protocols.
  flow::nf9::Collector nf9{flow::nf9::CollectorConfig{.dedup_window = 64}};
  flow::ipfix::Collector ipfix{
      flow::ipfix::CollectorConfig{.dedup_window = 64}};
  const auto normalize = pipeline::default_normalizer(anonymization_key);
  Detector det{sc.rules.hitlist, sc.rules, sc.config};

  WireReference ref;
  std::vector<flow::FlowRecord> records;
  for (const auto& datagram : stream) {
    records.clear();
    const bool ok = codec == WireCodec::kNetflowV9
                        ? nf9.ingest(datagram.bytes, records)
                        : ipfix.ingest(datagram.bytes, records);
    if (!ok) ++ref.malformed;
    for (const auto& rec : records) {
      if (const auto obs = normalize(rec, datagram.hour)) {
        ++ref.flows;
        det.observe(obs->subscriber, obs->server, obs->port, obs->packets,
                    obs->hour);
      }
    }
  }
  ref.rows = snapshot(det);
  ref.recovered_records = codec == WireCodec::kNetflowV9
                              ? nf9.stats().recovered_records
                              : ipfix.stats().recovered_records;
  return ref;
}

/// Constructs a pipeline while the calling thread's CPU affinity is
/// narrowed to its first `cpus` usable CPUs (0 = unchanged), then restores
/// the affinity. The pipeline sizes its body stage from util::usable_cpus(),
/// which reads that affinity; its threads start on the first push, after
/// the restore.
std::unique_ptr<pipeline::IngestPipeline> make_pipeline_on(
    unsigned cpus, const Scenario& sc, const pipeline::IngestConfig& cfg) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  const bool narrow =
      cpus != 0 && sched_getaffinity(0, sizeof saved, &saved) == 0;
  if (narrow) {
    cpu_set_t subset;
    CPU_ZERO(&subset);
    unsigned taken = 0;
    for (int c = 0; c < CPU_SETSIZE && taken < cpus; ++c) {
      if (CPU_ISSET(c, &saved)) {
        CPU_SET(c, &subset);
        ++taken;
      }
    }
    EXPECT_EQ(sched_setaffinity(0, sizeof subset, &subset), 0);
  }
  auto pipe = std::make_unique<pipeline::IngestPipeline>(sc.rules.hitlist,
                                                         sc.rules, cfg);
  if (narrow) {
    EXPECT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
  }
  return pipe;
}

TEST_P(DifferentialTest, WireStreamMatchesRecordAtATimeReference) {
  const Scenario sc = make_scenario(GetParam());

  const WireImpairment impairments[] = {
      {.name = "clean", .link = {.seed = 1}},
      // Heavy loss + reordering with frequent template re-announcement:
      // data flowsets routinely outrun or outlive their template, so the
      // compiled-plan park-and-recover path fires.
      {.name = "template_loss",
       .link = {.seed = 2, .drop = 0.2, .reorder = 0.3, .reorder_hold = 4},
       .template_refresh = 3},
      {.name = "dup_reorder",
       .link = {.seed = 3, .duplicate = 0.25, .reorder = 0.25,
                .reorder_hold = 3}},
      {.name = "layout_change", .link = {.seed = 4}, .layout_every = 4},
  };
  const WireCodec codecs[] = {WireCodec::kNetflowV9, WireCodec::kIpfix};

  // Body-worker counts 1, 2 and the default (usable CPUs − 1), each chosen
  // by the CPU budget the pipeline is constructed under (0 = unchanged).
  const unsigned usable = util::usable_cpus();
  std::vector<unsigned> cpu_budgets{0};
  for (const unsigned workers : {1u, 2u}) {
    if (workers + 1 < usable) cpu_budgets.push_back(workers + 1);
  }
  const std::size_t default_capacity = pipeline::IngestConfig{}.queue_capacity;

  for (const auto codec : codecs) {
    for (const auto& imp : impairments) {
      const auto stream = make_wire_stream(sc, codec, imp);
      const std::uint64_t key = 0x68617973;  // IngestConfig default
      const auto ref = run_wire_reference(sc, codec, stream, key);

      for (const unsigned shards : {1u, 4u, 16u}) {
        for (const std::size_t capacity : {default_capacity, std::size_t{1}}) {
          for (const unsigned budget : cpu_budgets) {
            pipeline::IngestConfig cfg;
            cfg.shards = shards;
            cfg.queue_capacity = capacity;
            cfg.detector = sc.config;
            cfg.anonymization_key = key;
            const auto pipe = make_pipeline_on(budget, sc, cfg);
            for (const auto& datagram : stream) {
              auto copy = datagram.bytes;
              ASSERT_TRUE(pipe->push_datagram(std::move(copy), datagram.hour));
            }
            pipe->drain();

            const auto st = pipe->stats();
            const unsigned workers =
                std::max(1u, (budget == 0 ? usable : budget) - 1);
            const auto label =
                std::string{imp.name} + " codec=" +
                (codec == WireCodec::kNetflowV9 ? "v9" : "ipfix") +
                " shards=" + std::to_string(shards) +
                " capacity=" + std::to_string(capacity) +
                " body_workers=" + std::to_string(workers);
            // One body queue per worker, each bounded to the batches the
            // decode queue's datagrams can form.
            EXPECT_EQ(st.decode_body.capacity,
                      workers * std::max<std::size_t>(
                                    1, capacity / cfg.max_wave))
                << label;
            EXPECT_EQ(snapshot(pipe->detector()), ref.rows) << label;
            EXPECT_EQ(pipe->detector().stats().flows, ref.flows) << label;
            EXPECT_EQ(st.malformed_datagrams, ref.malformed) << label;
            // Park-and-recover must behave identically under compiled
            // plans.
            EXPECT_EQ(st.decode_recovered_records, ref.recovered_records)
                << label;
            const auto check = pipe->self_check();
            EXPECT_TRUE(check.ok) << label << ": " << check.detail;
          }
        }
      }
    }
  }
}

// The template-loss scenario must actually exercise recovery for at least
// one seed/codec — otherwise the sweep above could be vacuous. Seeded, so
// this is deterministic.
TEST(WireDifferentialCoverage, TemplateLossScenarioRecoversRecords) {
  const Scenario sc = make_scenario(3);
  const WireImpairment imp{
      .name = "template_loss",
      .link = {.seed = 2, .drop = 0.2, .reorder = 0.3, .reorder_hold = 4},
      .template_refresh = 3};
  std::uint64_t recovered = 0;
  for (const auto codec : {WireCodec::kNetflowV9, WireCodec::kIpfix}) {
    const auto stream = make_wire_stream(sc, codec, imp);
    recovered +=
        run_wire_reference(sc, codec, stream, 0x68617973).recovered_records;
  }
  EXPECT_GT(recovered, 0u);
}

}  // namespace
}  // namespace haystack::core
