// Concurrency stress/soak suite for the streaming pipeline (ISSUE 3):
// producer/consumer interleavings over the bounded queues, blocking
// backpressure on full queues, shutdown mid-stream, stop-then-refuse,
// and the ShardedDetector::observe-concurrent-with-process_batch
// regression. Runs under `ctest -L stress`, and under TSan via
// tests/run_sanitizers.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <latch>
#include <thread>
#include <tuple>
#include <vector>

#include "core/detector.hpp"
#include "core/sharded_detector.hpp"
#include "flow/netflow_v9.hpp"
#include "pipeline/bounded_queue.hpp"
#include "pipeline/ingest.hpp"
#include "pipeline/shard_pool.hpp"
#include "simnet/backend.hpp"
#include "simnet/manual_analysis.hpp"
#include "simnet/population.hpp"
#include "simnet/wild_isp.hpp"
#include "util/cpus.hpp"

namespace haystack::pipeline {
namespace {

TEST(BoundedQueueStress, BackpressureUnderContention) {
  // Four producers hammer a tiny queue; a slow-ish consumer drains it.
  // Every item must arrive, and the tiny capacity must actually have
  // stalled producers (otherwise the test exercises nothing).
  constexpr unsigned kProducers = 4;
  constexpr std::uint64_t kPerProducer = 2000;
  BoundedQueue<std::uint64_t> queue{4};

  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push((std::uint64_t{p} << 32) | i));
      }
    });
  }
  std::uint64_t received = 0;
  std::uint64_t sum = 0;
  while (received < kProducers * kPerProducer) {
    const auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    sum += *item & 0xffffffffu;
    ++received;
  }
  for (auto& t : producers) t.join();

  EXPECT_EQ(received, kProducers * kPerProducer);
  EXPECT_EQ(sum, kProducers * (kPerProducer * (kPerProducer - 1) / 2));
  const auto stats = queue.stats();
  EXPECT_EQ(stats.enqueued, kProducers * kPerProducer);
  EXPECT_EQ(stats.dequeued, kProducers * kPerProducer);
  EXPECT_GT(stats.producer_stalls, 0u);
  EXPECT_LE(stats.max_depth, queue.capacity());
}

TEST(BoundedQueueStress, CloseMidStreamDrainsWithoutDeadlock) {
  // close() while producers are blocked on a full queue: everyone must
  // wake, refused pushes must report false, and the consumer must still
  // drain every item that was accepted — enqueued == dequeued, no loss.
  BoundedQueue<int> queue{2};
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 10'000; ++i) {
        if (!queue.push(i)) return;  // closed under us
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::uint64_t drained = 0;
  std::vector<int> wave;
  for (int rounds = 0; rounds < 50; ++rounds) {
    wave.clear();
    drained += queue.pop_wave(wave, 16);
  }
  queue.close();
  for (;;) {
    wave.clear();
    const std::size_t n = queue.pop_wave(wave, 16);
    if (n == 0) break;
    drained += n;
  }
  for (auto& t : producers) t.join();

  // A push may have been counted as accepted concurrently with the final
  // drain only if it landed in the queue, so totals must reconcile.
  EXPECT_EQ(drained, accepted.load());
  const auto stats = queue.stats();
  EXPECT_EQ(stats.enqueued, stats.dequeued);
  EXPECT_FALSE(queue.push(1));  // stays closed
}

TEST(ShardPoolStress, DrainIsAQuiescenceBarrier) {
  constexpr unsigned kShards = 4;
  std::array<std::atomic<std::uint64_t>, kShards> handled{};
  ShardPool<std::uint64_t> pool{
      {.shards = kShards, .queue_capacity = 8, .max_wave = 16},
      [&](unsigned shard, std::vector<std::uint64_t>& wave) {
        handled[shard].fetch_add(wave.size(), std::memory_order_relaxed);
      }};

  std::vector<std::thread> producers;
  std::atomic<std::uint64_t> submitted{0};
  for (unsigned p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < 4000; ++i) {
        ASSERT_TRUE(pool.submit((p + i) % kShards, i));
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.drain();
  std::uint64_t total = 0;
  for (const auto& h : handled) total += h.load();
  EXPECT_EQ(total, submitted.load());
  EXPECT_EQ(total, 3u * 4000u);
  // Idle drain returns immediately.
  pool.drain();
  pool.drain();
}

TEST(ShardPoolStress, StopDrainsThenRefuses) {
  std::atomic<std::uint64_t> handled{0};
  ShardPool<int> pool{{.shards = 2, .queue_capacity = 4, .max_wave = 8},
                      [&](unsigned, std::vector<int>& wave) {
                        handled.fetch_add(wave.size(),
                                          std::memory_order_relaxed);
                      }};
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(pool.submit(i % 2, i));
  pool.stop();
  EXPECT_EQ(handled.load(), 100u);       // stop() drains pending items
  EXPECT_FALSE(pool.submit(0, 1));       // refused while stopped

  pool.start();                          // a stopped pool does not restart
  EXPECT_FALSE(pool.submit(1, 2));
  pool.drain();                          // nothing pending: returns at once
  EXPECT_EQ(handled.load(), 100u);
  const auto stats = pool.stats_total();
  EXPECT_EQ(stats.enqueued, 100u);
  EXPECT_EQ(stats.dequeued, 100u);
}

class PipelineStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new simnet::Catalog();
    backend_ = new simnet::Backend(*catalog_, simnet::BackendConfig{});
    rules_ = new core::RuleSet(simnet::build_ruleset(*backend_));

    simnet::Population population{*catalog_, {.lines = 5'000}};
    simnet::DomainRateModel rates{*catalog_, 7};
    simnet::WildIspSim wild{*backend_, population, rates,
                            simnet::WildIspConfig{}};
    batch_ = new std::vector<core::Observation>();
    for (util::HourBin h = 0; h < 6; ++h) {
      wild.hour_observations(h, [&](const simnet::WildObs& o) {
        batch_->push_back({o.line, o.flow.key.dst, o.flow.key.dst_port,
                           o.flow.packets, h});
      });
    }
    ASSERT_GT(batch_->size(), 1000u);
  }
  static void TearDownTestSuite() {
    delete batch_;
    delete rules_;
    delete backend_;
    delete catalog_;
  }

  static simnet::Catalog* catalog_;
  static simnet::Backend* backend_;
  static core::RuleSet* rules_;
  static std::vector<core::Observation>* batch_;
};

simnet::Catalog* PipelineStressTest::catalog_ = nullptr;
simnet::Backend* PipelineStressTest::backend_ = nullptr;
core::RuleSet* PipelineStressTest::rules_ = nullptr;
std::vector<core::Observation>* PipelineStressTest::batch_ = nullptr;

using EvidenceRow =
    std::tuple<core::SubscriberKey, core::ServiceId, std::uint64_t,
               std::uint64_t, std::uint16_t, std::uint64_t, util::HourBin,
               util::HourBin>;

template <typename DetectorT>
std::vector<EvidenceRow> snapshot(const DetectorT& det) {
  std::vector<EvidenceRow> rows;
  det.for_each_evidence([&](core::SubscriberKey s, core::ServiceId sv,
                            const core::Evidence& ev) {
    rows.emplace_back(s, sv, ev.mask(0), ev.mask(1), ev.distinct(), ev.packets(),
                      ev.first_seen(), ev.satisfied_hour());
  });
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Regression (ISSUE 3 satellite): observe() used to mutate shard state on
// the calling thread, racing with process_batch workers. It now routes
// through the owning shard's queue, so concurrent producers with disjoint
// subscriber spaces plus a batching main thread must land in exactly the
// state of a sequential replay.
TEST_F(PipelineStressTest, ShardedDetectorConcurrentObserveAndBatch) {
  constexpr unsigned kProducers = 3;
  // Disjoint subscriber spaces: producer p streams subscribers where
  // line % (kProducers + 1) == p; the main thread batches the rest.
  std::vector<std::vector<core::Observation>> streams(kProducers);
  std::vector<core::Observation> main_batch;
  for (const auto& obs : *batch_) {
    const auto lane = obs.subscriber % (kProducers + 1);
    if (lane < kProducers) {
      streams[lane].push_back(obs);
    } else {
      main_batch.push_back(obs);
    }
  }

  core::ShardedDetector det{rules_->hitlist, *rules_, {.threshold = 0.4}, 4,
                            /*queue_capacity=*/8};
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&det, &streams, p] {
      for (const auto& obs : streams[p]) det.observe(obs);
    });
  }
  // Concurrent batching through the same pool, tiny queues → real
  // backpressure interleavings.
  const std::size_t half = main_batch.size() / 2;
  det.process_batch(std::span{main_batch}.first(half));
  det.process_batch(std::span{main_batch}.subspan(half));
  for (auto& t : producers) t.join();

  EXPECT_EQ(det.stats().flows, batch_->size());

  // Sequential reference: same per-producer streams, one after another.
  core::ShardedDetector ref{rules_->hitlist, *rules_, {.threshold = 0.4}, 1};
  for (const auto& stream : streams) {
    for (const auto& obs : stream) ref.observe(obs);
  }
  ref.process_batch(main_batch);
  EXPECT_EQ(snapshot(det), snapshot(ref));
}

TEST_F(PipelineStressTest, IngestShutdownMidStreamNoDeadlock) {
  IngestConfig cfg;
  cfg.shards = 2;
  cfg.queue_capacity = 4;  // tiny: shutdown lands while producers block
  IngestPipeline pipe{rules_->hitlist, *rules_, cfg};

  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = p; i < batch_->size(); i += 3) {
        if (!pipe.push_observations({(*batch_)[i]})) return;
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Let some traffic through, then pull the plug mid-stream.
  while (accepted.load(std::memory_order_relaxed) < 100) {
    std::this_thread::yield();
  }
  pipe.shutdown();
  for (auto& t : producers) t.join();

  // Everything accepted before the close is in the evidence map; nothing
  // was lost or double-applied. (Acceptance races the close flag, so the
  // detector may hold slightly more than `accepted` saw — never less.)
  const auto flows = pipe.detector().stats().flows;
  EXPECT_GE(flows, 100u);
  EXPECT_GE(flows, accepted.load());
  EXPECT_LE(flows, batch_->size());
  EXPECT_FALSE(pipe.push_observations({(*batch_)[0]}));
  pipe.shutdown();  // idempotent
}

TEST_F(PipelineStressTest, TinyCapacityDatagramSoak) {
  // Full wire path with every queue at capacity 1, lossless end to end.
  // The backpressure is forced rather than left to timing: every shard
  // wave publishes a view, and the first publish holds its shard worker
  // on a latch. That shard's queue then fills, the decode worker blocks
  // on it, the decode queue fills, and the pusher stalls. The latch is
  // released only once the pusher's stall is on the books.
  IngestConfig cfg;
  cfg.shards = 3;
  cfg.queue_capacity = 1;
  cfg.max_wave = 1;
  cfg.snapshots.auto_publish_observations = 1;
  IngestPipeline pipe{rules_->hitlist, *rules_, cfg};
  std::latch release{1};
  std::atomic<bool> held{false};
  pipe.detector().set_publish_hook(
      [&](const core::ShardView*, const core::ShardView&) {
        if (!held.exchange(true)) release.wait();
      });

  // Pushes rounds of 400 records until told to stop. A held shard's
  // coalescing buffer must flush twice more before the decode worker
  // blocks, so the supply (every round reuses the batch) is far larger
  // than the stall needs.
  std::atomic<bool> stop{false};
  std::atomic<bool> pusher_done{false};
  std::uint64_t flows_sent = 0;
  std::uint64_t rejected = 0;
  std::thread pusher([&] {
    flow::nf9::Exporter exporter{{.source_id = 7}};
    std::vector<flow::FlowRecord> records;
    std::size_t next = 0;
    for (std::uint32_t round = 0; round < 2'000 && !stop.load(); ++round) {
      const util::HourBin h = round / 100;
      records.clear();
      for (; records.size() < 400; next = (next + 1) % batch_->size()) {
        const auto& obs = (*batch_)[next];
        flow::FlowRecord rec;
        rec.key.src = net::IpAddress::v4(0x0a000000u |
                                         static_cast<std::uint32_t>(
                                             obs.subscriber & 0xffffffu));
        rec.key.dst = obs.server;
        rec.key.src_port = 40'000;
        rec.key.dst_port = obs.port;
        rec.packets = obs.packets;
        rec.bytes = obs.packets * 64;
        rec.start_ms = h * 3'600'000ULL;
        rec.end_ms = rec.start_ms + 1000;
        rec.sampling = 1;
        records.push_back(rec);
      }
      for (auto& packet :
           exporter.export_flows(records, 1574000000U + h * 3600U)) {
        if (!pipe.push_datagram(std::move(packet), h)) ++rejected;
      }
      flows_sent += records.size();
    }
    pusher_done.store(true);
  });
  while (pipe.stats().decode.producer_stalls == 0 && !pusher_done.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true);
  release.count_down();
  pusher.join();
  EXPECT_EQ(rejected, 0u);

  pipe.drain();
  const auto mid = pipe.stats();
  EXPECT_EQ(mid.flows_decoded, flows_sent);
  pipe.shutdown();

  const auto stats = pipe.stats();
  EXPECT_GT(stats.datagrams, 0u);
  EXPECT_EQ(stats.malformed_datagrams, 0u);
  EXPECT_EQ(stats.flows_decoded, flows_sent);
  EXPECT_EQ(stats.observations, flows_sent);
  EXPECT_EQ(pipe.detector().stats().flows, flows_sent);
  // Capacity-1 queues must have produced real backpressure somewhere.
  EXPECT_GT(stats.decode.producer_stalls + stats.detect.producer_stalls, 0u);
}

TEST_F(PipelineStressTest, IngestOrderedCommitSurvivesDrainAndShutdown) {
  // The body stage's ordered commit under contention: capacity-1 queues,
  // two exporters' datagrams interleaved, drain() racing the pusher from a
  // second thread, then shutdown() while body batches wait for their turn
  // behind a held shard. No deadlock (a watchdog aborts the process),
  // exact flow conservation, and evidence equal to a serial replay of
  // every accepted datagram.
  std::atomic<bool> finished{false};
  std::thread watchdog([&] {
    for (int i = 0; i < 1800 && !finished.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!finished.load()) {
      std::fprintf(stderr, "ordered commit deadlocked\n");
      std::abort();
    }
  });

  struct Wire {
    util::HourBin hour;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Wire> wire;
  flow::nf9::Exporter exporters[] = {flow::nf9::Exporter{{.source_id = 7}},
                                     flow::nf9::Exporter{{.source_id = 8}}};
  std::size_t next = 0;
  for (std::uint32_t round = 0; round < 3200; ++round) {
    const util::HourBin h = round / 400;
    for (auto& exporter : exporters) {
      std::vector<flow::FlowRecord> records;
      for (; records.size() < 48; next = (next + 1) % batch_->size()) {
        const auto& obs = (*batch_)[next];
        flow::FlowRecord rec;
        rec.key.src = net::IpAddress::v4(
            0x0a000000u | static_cast<std::uint32_t>(obs.subscriber & 0xffffu));
        rec.key.dst = obs.server;
        rec.key.src_port = 40'000;
        rec.key.dst_port = obs.port;
        rec.packets = obs.packets;
        rec.bytes = obs.packets * 64;
        rec.start_ms = h * 3'600'000ULL;
        rec.end_ms = rec.start_ms + 1000;
        records.push_back(rec);
      }
      for (auto& packet :
           exporter.export_flows(records, 1574000000U + h * 3600U)) {
        wire.push_back({h, std::move(packet)});
      }
    }
  }

  IngestConfig cfg;
  cfg.shards = 3;
  cfg.queue_capacity = 1;
  cfg.snapshots.auto_publish_observations = 1;
  IngestPipeline pipe{rules_->hitlist, *rules_, cfg};
  std::latch release{1};
  std::atomic<bool> armed{false};
  std::atomic<bool> held{false};
  pipe.detector().set_publish_hook(
      [&](const core::ShardView*, const core::ShardView&) {
        if (armed.load() && !held.exchange(true)) release.wait();
      });

  // Pushes wire[from, to); stops at the first refusal, which leaves the
  // accepted datagrams a prefix of `wire`.
  std::atomic<std::size_t> accepted{0};
  auto push_range = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      auto bytes = wire[i].bytes;
      if (!pipe.push_datagram(std::move(bytes), wire[i].hour)) return;
      accepted.store(i + 1);
    }
  };

  // Phase 1: drain() from a second thread while the first datagrams go in.
  const std::size_t phase1 = 800;
  std::atomic<bool> pushed{false};
  std::thread drainer([&] {
    while (!pushed.load()) pipe.drain();
  });
  push_range(0, phase1);
  pushed.store(true);
  drainer.join();
  ASSERT_EQ(accepted.load(), phase1);

  // Phase 2: hold a shard worker. Behind it the commit stops, the body
  // queues fill and the header pass blocks on them; then shut down while
  // body batches wait for their turn. The rest of the supply (~288 k
  // flows) is far more than the shards' coalescing buffers can absorb
  // first; the pusher stops at the refusal shutdown() causes.
  armed.store(true);
  std::atomic<bool> pusher_done{false};
  std::thread pusher([&] {
    push_range(phase1, wire.size());
    pusher_done.store(true);
  });
  auto wait_for = [&](const auto& done) {
    while (!done() && !pusher_done.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  wait_for([&] { return held.load(); });
  const std::uint64_t body_stalls = pipe.stats().decode_body.producer_stalls;
  wait_for([&] {
    return pipe.stats().decode_body.producer_stalls != body_stalls;
  });
  const bool backed_up = !pusher_done.load();
  std::thread closer([&] { pipe.shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.count_down();
  closer.join();
  pusher.join();
  finished.store(true);
  watchdog.join();
  EXPECT_TRUE(backed_up) << "the pusher finished before the held commit "
                            "backed up the body queues";

  // Serial replay of the accepted prefix: record-at-a-time decode with the
  // decode stage's dedup window, the stock normalizer, one flat detector.
  flow::nf9::Collector collector{
      flow::nf9::CollectorConfig{.dedup_window = cfg.dedup_window}};
  const auto normalize = default_normalizer(cfg.anonymization_key);
  core::Detector reference{rules_->hitlist, *rules_, cfg.detector};
  std::uint64_t flows = 0;
  std::vector<flow::FlowRecord> records;
  for (std::size_t i = 0; i < accepted.load(); ++i) {
    records.clear();
    ASSERT_TRUE(collector.ingest(wire[i].bytes, records));
    for (const auto& rec : records) {
      const auto obs = normalize(rec, wire[i].hour);
      ASSERT_TRUE(obs.has_value());
      reference.observe(obs->subscriber, obs->server, obs->port,
                        obs->packets, obs->hour);
      ++flows;
    }
  }
  const auto stats = pipe.stats();
  EXPECT_EQ(stats.datagrams, accepted.load());
  EXPECT_EQ(stats.malformed_datagrams, 0u);
  EXPECT_EQ(stats.flows_decoded, flows);
  EXPECT_EQ(stats.observations, flows);
  EXPECT_EQ(pipe.detector().stats().flows, flows);
  EXPECT_EQ(snapshot(pipe.detector()), snapshot(reference));
  const auto check = pipe.self_check();
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST_F(PipelineStressTest, IngestConcurrentPushFlowsMatchesSerialReplay) {
  // push_flows normalizes on its caller's thread, so the normalizer, the
  // rule-version pin and the shard enqueue run on every producer at once.
  // Four producers with disjoint subscribers push hour-ordered chunks into
  // tiny shard queues; the evidence must equal a serial Detector fed the
  // same observations, with the stock normalizer and with a custom one
  // that drops a marked subset.
  constexpr unsigned kProducers = 4;
  constexpr std::size_t kChunk = 64;
  struct Chunk {
    util::HourBin hour;
    std::vector<flow::FlowRecord> flows;
  };
  std::vector<std::vector<Chunk>> lanes(kProducers);
  std::uint64_t total = 0;
  std::uint64_t marked = 0;
  for (const auto& obs : *batch_) {  // hour-ordered
    auto& lane = lanes[obs.subscriber % kProducers];
    if (lane.empty() || lane.back().hour != obs.hour ||
        lane.back().flows.size() == kChunk) {
      lane.push_back({obs.hour, {}});
    }
    flow::FlowRecord rec;
    rec.key.src = net::IpAddress::v4(
        0x0a000000u | static_cast<std::uint32_t>(obs.subscriber & 0xffffffu));
    rec.key.dst = obs.server;
    rec.key.src_port = total % 7 == 3 ? 9999 : 40'000;
    rec.key.dst_port = obs.port;
    rec.packets = obs.packets;
    if (rec.key.src_port == 9999) ++marked;
    lane.back().flows.push_back(rec);
    ++total;
  }
  ASSERT_GT(marked, 0u);

  const Normalizer stock = default_normalizer(IngestConfig{}.anonymization_key);
  const Normalizer drop_marked =
      [stock](const flow::FlowRecord& rec,
              util::HourBin hour) -> std::optional<core::Observation> {
    if (rec.key.src_port == 9999) return std::nullopt;
    return stock(rec, hour);
  };
  for (const bool custom : {false, true}) {
    SCOPED_TRACE(custom ? "custom normalizer" : "stock normalizer");
    IngestConfig cfg;
    cfg.shards = 3;
    cfg.queue_capacity = 2;
    IngestPipeline pipe{rules_->hitlist, *rules_, cfg,
                        custom ? drop_marked : Normalizer{}};
    std::latch go{kProducers};
    std::vector<std::thread> producers;
    for (unsigned p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        go.arrive_and_wait();
        for (const Chunk& chunk : lanes[p]) {
          EXPECT_TRUE(pipe.push_flows(chunk.flows, chunk.hour));
        }
      });
    }
    for (auto& t : producers) t.join();
    pipe.drain();

    // Serial replay: lane by lane, through the same normalizer.
    const Normalizer& normalize = custom ? drop_marked : stock;
    core::Detector reference{rules_->hitlist, *rules_, cfg.detector};
    std::uint64_t dropped = 0;
    for (const auto& lane : lanes) {
      for (const Chunk& chunk : lane) {
        for (const auto& rec : chunk.flows) {
          if (const auto obs = normalize(rec, chunk.hour)) {
            reference.observe(obs->subscriber, obs->server, obs->port,
                              obs->packets, obs->hour);
          } else {
            ++dropped;
          }
        }
      }
    }
    EXPECT_EQ(dropped, custom ? marked : 0u);
    const auto stats = pipe.stats();
    EXPECT_EQ(stats.flows_in, total);
    EXPECT_EQ(stats.dropped_direction, dropped);
    EXPECT_EQ(stats.observations, total - dropped);
    EXPECT_EQ(pipe.detector().stats().flows, total - dropped);
    const auto check = pipe.self_check();
    EXPECT_TRUE(check.ok) << check.detail;
    const auto expected = snapshot(reference);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(snapshot(pipe.detector()), expected);
  }
}

// ---------------------------------------------------------------------------
// Stage threads start on first use: a pipeline pays only for the intake
// paths it is fed. Counted from /proc/self/task.

std::size_t process_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Polls until the process runs `want` threads: a joined thread can stay
/// listed under /proc for a moment after join() returns.
bool threads_settle_at(std::size_t want) {
  for (int i = 0; i < 400; ++i) {
    if (process_threads() == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return process_threads() == want;
}

core::RuleSet one_service_rules() {
  core::RuleSet rules;
  core::DetectionRule rule;
  rule.service = 1;
  rule.name = "svc";
  rule.monitored_domains = 2;
  rule.monitored_indices = {0, 1};
  rules.rules.push_back(std::move(rule));
  for (std::uint16_t m = 0; m < 2; ++m) {
    rules.hitlist.add(net::IpAddress::v4(0x0a010000U + m), 443, 0, {1, m});
  }
  return rules;
}

/// One exporter's datagrams carrying `n` flows to the rule's servers.
std::vector<std::vector<std::uint8_t>> lazy_start_datagrams(
    std::uint32_t source_id, std::uint32_t n) {
  std::vector<flow::FlowRecord> records;
  for (std::uint32_t i = 0; i < n; ++i) {
    flow::FlowRecord rec;
    rec.key.src = net::IpAddress::v4(0x0a800000U + i % 16);
    rec.key.dst = net::IpAddress::v4(0x0a010000U + i % 2);
    rec.key.dst_port = 443;
    rec.packets = 1;
    records.push_back(rec);
  }
  flow::nf9::Exporter exporter{{.source_id = source_id}};
  return exporter.export_flows(records, 1574000000U);
}

TEST(IngestLazyStart, StageThreadsStartOnFirstUse) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "needs /proc/self/task";
  }
  const auto rules = one_service_rules();
  // A sanitizer runtime may start a helper thread at the process's first
  // thread creation; create one first so the baseline already counts it,
  // and let the joined thread leave /proc.
  std::thread{[] {}}.join();
  std::size_t base = process_threads();
  for (int i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    base = std::min(base, process_threads());
  }
  const unsigned body_workers = std::max(1u, util::usable_cpus() - 1);
  IngestConfig cfg;
  cfg.shards = 2;
  {
    IngestPipeline pipe{rules.hitlist, rules, cfg};
    // The shard workers start with the detector; barriers and reads on an
    // idle pipeline start nothing else.
    pipe.drain();
    EXPECT_TRUE(pipe.self_check().ok);
    EXPECT_EQ(pipe.stats().decode_body.enqueued, 0u);
    EXPECT_TRUE(threads_settle_at(base + cfg.shards))
        << process_threads() << " threads, " << base << " before";

    // Observation intake runs only the shard workers.
    ASSERT_TRUE(pipe.push_observations(
        {{.subscriber = 1, .server = net::IpAddress::v4(0x0a010000U),
          .port = 443, .packets = 1, .hour = 0}}));
    pipe.drain();
    EXPECT_TRUE(threads_settle_at(base + cfg.shards))
        << process_threads() << " threads, " << base << " before";

    // Flow intake normalizes on the caller's thread: still no new thread.
    flow::FlowRecord rec;
    rec.key.src = net::IpAddress::v4(0x0a800001U);
    rec.key.dst = net::IpAddress::v4(0x0a010001U);
    rec.key.dst_port = 443;
    rec.packets = 1;
    ASSERT_TRUE(pipe.push_flows({rec, rec}, 0));
    pipe.drain();
    EXPECT_EQ(pipe.stats().flows_in, 2u);
    EXPECT_TRUE(threads_settle_at(base + cfg.shards))
        << process_threads() << " threads, " << base << " before";

    // The first datagram starts the header pass and the body workers.
    for (auto& datagram : lazy_start_datagrams(7, 100)) {
      ASSERT_TRUE(pipe.push_datagram(std::move(datagram), 0));
    }
    pipe.drain();
    EXPECT_TRUE(threads_settle_at(base + cfg.shards + 1 + body_workers))
        << process_threads() << " threads, " << base << " before";
    EXPECT_EQ(pipe.stats().flows_decoded, 100u);
    const auto check = pipe.self_check();
    EXPECT_TRUE(check.ok) << check.detail;
  }
  EXPECT_TRUE(threads_settle_at(base));
}

TEST(IngestLazyStart, RacingFirstDatagramPushesBothSucceed) {
  const auto rules = one_service_rules();
  IngestConfig cfg;
  cfg.shards = 2;
  IngestPipeline pipe{rules.hitlist, rules, cfg};
  const auto first = lazy_start_datagrams(7, 200);
  const auto second = lazy_start_datagrams(8, 200);
  std::latch go{3};
  std::atomic<std::size_t> accepted{0};
  auto pusher = [&](const std::vector<std::vector<std::uint8_t>>& wire) {
    go.arrive_and_wait();
    for (const auto& datagram : wire) {
      if (pipe.push_datagram(datagram, 0)) accepted.fetch_add(1);
    }
  };
  std::thread a{pusher, std::cref(first)};
  std::thread b{pusher, std::cref(second)};
  go.arrive_and_wait();
  a.join();
  b.join();
  EXPECT_EQ(accepted.load(), first.size() + second.size());
  pipe.drain();
  const auto stats = pipe.stats();
  EXPECT_EQ(stats.datagrams, first.size() + second.size());
  EXPECT_EQ(stats.flows_decoded, 400u);
  EXPECT_EQ(pipe.detector().stats().flows, 400u);
  const auto check = pipe.self_check();
  EXPECT_TRUE(check.ok) << check.detail;
}

// ---------------------------------------------------------------------------
// ISSUE 6 satellite 2: intern-table concurrency. intern() and
// find()/name() may race from any number of threads; handles handed out
// must be dense, stable, and agreed-on by every thread. Under
// HAYSTACK_SANITIZE=thread this is the designated intern-vs-lookup
// workload.
TEST(InternTableStress, ConcurrentInternAndLookupAgree) {
  core::InternTable table;
  constexpr unsigned kThreads = 4;
  // Prime, so every per-thread odd stride below is coprime with it and
  // each thread visits the full name universe.
  constexpr std::uint32_t kNames = 2999;

  const auto name_of = [](std::uint32_t i) {
    return "domain-" + std::to_string(i) + ".example";
  };

  // Each thread interns the same universe in a different order while also
  // looking up names other threads may be mid-intern on; every thread
  // records the handle it observed for each name.
  std::vector<std::vector<std::uint32_t>> seen(
      kThreads, std::vector<std::uint32_t>(kNames, core::InternTable::kInvalid));
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kNames; ++i) {
        // Stride by a per-thread odd step so threads collide on names
        // mid-intern rather than marching in lockstep.
        const std::uint32_t idx =
            (i * (2 * t + 3) + t * 101) % kNames;
        const std::string n = name_of(idx);
        const std::uint32_t h = table.intern(n);
        seen[t][idx] = h;
        // Lookup of a possibly-concurrent intern: either absent or the
        // same handle every other thread gets; name() must round-trip.
        const std::uint32_t found = table.find(name_of((idx + 1) % kNames));
        if (found != core::InternTable::kInvalid) {
          EXPECT_EQ(table.name(found), name_of((idx + 1) % kNames));
        }
        EXPECT_EQ(table.name(h), n);
      }
    });
  }
  for (auto& th : threads) th.join();

  ASSERT_EQ(table.size(), kNames);
  for (std::uint32_t i = 0; i < kNames; ++i) {
    const std::uint32_t h = table.find(name_of(i));
    ASSERT_NE(h, core::InternTable::kInvalid);
    ASSERT_LT(h, kNames);
    for (unsigned t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][i], h) << "thread " << t << " name " << i;
    }
  }
}

}  // namespace
}  // namespace haystack::pipeline
