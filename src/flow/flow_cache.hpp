// Flow cache: aggregates per-packet observations into flow records with
// active/idle timeout expiry, as a router's metering process does
// (RFC 3954 §2, RFC 7011 terminology: metering process + expiry).
//
// The Home-VP pipeline uses this to turn simulated packet events into the
// unsampled ground-truth flows; the exporter tests drive it with synthetic
// packet streams.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "flow/record.hpp"

namespace haystack::flow {

/// One observed packet (already past any packet sampling stage).
struct PacketEvent {
  FlowKey key;
  std::uint32_t bytes = 0;
  std::uint8_t tcp_flags = 0;
  std::uint64_t timestamp_ms = 0;
};

/// Cache configuration. Defaults mirror common router settings.
struct FlowCacheConfig {
  std::uint64_t active_timeout_ms = 60'000;   ///< export long-lived flows
  std::uint64_t idle_timeout_ms = 15'000;     ///< expire silent flows
  std::size_t max_entries = 1 << 20;          ///< emergency expiry bound
};

/// Packet-to-flow aggregation with timeout-driven expiry.
///
/// Call add() per packet (monotonically non-decreasing timestamps expected;
/// reordering within the idle timeout is tolerated) and flush_all() at end
/// of input. add() sweeps out idle and active-expired flows itself, at most
/// once per idle timeout.
class FlowCache {
 public:
  explicit FlowCache(FlowCacheConfig config) : config_{config} {}

  /// Ingests one packet. Any records expired by this packet's timestamp are
  /// appended to `out`.
  void add(const PacketEvent& packet, std::vector<FlowRecord>& out);

  /// Expires everything unconditionally.
  void flush_all(std::vector<FlowRecord>& out);

  [[nodiscard]] std::size_t active_flows() const noexcept {
    return cache_.size();
  }

  /// Times the cache hit max_entries and flushed wholesale. A nonzero
  /// value means max_entries is undersized for the traffic mix. No metric
  /// or flight event carries it; callers read it here.
  [[nodiscard]] std::uint64_t emergency_expiries() const noexcept {
    return emergency_expiries_;
  }

 private:
  struct Entry {
    FlowRecord record;
  };

  /// Expires every flow idle or active beyond its timeout at `now_ms`.
  void flush_expired(std::uint64_t now_ms, std::vector<FlowRecord>& out);

  FlowCacheConfig config_;
  std::unordered_map<FlowKey, Entry> cache_;
  std::uint64_t last_sweep_ms_ = 0;
  std::uint64_t emergency_expiries_ = 0;
};

}  // namespace haystack::flow
