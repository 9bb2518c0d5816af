#include "flow/flow_cache.hpp"

#include <algorithm>

namespace haystack::flow {

void FlowCache::add(const PacketEvent& packet, std::vector<FlowRecord>& out) {
  // Opportunistic sweep at most once per idle timeout to bound cost.
  if (packet.timestamp_ms >= last_sweep_ms_ + config_.idle_timeout_ms) {
    flush_expired(packet.timestamp_ms, out);
    last_sweep_ms_ = packet.timestamp_ms;
  }

  auto [it, inserted] = cache_.try_emplace(packet.key);
  if (inserted) {
    if (cache_.size() > config_.max_entries) {
      // Emergency expiry: flush everything but the new entry. Real routers
      // evict aggressively under pressure; total order is unimportant here.
      // The kept entry is copied out *before* the wholesale flush so the
      // re-emplace below never reads freed cache memory.
      Entry kept = it->second;
      FlowKey kept_key = it->first;
      cache_.erase(it);
      flush_all(out);
      ++emergency_expiries_;
      it = cache_.try_emplace(kept_key, kept).first;
    }
    FlowRecord& fresh = it->second.record;
    fresh.key = packet.key;
    fresh.start_ms = packet.timestamp_ms;
  }
  FlowRecord& cur = it->second.record;
  cur.packets += 1;
  cur.bytes += packet.bytes;
  cur.tcp_flags |= packet.tcp_flags;
  cur.end_ms = std::max(cur.end_ms, packet.timestamp_ms);

  // Active timeout: export the flow if it has lived too long.
  if (cur.end_ms - cur.start_ms >= config_.active_timeout_ms) {
    out.push_back(cur);
    cache_.erase(it);
  }
}

void FlowCache::flush_expired(std::uint64_t now_ms,
                              std::vector<FlowRecord>& out) {
  for (auto it = cache_.begin(); it != cache_.end();) {
    const FlowRecord& rec = it->second.record;
    const bool idle_expired =
        now_ms >= rec.end_ms && now_ms - rec.end_ms >= config_.idle_timeout_ms;
    const bool active_expired =
        rec.end_ms - rec.start_ms >= config_.active_timeout_ms;
    if (idle_expired || active_expired) {
      out.push_back(rec);
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
}

void FlowCache::flush_all(std::vector<FlowRecord>& out) {
  for (auto& [key, entry] : cache_) out.push_back(entry.record);
  cache_.clear();
}

}  // namespace haystack::flow
