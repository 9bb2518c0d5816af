// Wild subscriber population of the ISP (paper Sec. 6.2).
//
// Models N broadband subscriber lines. Each line owns a set of IoT devices
// drawn from the catalog's per-product penetration rates, plus "virtual"
// devices representing third-party hardware that integrates a platform the
// testbed covers (the Alexa-in-a-fridge case — DetectionUnit::
// wild_extra_penetration). Ownership, addressing, and identifier churn are
// all deterministic functions of (seed, line), so any slice of the
// population can be regenerated independently.
//
// Nothing is materialized per line. Ownership is regenerated on demand in
// blocks of kBlockLines lines, held in a small LRU cache of immutable
// shared blocks (DESIGN.md §12): the paper's 15 M-line ISP (Sec. 6,
// Fig. 11) costs O(cache_blocks · kBlockLines) memory regardless of N,
// while populations up to cache_blocks · kBlockLines lines (256 k at the
// defaults — larger than every pre-scale workload) stay fully resident and
// behave exactly like the old materialized CSR. Streaming consumers use
// for_each_active_line (all blocks in order) or for_each_active_line_in_block
// (one block, for block-parallel consumers); every walked block goes through
// the LRU, so a walk over more blocks than the cache holds rebuilds them all.
//
// Addressing model: each line lives in a regional pool of four /24s shared
// with 63 neighbours. Identifier rotation (router reboots, daily
// re-assignment) moves the line to a different address within its pool,
// which is exactly the effect Fig. 13 smooths by aggregating at /24 level.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "net/ip_address.hpp"
#include "simnet/catalog.hpp"
#include "util/sim_clock.hpp"

namespace haystack::simnet {

/// Subscriber line index.
using LineId = std::uint32_t;

/// One device owned by a line.
struct OwnedDevice {
  /// Product, or nullopt for a virtual wild-extra device of `unit`.
  std::optional<ProductId> product;
  /// The device's own detection unit (ancestors implied).
  UnitId unit = 0;
};

/// Population tunables.
struct PopulationConfig {
  std::uint64_t seed = 99;
  std::uint32_t lines = 200'000;
  /// Per-day probability that a line's identifier rotates (router reboot,
  /// re-assignment; the ISP's churn is "pretty low", Sec. 6.2).
  double daily_rotation_probability = 0.03;
  /// Fraction of lines with IPv6 connectivity.
  double dual_stack_fraction = 0.35;
  /// Ownership-block LRU capacity. Blocks cover kBlockLines lines each, so
  /// the default keeps 64 · 4096 = 262 144 lines hot — every pre-scale
  /// workload fits entirely; a 15 M-line sweep cycles blocks in bounded
  /// memory.
  std::uint32_t cache_blocks = 64;
};

/// The (lazily generated) population.
class Population {
 public:
  /// Lines per ownership block; one deterministic regeneration unit.
  static constexpr std::uint32_t kBlockLines = 4096;

  Population(const Catalog& catalog, const PopulationConfig& config);

  [[nodiscard]] std::uint32_t line_count() const noexcept {
    return config_.lines;
  }

  /// Devices owned by a line (possibly empty). The span stays valid until
  /// the calling thread's next devices_of / for_each_active_line call on
  /// this Population (the thread pins the backing block; streaming callers
  /// should prefer for_each_active_line).
  [[nodiscard]] std::span<const OwnedDevice> devices_of(LineId line) const;

  using ActiveLineFn =
      std::function<void(LineId, std::span<const OwnedDevice>)>;

  /// Streams every line owning at least one device, ascending, with its
  /// devices. The span is valid only during the callback.
  void for_each_active_line(const ActiveLineFn& fn) const;

  /// Number of ownership blocks: ceil(line_count() / kBlockLines).
  [[nodiscard]] std::uint32_t block_count() const noexcept {
    return (config_.lines + kBlockLines - 1) / kBlockLines;
  }

  /// for_each_active_line restricted to block `index` (lines
  /// [index · kBlockLines, (index + 1) · kBlockLines)). Safe to call from
  /// several threads at once, for the same or different blocks.
  void for_each_active_line_in_block(std::uint32_t index,
                                     const ActiveLineFn& fn) const;

  /// Ownership-block cache counters since construction. `builds` counts
  /// every regeneration (a miss); two threads missing the same block at
  /// once both build it, and the first insert wins.
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t builds = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] CacheStats cache_stats() const noexcept;

  /// Number of lines owning at least one device (computed on first use via
  /// one streaming pass, then cached).
  [[nodiscard]] std::uint64_t active_line_count() const;

  /// The subscriber address (identifier) of a line on a given day,
  /// reflecting identifier rotation.
  [[nodiscard]] net::IpAddress address_of(LineId line,
                                          util::DayBin day) const;

  /// True when the line has IPv6 connectivity (dual stack).
  [[nodiscard]] bool dual_stack(LineId line) const;

  /// The line's IPv6 identifier (a /56-derived address). Valid only for
  /// dual-stack lines; stable across the window (v6 prefixes rotate far
  /// less than v4 addresses at real ISPs).
  [[nodiscard]] net::IpAddress address6_of(LineId line) const;

  /// Number of identifier rotations the line has experienced up to and
  /// including `day`.
  [[nodiscard]] unsigned epoch_of(LineId line, util::DayBin day) const;

  [[nodiscard]] const Catalog& catalog() const noexcept { return catalog_; }
  [[nodiscard]] const PopulationConfig& config() const noexcept {
    return config_;
  }

  /// Fraction of lines owning at least one catalog or virtual device.
  [[nodiscard]] double device_penetration() const;

  /// Bytes held by the ownership-block cache plus fixed members — the
  /// number the streaming design bounds (old CSR: O(lines)).
  [[nodiscard]] std::uint64_t memory_bytes() const;

 private:
  // One regenerated ownership block: devices of line (first_line + i) are
  // devices[offsets[i] .. offsets[i+1]). Immutable once built; shared_ptr
  // so readers outlive eviction.
  struct Block {
    LineId first_line = 0;
    std::uint32_t line_span = 0;
    std::vector<std::uint32_t> offsets;
    std::vector<OwnedDevice> devices;
    std::vector<LineId> active;  // lines in-block owning ≥1 device

    [[nodiscard]] std::span<const OwnedDevice> devices_of(
        LineId line) const {
      const std::uint32_t i = line - first_line;
      return {devices.data() + offsets[i], devices.data() + offsets[i + 1]};
    }
    [[nodiscard]] std::uint64_t bytes() const noexcept {
      return sizeof(Block) + offsets.capacity() * sizeof(std::uint32_t) +
             devices.capacity() * sizeof(OwnedDevice) +
             active.capacity() * sizeof(LineId);
    }
  };

  struct Candidate {
    std::optional<ProductId> product;
    UnitId unit = 0;
    double penetration = 0.0;
  };

  [[nodiscard]] std::shared_ptr<const Block> block_for(LineId line) const;
  [[nodiscard]] std::shared_ptr<const Block> build_block(
      std::uint32_t index) const;

  const Catalog& catalog_;
  PopulationConfig config_;
  std::vector<Candidate> candidates_;

  // LRU over block index → block; guarded by cache_mutex_. A hit is a
  // linear scan of the cache_blocks slots plus a recency bump. A miss
  // builds the block outside the lock (~1 ms, so concurrent callers never
  // queue behind it), then re-scans and inserts; if another thread
  // inserted the same block meanwhile, its copy wins (blocks are pure
  // functions of (seed, index), so the copies are identical).
  mutable std::mutex cache_mutex_;
  struct CacheSlot {
    std::uint32_t index = 0;
    std::uint64_t last_use = 0;
    std::shared_ptr<const Block> block;
  };
  mutable std::vector<CacheSlot> cache_;
  mutable std::uint64_t cache_clock_ = 0;
  mutable std::atomic<std::uint64_t> cached_bytes_{0};
  mutable std::atomic<std::uint64_t> cache_hits_{0};
  mutable std::atomic<std::uint64_t> cache_builds_{0};
  mutable std::atomic<std::uint64_t> cache_evictions_{0};

  // active_line_count / device_penetration are one full streaming pass;
  // computed once on demand.
  mutable std::once_flag active_count_once_;
  mutable std::uint64_t active_count_ = 0;
};

}  // namespace haystack::simnet
