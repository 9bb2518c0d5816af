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
// Ownership is generated lazily in blocks of kBlockLines lines
// (DESIGN.md §12): the first thread to touch a block builds it, and the
// block is then kept, immutable, for the Population's lifetime.
// Construction builds nothing. A block stores only its active lines (those
// owning at least one device), so memory is O(active lines): ~5.4 MiB at
// 1 M lines and ~81 MiB at the paper's 15 M-line ISP (Sec. 6, Fig. 11)
// once every block has been touched. Streaming consumers use
// for_each_active_line (all blocks in order) or
// for_each_active_line_in_block (one block, for block-parallel consumers).
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

  /// Devices owned by a line < line_count() (empty when it owns none).
  /// The span stays valid for the Population's lifetime.
  [[nodiscard]] std::span<const OwnedDevice> devices_of(LineId line) const;

  using ActiveLineFn =
      std::function<void(LineId, std::span<const OwnedDevice>)>;

  /// Streams every line owning at least one device, ascending, with its
  /// devices (spans as from devices_of).
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

  /// Days whose identifier rotation an identity word records.
  static constexpr util::DayBin kIdentityDays = util::kStudyDays - 1;

  /// One identity word per active line of block `index`, in the order
  /// for_each_active_line_in_block visits them, stored when the block is
  /// built. Bit 0 is dual_stack(line); bit d, for 1 ≤ d ≤ kIdentityDays,
  /// is set when the line's identifier rotates on day d.
  [[nodiscard]] std::span<const std::uint16_t> identities_in_block(
      std::uint32_t index) const;

  /// address_of(line, day) for a line whose identity word is `identity`:
  /// O(1) up to kIdentityDays, the day-by-day walk after that.
  [[nodiscard]] net::IpAddress address_of(LineId line, util::DayBin day,
                                          std::uint16_t identity) const;

  /// Ownership blocks built so far. Each block is built at most once;
  /// threads touching an unbuilt block together wait for one build.
  [[nodiscard]] std::uint64_t blocks_built() const noexcept {
    return blocks_built_.load(std::memory_order_relaxed);
  }

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

  /// Bytes held by the built ownership blocks plus fixed members.
  [[nodiscard]] std::uint64_t memory_bytes() const;

 private:
  // One ownership block: active[i] (ascending) owns
  // devices[ends[i - 1] .. ends[i]), with ends[-1] = 0, and has identity
  // word identity[i].
  struct Block {
    std::vector<LineId> active;
    std::vector<std::uint32_t> ends;
    std::vector<OwnedDevice> devices;
    std::vector<std::uint16_t> identity;

    [[nodiscard]] std::span<const OwnedDevice> devices_at(
        std::size_t i) const {
      return {devices.data() + (i == 0 ? 0 : ends[i - 1]),
              devices.data() + ends[i]};
    }
    [[nodiscard]] std::uint64_t bytes() const noexcept {
      return active.capacity() * sizeof(LineId) +
             ends.capacity() * sizeof(std::uint32_t) +
             devices.capacity() * sizeof(OwnedDevice) +
             identity.capacity() * sizeof(std::uint16_t);
    }
  };

  struct Candidate {
    std::optional<ProductId> product;
    UnitId unit = 0;
    double penetration = 0.0;
  };

  // Block `index`, built on first use.
  [[nodiscard]] const Block& block(std::uint32_t index) const;
  void build_block(std::uint32_t index, Block& block) const;
  [[nodiscard]] std::uint16_t identity_of(LineId line) const;
  [[nodiscard]] net::IpAddress address_at_epoch(LineId line,
                                                unsigned epoch) const;

  const Catalog& catalog_;
  PopulationConfig config_;
  std::vector<Candidate> candidates_;

  // One slot per block; `once` guards the build, after which the block
  // never changes.
  struct Slot {
    std::once_flag once;
    Block block;
  };
  std::unique_ptr<Slot[]> slots_;
  mutable std::atomic<std::uint64_t> blocks_built_{0};
  mutable std::atomic<std::uint64_t> built_bytes_{0};

  // active_line_count / device_penetration are one full streaming pass;
  // computed once on demand.
  mutable std::once_flag active_count_once_;
  mutable std::uint64_t active_count_ = 0;
};

}  // namespace haystack::simnet
