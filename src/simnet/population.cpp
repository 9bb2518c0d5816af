#include "simnet/population.hpp"

#include <algorithm>
#include <bit>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace haystack::simnet {

namespace {
// Subscriber space: 100.64.0.0/10.
constexpr std::uint32_t kSubscriberBase = 0x64400000;
// Lines per regional address pool; each pool spans four /24s (1024 addrs).
constexpr std::uint32_t kLinesPerRegion = 64;
constexpr std::uint32_t kRegionAddrSpan = 1024;
// Total addresses in the /10. Regional pools wrap modulo this span so a
// 15 M-line population still addresses inside 100.64.0.0/10; for lines
// below 262 144 (4096 regions) the wrap is an identity, so small-N
// populations keep their historical addresses bit-for-bit.
constexpr std::uint64_t kSubscriberSpan = 0x400000;
}  // namespace

Population::Population(const Catalog& catalog,
                       const PopulationConfig& config)
    : catalog_{catalog}, config_{config} {
  // Pre-extract the ownership candidates: real products plus virtual
  // wild-extra devices per unit. Order matters: ownership draws consume
  // the per-line RNG stream in exactly this sequence, which is what keeps
  // lazy regeneration bit-for-bit equal to the old materialized CSR.
  for (const Product& p : catalog.products()) {
    if (p.unit && p.penetration > 0.0) {
      candidates_.push_back({p.id, *p.unit, p.penetration});
    }
  }
  for (const DetectionUnit& u : catalog.units()) {
    if (u.wild_extra_penetration > 0.0) {
      candidates_.push_back({std::nullopt, u.id, u.wild_extra_penetration});
    }
  }
  slots_ = std::make_unique<Slot[]>(block_count());
}

void Population::build_block(std::uint32_t index, Block& block) const {
  const LineId first = index * kBlockLines;
  const auto end = static_cast<LineId>(std::min<std::uint64_t>(
      std::uint64_t{first} + kBlockLines, config_.lines));
  for (LineId line = first; line < end; ++line) {
    util::Pcg32 rng = util::derive_rng(config_.seed ^ 0x0cc07a11, line, 0);
    const std::size_t owned = block.devices.size();
    for (const Candidate& c : candidates_) {
      if (rng.chance(c.penetration)) {
        block.devices.push_back({c.product, c.unit});
      }
    }
    if (block.devices.size() != owned) {
      block.active.push_back(line);
      block.ends.push_back(static_cast<std::uint32_t>(block.devices.size()));
      block.identity.push_back(identity_of(line));
    }
  }
  block.active.shrink_to_fit();
  block.ends.shrink_to_fit();
  block.devices.shrink_to_fit();
  block.identity.shrink_to_fit();
  built_bytes_.fetch_add(block.bytes(), std::memory_order_relaxed);
  blocks_built_.fetch_add(1, std::memory_order_relaxed);
}

const Population::Block& Population::block(std::uint32_t index) const {
  Slot& slot = slots_[index];
  std::call_once(slot.once, [&] { build_block(index, slot.block); });
  return slot.block;
}

std::span<const OwnedDevice> Population::devices_of(LineId line) const {
  const Block& b = block(line / kBlockLines);
  const auto it = std::lower_bound(b.active.begin(), b.active.end(), line);
  if (it == b.active.end() || *it != line) return {};
  return b.devices_at(static_cast<std::size_t>(it - b.active.begin()));
}

void Population::for_each_active_line(const ActiveLineFn& fn) const {
  for (std::uint32_t index = 0; index < block_count(); ++index) {
    for_each_active_line_in_block(index, fn);
  }
}

void Population::for_each_active_line_in_block(std::uint32_t index,
                                               const ActiveLineFn& fn) const {
  const Block& b = block(index);
  for (std::size_t i = 0; i < b.active.size(); ++i) {
    fn(b.active[i], b.devices_at(i));
  }
}

std::uint64_t Population::active_line_count() const {
  std::call_once(active_count_once_, [this] {
    std::uint64_t count = 0;
    for_each_active_line(
        [&count](LineId, std::span<const OwnedDevice>) { ++count; });
    active_count_ = count;
  });
  return active_count_;
}

std::span<const std::uint16_t> Population::identities_in_block(
    std::uint32_t index) const {
  return block(index).identity;
}

std::uint16_t Population::identity_of(LineId line) const {
  std::uint16_t identity = dual_stack(line) ? 1 : 0;
  const util::RngFamily rotations{config_.seed ^ 0x707a7e};
  for (util::DayBin d = 1; d <= kIdentityDays; ++d) {
    util::Pcg32 rng = rotations.at(line, d);
    if (rng.chance(config_.daily_rotation_probability)) {
      identity |= static_cast<std::uint16_t>(1U << d);
    }
  }
  return identity;
}

unsigned Population::epoch_of(LineId line, util::DayBin day) const {
  unsigned epoch = 0;
  for (util::DayBin d = 1; d <= day; ++d) {
    util::Pcg32 rng = util::derive_rng(config_.seed ^ 0x707a7e, line, d);
    if (rng.chance(config_.daily_rotation_probability)) ++epoch;
  }
  return epoch;
}

net::IpAddress Population::address_of(LineId line, util::DayBin day) const {
  return address_at_epoch(line, epoch_of(line, day));
}

net::IpAddress Population::address_of(LineId line, util::DayBin day,
                                      std::uint16_t identity) const {
  if (day > kIdentityDays) return address_of(line, day);
  // Bits 1 .. day: the rotations up to and including `day`.
  const unsigned through_day = (2U << day) - 2U;
  return address_at_epoch(
      line, static_cast<unsigned>(std::popcount(identity & through_day)));
}

net::IpAddress Population::address_at_epoch(LineId line,
                                             unsigned epoch) const {
  const std::uint32_t region = line / kLinesPerRegion;
  const std::uint32_t slot = static_cast<std::uint32_t>(
      util::hash_combine(util::fnv1a_u64(line), epoch) % kRegionAddrSpan);
  const std::uint64_t offset =
      (std::uint64_t{region} * kRegionAddrSpan + slot) % kSubscriberSpan;
  return net::IpAddress::v4(kSubscriberBase +
                            static_cast<std::uint32_t>(offset));
}

bool Population::dual_stack(LineId line) const {
  util::Pcg32 rng = util::derive_rng(config_.seed ^ 0xd5a15ac, line, 0);
  return rng.chance(config_.dual_stack_fraction);
}

net::IpAddress Population::address6_of(LineId line) const {
  // One /64 per line under the ISP's 2001:db8:6400::/40.
  return net::IpAddress::v6(0x20010db864000000ULL | line, 1);
}

double Population::device_penetration() const {
  return config_.lines == 0
             ? 0.0
             : static_cast<double>(active_line_count()) /
                   static_cast<double>(config_.lines);
}

std::uint64_t Population::memory_bytes() const {
  return sizeof(Population) + candidates_.capacity() * sizeof(Candidate) +
         std::uint64_t{block_count()} * sizeof(Slot) +
         built_bytes_.load(std::memory_order_relaxed);
}

}  // namespace haystack::simnet
