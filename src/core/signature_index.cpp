#include "core/signature_index.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/hash.hpp"

namespace haystack::core {

void SignatureIndex::build(const Hitlist& hitlist, const RuleSet& rules,
                           InternTable* domains) {
  // Rule names first, in rule order, so interned rule handles are dense
  // and reproducible (HSCK checkpoints rely on this ordering contract
  // only through the serialized table itself, but density keeps it
  // compact).
  if (domains != nullptr) {
    for (const auto& rule : rules.rules) {
      domains->intern(rule.name);
    }
    for (const auto& rule : rules.rules) {
      for (const std::uint16_t idx : rule.monitored_indices) {
        domains->intern(rule.name + "/" + std::to_string(idx));
      }
    }
  }

  days_ = util::kStudyDays;  // Hitlist's fixed day range

  // Pass 1: intern every distinct (IP, port) endpoint to a dense id, in
  // first-seen order.
  using Endpoint = std::pair<net::IpAddress, std::uint16_t>;
  struct EndpointHash {
    std::size_t operator()(const Endpoint& e) const noexcept {
      return util::hash_combine(e.first.hash(), e.second);
    }
  };
  std::unordered_map<Endpoint, std::uint32_t, EndpointHash> ids;
  hitlist.for_each([&](util::DayBin, const net::IpAddress& ip,
                       std::uint16_t port, const Hit&) {
    ids.try_emplace(Endpoint{ip, port},
                    static_cast<std::uint32_t>(ids.size()));
  });
  endpoint_count_ = ids.size();
  stride_ = endpoint_count_;

  // One flat table for both families: power-of-two, load factor <= 0.5,
  // never empty (sig_of probes it unconditionally once days_ is set).
  const std::size_t slots =
      std::bit_ceil(std::max<std::size_t>(8, ids.size() * 2));
  slots_.assign(slots, Slot{});
  mask_ = slots - 1;
  shift_ = 64U - static_cast<unsigned>(std::countr_zero(slots));
  for (const auto& [key, id] : ids) {
    const auto& [ip, port] = key;
    const std::uint32_t tag = tag_of(ip, port);
    std::size_t slot = home_slot(ip, tag);
    while (slots_[slot].tag != kEmptyTag) slot = (slot + 1) & mask_;
    slots_[slot] = {ip.hi(), ip.lo(), tag, id};
  }

  // Pass 2: fill the day-major signature table.
  sig_.assign(static_cast<std::size_t>(days_) * stride_, kNoSig);
  hitlist.for_each([&](util::DayBin day, const net::IpAddress& ip,
                       std::uint16_t port, const Hit& hit) {
    const std::uint32_t id = ids.at(Endpoint{ip, port});
    const Signature packed =
        (Signature{hit.service} << 16) | hit.domain_index;
    // (service, domain_index) == (0xffff, 0xffff) would alias the miss
    // sentinel; the catalog never gets near 65535 services, but skip
    // rather than corrupt if it ever did.
    if (packed == kNoSig) return;
    sig_[static_cast<std::size_t>(day) * stride_ + id] = packed;
  });
}

}  // namespace haystack::core
