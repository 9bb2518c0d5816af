// Precompiled signature index (ISSUE 6 tentpole): maps (service IP, port,
// day) to a packed u32 detection signature at the decode/enqueue
// boundary, so shard workers never hash a 128-bit address or touch the
// hitlist's node-based maps on the hot path.
//
// Layout:
//   - Service endpoints (the hitlist's (IP, port) universe) are interned
//     to dense u32 endpoint ids at build time and stored in one flat
//     open-addressing table shared by IPv4 and IPv6. A slot is keyed by
//     the address's two 64-bit halves (IpAddress::hi()/lo()) plus a
//     32-bit tag (family << 16) | port; the family in the tag keeps an
//     IPv4 address apart from the IPv6 address with the same low bits.
//     One multiplicative hash + usually one probe, either family.
//   - Signatures live in a dense day-major table sig[day * stride + id],
//     each packing the hitlist Hit as (service << 16) | domain_index.
//     kNoSig marks (endpoint, day) pairs the hitlist does not cover —
//     mirroring Hitlist::lookup returning nullopt, including for
//     out-of-range days.
//
// The index is immutable after build(); sig_of() is const and safe to
// call concurrently from any number of producer threads. It is the only
// hitlist lookup on any detect path: Detector::observe() calls sig_of()
// too. The Hitlist itself is only the build input, and Hitlist::lookup()
// runs only inside the ReferenceDetector oracle.
//
// build() also interns each rule's name and monitored-domain labels into
// an InternTable (when provided): rule names in rule order, so the
// handle space is dense and its rule-name prefix matches the label table
// HSCK checkpoints embed (core/checkpoint.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/hitlist.hpp"
#include "core/intern.hpp"
#include "core/rules.hpp"
#include "util/sim_clock.hpp"

namespace haystack::core {

/// Packed detection signature: (service << 16) | domain_index, or kNoSig
/// for "no hitlist match".
using Signature = std::uint32_t;

inline constexpr Signature kNoSig = 0xffffffffU;

[[nodiscard]] inline ServiceId sig_service(Signature sig) noexcept {
  return static_cast<ServiceId>(sig >> 16);
}

[[nodiscard]] inline std::uint16_t sig_domain_index(Signature sig) noexcept {
  return static_cast<std::uint16_t>(sig & 0xffffU);
}

class SignatureIndex {
 public:
  SignatureIndex() = default;

  /// Builds the index from the hitlist, and interns rule names (in rule
  /// order) plus monitored-domain labels into `domains` when non-null.
  void build(const Hitlist& hitlist, const RuleSet& rules,
             InternTable* domains = nullptr);

  /// Resolves one endpoint for one day. Exactly equivalent to
  /// `Hitlist::lookup(ip, port, day)`: returns kNoSig iff the lookup
  /// would return nullopt, otherwise packs the Hit it would return.
  [[nodiscard]] Signature sig_of(const net::IpAddress& ip,
                                 std::uint16_t port,
                                 util::DayBin day) const noexcept {
    // days_ is 0 until build(), which always allocates the slot array.
    if (day >= days_) return kNoSig;
    const std::uint32_t tag = tag_of(ip, port);
    for (std::size_t slot = home_slot(ip, tag);; slot = (slot + 1) & mask_) {
      const Slot& s = slots_[slot];
      if (s.tag == tag && s.lo == ip.lo() && s.hi == ip.hi()) {
        return sig_[static_cast<std::size_t>(day) * stride_ + s.id];
      }
      if (s.tag == kEmptyTag) return kNoSig;
    }
  }

  /// Distinct (IP, port) service endpoints interned.
  [[nodiscard]] std::size_t endpoint_count() const noexcept {
    return endpoint_count_;
  }

  /// Days covered (== the hitlist's day range).
  [[nodiscard]] util::DayBin days() const noexcept { return days_; }

 private:
  static constexpr std::uint64_t kFib = 0x9E3779B97F4A7C15ULL;
  /// Real tags are (family << 16) | port with an 8-bit family, so their
  /// top byte is clear and all-ones can never collide with one.
  static constexpr std::uint32_t kEmptyTag = 0xffffffffU;

  [[nodiscard]] static std::uint32_t tag_of(const net::IpAddress& ip,
                                            std::uint16_t port) noexcept {
    return (static_cast<std::uint32_t>(ip.family()) << 16) | port;
  }

  /// Fibonacci multiply-shift over the folded (hi, lo, tag) key.
  [[nodiscard]] std::size_t home_slot(const net::IpAddress& ip,
                                      std::uint32_t tag) const noexcept {
    const std::uint64_t key =
        (ip.hi() * kFib) ^ ip.lo() ^ (std::uint64_t{tag} << 32);
    return static_cast<std::size_t>((key * kFib) >> shift_);
  }

  util::DayBin days_ = 0;
  std::size_t endpoint_count_ = 0;
  std::size_t stride_ = 0;

  // Endpoints of both families: open-addressing, linear probing,
  // power-of-two size, load factor <= 0.5. Key and id share one 24-byte
  // slot so a hit usually costs a single cache touch.
  struct Slot {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    std::uint32_t tag = kEmptyTag;
    std::uint32_t id = 0;
  };
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 0;

  // Day-major packed signatures; kNoSig where the hitlist has no entry.
  std::vector<Signature> sig_;
};

}  // namespace haystack::core
