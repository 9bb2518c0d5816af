// Shared export-stream sequence tracking (ISSUE 2).
//
// Both codecs carry a 32-bit sequence counter in their packet headers —
// v9 counts packets, IPFIX counts data records — and each previously grew
// its own ad-hoc gap detection. This header unifies them behind one
// tracker that classifies every observed sequence number with correct
// 32-bit wraparound semantics:
//
//   * kInOrder  — exactly the expected value;
//   * kGap      — ahead of expectation: the in-between units are presumed
//                 lost (until a late replay credits them back);
//   * kReplay   — behind expectation but within the reorder window: a
//                 delayed or duplicated datagram, not a restart;
//   * kRestart  — behind expectation by more than the reorder window: the
//                 exporter process restarted and its counter reset.
//
// The forward/backward decision uses the signed difference of unsigned
// 32-bit values, so a stream wrapping from 0xffffffff to 0 is "forward by
// one", not a 4-billion-unit gap.
//
// DatagramDeduper is the companion UDP-level duplicate suppressor: a small
// ring of datagram hashes. Export headers embed monotonic sequence numbers
// and timestamps, so byte-identical datagrams within the window are
// genuine network duplicates, not distinct exports.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace haystack::flow {

/// Classification of one observed sequence number.
enum class SequenceEvent : std::uint8_t {
  kFirst,    ///< first datagram of the stream
  kInOrder,  ///< matches expectation exactly
  kGap,      ///< ahead of expectation; units in between presumed lost
  kReplay,   ///< behind expectation, within the reorder window
  kRestart,  ///< behind expectation beyond the window: counter reset
};

/// Result of classifying a sequence number.
struct SequenceOutcome {
  SequenceEvent event = SequenceEvent::kFirst;
  /// Units (flows/packets/records, per codec) presumed lost; kGap only.
  std::uint32_t lost_units = 0;
};

/// Per-stream sequence tracker with wraparound-correct gap accounting.
///
/// Usage is two-phase so callers can act on the classification (clear
/// template state on kRestart, count a gap event) before committing:
///
///   const auto outcome = tracker.classify(seq);
///   ...react...
///   tracker.commit(seq, units_in_this_datagram, outcome);
class SequenceTracker {
 public:
  SequenceTracker() = default;
  explicit SequenceTracker(std::uint32_t reorder_window) noexcept
      : reorder_window_{reorder_window} {}

  [[nodiscard]] SequenceOutcome classify(std::uint32_t seq) const noexcept {
    if (!have_) return {SequenceEvent::kFirst, 0};
    const auto delta = static_cast<std::int32_t>(seq - expected_);
    if (delta == 0) return {SequenceEvent::kInOrder, 0};
    if (delta > 0) {
      return {SequenceEvent::kGap, static_cast<std::uint32_t>(delta)};
    }
    if (static_cast<std::uint32_t>(-delta) <= reorder_window_) {
      return {SequenceEvent::kReplay, 0};
    }
    return {SequenceEvent::kRestart, 0};
  }

  /// Advances the tracker past a datagram carrying `units` units whose
  /// classification was `outcome`.
  void commit(std::uint32_t seq, std::uint32_t units,
              const SequenceOutcome& outcome) noexcept {
    have_ = true;
    received_ += units;
    switch (outcome.event) {
      case SequenceEvent::kReplay:
        // A datagram previously presumed lost arrived after all; credit
        // its units back. Expectation is unchanged: the stream head has
        // already moved past this datagram.
        lost_ -= std::min<std::uint64_t>(lost_, units);
        break;
      case SequenceEvent::kGap:
        lost_ += outcome.lost_units;
        expected_ = seq + units;
        break;
      default:
        expected_ = seq + units;
        break;
    }
  }

  /// Credits units that were received but only became decodable later
  /// (template-loss recovery) into the received total.
  void credit_recovered(std::uint64_t units) noexcept { received_ += units; }

  /// Jumps the expectation forward to `seq_end` when that is ahead of it.
  /// Used after template-loss recovery: the recovered records occupy the
  /// sequence space up to `seq_end`, and without the jump the next
  /// datagram would re-report that space as a gap (phantom loss).
  void advance_past(std::uint32_t seq_end) noexcept {
    if (have_ && static_cast<std::int32_t>(seq_end - expected_) > 0) {
      expected_ = seq_end;
    }
  }

  /// Forgets stream state (after a restart was handled by the caller).
  void reset() noexcept {
    have_ = false;
    expected_ = 0;
  }

  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }
  [[nodiscard]] std::uint64_t lost() const noexcept { return lost_; }

  /// Estimated loss fraction of this stream: lost / (lost + received).
  [[nodiscard]] double loss_fraction() const noexcept {
    const std::uint64_t total = received_ + lost_;
    return total == 0 ? 0.0
                      : static_cast<double>(lost_) /
                            static_cast<double>(total);
  }

 private:
  std::uint32_t reorder_window_ = 64;
  bool have_ = false;
  std::uint32_t expected_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t lost_ = 0;
};

/// Health summary of one export stream, for telemetry surfacing.
struct SourceHealth {
  std::uint64_t received_units = 0;  ///< units seen (flows/packets/records)
  std::uint64_t lost_units = 0;      ///< units presumed lost to the network
  std::uint32_t restarts = 0;        ///< exporter restarts detected

  [[nodiscard]] double loss_fraction() const noexcept {
    const std::uint64_t total = received_units + lost_units;
    return total == 0 ? 0.0
                      : static_cast<double>(lost_units) /
                            static_cast<double>(total);
  }
};

/// Suppresses byte-identical datagrams within a sliding window. A window
/// of 0 disables suppression (the default for bare collectors, so replayed
/// captures and prefix-truncation tests behave as plain decoders).
class DatagramDeduper {
 public:
  DatagramDeduper() = default;
  explicit DatagramDeduper(std::size_t window) : ring_(window, 0) {}

  /// Returns true when `datagram` hashes equal to one of the last
  /// `window` datagrams; otherwise records it and returns false.
  [[nodiscard]] bool seen_before(std::span<const std::uint8_t> datagram) {
    if (ring_.empty()) return false;
    std::uint64_t h = hash(datagram);
    if (h == 0) h = 1;  // 0 marks an empty slot
    if (std::find(ring_.begin(), ring_.end(), h) != ring_.end()) return true;
    ring_[next_] = h;
    next_ = (next_ + 1) % ring_.size();
    return false;
  }

 private:
  static constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
  static constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;

  /// One lane step (the xxHash64 round): a bijection of `acc` for a fixed
  /// word and of the word for a fixed `acc`, so two inputs differing in
  /// one word leave the lanes in different states.
  [[nodiscard]] static std::uint64_t round(std::uint64_t acc,
                                           std::uint64_t word) noexcept {
    return std::rotl(acc + word * kPrime2, 31) * kPrime1;
  }

  [[nodiscard]] static std::uint64_t load64(const std::uint8_t* p) noexcept {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    return word;
  }

  /// Content hash, 8 bytes a step on two independent lanes. The length
  /// seeds lane a, so a datagram and the same bytes plus a trailing zero
  /// hash differently; the tail loads only the bytes that exist. The
  /// murmur3 finalizer avalanches the combined lanes.
  [[nodiscard]] static std::uint64_t hash(
      std::span<const std::uint8_t> bytes) noexcept {
    const std::uint8_t* p = bytes.data();
    std::size_t n = bytes.size();
    std::uint64_t a = kPrime1 ^ n;
    std::uint64_t b = kPrime2;
    for (; n >= 16; p += 16, n -= 16) {
      a = round(a, load64(p));
      b = round(b, load64(p + 8));
    }
    if (n >= 8) {
      a = round(a, load64(p));
      p += 8;
      n -= 8;
    }
    std::uint64_t tail = 0;
    if (n != 0) std::memcpy(&tail, p, n);
    b = round(b, tail);
    std::uint64_t h = a ^ std::rotl(b, 32);
    h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdULL;
    h = (h ^ (h >> 33)) * 0xc4ceb9fe1a85ec53ULL;
    return h ^ (h >> 33);
  }

  std::vector<std::uint64_t> ring_;
  std::size_t next_ = 0;
};

}  // namespace haystack::flow
