// Versioned, precompiled rule state (ISSUE 8 tentpole).
//
// The live control plane hot-reloads rule sets, hitlists, and thresholds
// while ingest runs. That only works if "the rules" are an immutable value
// the hot path can hold by pointer: a CompiledRuleVersion bundles one
// rule set + detector config + the per-service dispatch tables the detect
// loop reads (rule_of / RuleFast) + the boundary SignatureIndex compiled
// from that version's hitlist, all tagged with a monotonically increasing
// version id. Producers and shard workers pass shared_ptrs to these
// around; a reload builds the next version off the hot path and swaps a
// pointer — nothing ever mutates a published version.
//
// The evaluation helpers (eval_detection_hour / eval_verdict) are the ONE
// implementation of the hierarchy-aware read path: the live Detector and
// the epoch-published read views (core/read_view.hpp) both call them, so
// snapshot queries are bit-for-bit the synchronous answers by
// construction, and every Verdict carries the version id it was evaluated
// under.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/evidence_map.hpp"
#include "core/hitlist.hpp"
#include "core/rules.hpp"
#include "core/signature_index.hpp"
#include "util/sim_clock.hpp"

namespace haystack::core {

class InternTable;

/// Anonymized subscriber identifier (mirrors detector.hpp; declared here
/// so the eval helpers don't need the full detector header).
using SubscriberKey = std::uint64_t;

/// Detector configuration (shared with detector.hpp via this header).
struct DetectorConfig {
  /// Domain-coverage threshold D (Sec. 4.3.2; the paper's conservative
  /// default is 0.4).
  double threshold = 0.4;
  /// Estimated observation-channel loss fraction above which the detector
  /// runs in degraded mode: verdicts become low-confidence, and the
  /// evidence requirement is relaxed in proportion to the loss (ISSUE 2).
  double loss_tolerance = 0.05;
};

/// Confidence qualifier for loss-aware verdicts.
enum class Confidence : std::uint8_t {
  kHigh,  ///< full evidence requirement met on a healthy channel
  kLow,   ///< verdict rendered under a degraded observation channel
};

/// A loss-aware detection verdict (ISSUE 2). On a healthy channel this is
/// just detection_hour() with kHigh confidence. When the estimated loss
/// exceeds the tolerance, missing evidence may be the channel's fault:
/// services satisfying a loss-relaxed requirement are reported detected at
/// kLow confidence (with no hour, since the full requirement never fired),
/// and negative verdicts are themselves flagged kLow.
struct Verdict {
  bool detected = false;
  Confidence confidence = Confidence::kHigh;
  /// Detection hour; set only for full-evidence (kHigh) detections.
  std::optional<util::HourBin> hour;
  /// Rule-set version the verdict was evaluated under (ISSUE 8). Every
  /// verdict is rendered from exactly one CompiledRuleVersion — there is
  /// no way to mix requirements from two versions in one answer.
  std::uint64_t ruleset_version = 0;
};

/// Per-(subscriber, service) evidence state — the per-entry payload of the
/// hottest table in the system, packed for the 15 M-line tier (DESIGN.md
/// §12): 28 bytes, align 4 (the old layout was 40 bytes align 8, 56-byte
/// map slots vs 40 now). Fields are private behind accessors so the wire
/// formats and merge code can't silently depend on the layout:
///  - the distinct-domain count is no longer stored; it is popcount(mask)
///    by invariant (the detector only ever sets fresh bits), so it is
///    derived on read.
///  - hours are stored as u16: a study is 336 hours (util::kStudyHours)
///    and the external HourBin type stays u32, widened/narrowed (with
///    saturation at 0xfffe) at the accessor boundary. kNever round-trips
///    exactly.
///  - the 128-bit domain mask and 64-bit packet counter live in u32
///    halves so the struct stays align-4 and map slots avoid 8-byte tail
///    padding.
struct Evidence {
  static constexpr util::HourBin kNever = 0xffffffffU;

  /// 64-bit word `w` (0 or 1) of the monitored-domain bitset (up to 128
  /// positions; Fire TV's 34 is the catalog maximum).
  [[nodiscard]] std::uint64_t mask(unsigned w) const noexcept {
    return std::uint64_t{mask_[2 * w]} |
           (std::uint64_t{mask_[2 * w + 1]} << 32);
  }
  void set_mask(unsigned w, std::uint64_t bits) noexcept {
    mask_[2 * w] = static_cast<std::uint32_t>(bits);
    mask_[2 * w + 1] = static_cast<std::uint32_t>(bits >> 32);
  }
  void or_mask(unsigned w, std::uint64_t bits) noexcept {
    mask_[2 * w] |= static_cast<std::uint32_t>(bits);
    mask_[2 * w + 1] |= static_cast<std::uint32_t>(bits >> 32);
  }
  void set_bit(std::uint16_t position) noexcept {
    mask_[position >> 5] |= std::uint32_t{1} << (position & 31U);
  }
  [[nodiscard]] bool sees(std::uint16_t position) const noexcept {
    return (mask_[position >> 5] >> (position & 31U)) & 1U;
  }

  /// Distinct monitored domains seen — popcount(mask) by invariant.
  [[nodiscard]] std::uint16_t distinct() const noexcept {
    return static_cast<std::uint16_t>(
        std::popcount(mask_[0]) + std::popcount(mask_[1]) +
        std::popcount(mask_[2]) + std::popcount(mask_[3]));
  }

  /// Cumulative sampled packets.
  [[nodiscard]] std::uint64_t packets() const noexcept {
    return std::uint64_t{packets_lo_} | (std::uint64_t{packets_hi_} << 32);
  }
  void set_packets(std::uint64_t v) noexcept {
    packets_lo_ = static_cast<std::uint32_t>(v);
    packets_hi_ = static_cast<std::uint32_t>(v >> 32);
  }
  void add_packets(std::uint64_t v) noexcept { set_packets(packets() + v); }

  [[nodiscard]] util::HourBin first_seen() const noexcept {
    return first_seen_;
  }
  void set_first_seen(util::HourBin h) noexcept {
    first_seen_ = narrow_hour(h);
  }

  /// Hour the rule's own coverage requirement was first met; kNever until.
  [[nodiscard]] util::HourBin satisfied_hour() const noexcept {
    return satisfied_ == kNever16 ? kNever : satisfied_;
  }
  void set_satisfied_hour(util::HourBin h) noexcept {
    satisfied_ = h == kNever ? kNever16 : narrow_hour(h);
  }
  [[nodiscard]] bool satisfied() const noexcept {
    return satisfied_ != kNever16;
  }

 private:
  static constexpr std::uint16_t kNever16 = 0xffff;

  static std::uint16_t narrow_hour(util::HourBin h) noexcept {
    return h >= kNever16 ? std::uint16_t{0xfffe} : static_cast<std::uint16_t>(h);
  }

  std::uint32_t mask_[4]{0, 0, 0, 0};
  std::uint32_t packets_lo_ = 0;
  std::uint32_t packets_hi_ = 0;
  std::uint16_t first_seen_ = 0;
  std::uint16_t satisfied_ = kNever16;
};
static_assert(sizeof(Evidence) == 28 && alignof(Evidence) == 4,
              "Evidence must stay packed (DESIGN.md §12)");

/// Per-service data precompiled once per version so the interned detect
/// path never dereferences a DetectionRule: the evidence requirement under
/// the version's threshold and the critical-domain bitset (nonzero only
/// when the critical domain alone is sufficient).
struct RuleFast {
  std::array<std::uint64_t, 2> critical_mask{0, 0};
  std::uint16_t required = 1;
  bool has_rule = false;
};

/// One immutable compiled rule version. Built by compile(); never mutated
/// after publication. Shard workers, producers, and read views share it by
/// shared_ptr, so a version stays alive exactly as long as any in-flight
/// chunk, snapshot, or verdict still references it.
struct CompiledRuleVersion {
  /// Monotonic version id; 1 is the construction-time version.
  std::uint64_t id = 1;
  /// The rule set this version compiles. Never null. For the
  /// construction-time version this aliases the caller-owned set (the
  /// pre-reload lifetime contract); for reloaded versions `owned` keeps
  /// it alive.
  const RuleSet* rules = nullptr;
  std::shared_ptr<const RuleSet> owned;
  DetectorConfig config{};
  /// Rule pointer per service id for O(1) dispatch (into *rules).
  std::vector<const DetectionRule*> rule_of;
  std::vector<RuleFast> fast_rules;  ///< parallel to rule_of
  /// Boundary (IP, port, day) -> Signature index compiled from this
  /// version's hitlist — the one hitlist lookup every detect path uses.
  /// Never null.
  std::shared_ptr<const SignatureIndex> index;

  [[nodiscard]] const DetectionRule* rule_for(ServiceId service) const {
    return service < rule_of.size() ? rule_of[service] : nullptr;
  }
};

/// Compiles `rules` + `config` into an immutable version, including the
/// SignatureIndex built from `hitlist`, and interns rule/domain labels
/// into `intern` (which may be null). `owned` carries ownership for
/// reloaded sets and may be null for the construction-time version
/// (caller guarantees lifetime).
[[nodiscard]] std::shared_ptr<const CompiledRuleVersion> compile_rules(
    const Hitlist& hitlist, const RuleSet& rules,
    const DetectorConfig& config, std::uint64_t id,
    std::shared_ptr<const RuleSet> owned, InternTable* intern);

/// Hierarchy-aware detection over any evidence map: the hour at which the
/// service and all of its ancestors were satisfied for this subscriber,
/// or nullopt. The single read-path implementation shared by the live
/// Detector and the published read views.
[[nodiscard]] std::optional<util::HourBin> eval_detection_hour(
    const FlatEvidenceMap<Evidence>& evidence, const CompiledRuleVersion& v,
    SubscriberKey subscriber, ServiceId service);

/// Loss-aware verdict over any evidence map, tagged with v.id.
[[nodiscard]] Verdict eval_verdict(const FlatEvidenceMap<Evidence>& evidence,
                                   const CompiledRuleVersion& v,
                                   double observed_loss,
                                   SubscriberKey subscriber,
                                   ServiceId service);

}  // namespace haystack::core
