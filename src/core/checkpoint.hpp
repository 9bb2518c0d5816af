// Versioned detector checkpoint/restore (ISSUE 2).
//
// A collector that crashes or restarts must not re-observe weeks of flow
// history to get back to its detection state: the entire per-(subscriber,
// service) evidence map — bitmasks, distinct counts, packet totals, first
// seen and satisfied hours — serializes into a compact binary checkpoint
// and restores bit-for-bit. The differential suite verifies that a
// mid-run save → restore → continue produces exactly the evidence masks
// and detection hours of an uninterrupted run.
//
// Format (big-endian, via flow::ByteWriter):
//
//   u32  magic   "HSCK" (0x4853434b)
//   u32  version (kCheckpointVersion)
//   u64  threshold, IEEE-754 bit pattern of DetectorConfig::threshold
//   u64  stats.flows
//   u64  stats.matched
//   intern table (core/intern.hpp serialize(): u32 count, then per name
//     u16 length + raw bytes, in handle order) — rule names in rule
//     order, plus "svc/<id>" labels for evidence rows whose service has
//     no rule
//   u64  group count (distinct subscribers, ascending)
//   per group: u64 subscriber, u32 row count (>= 1), then rows in
//   strictly ascending service order:
//     u32 rule handle
//     u8  flags: bit0 = mask word 1 present, bit1 = packets written as
//         u64 (else u32), bit2 = satisfied_hour present
//     u64 mask[0]; u64 mask[1] when bit0
//     u32 or u64 packets (canonical width: u64 only when > 0xffffffff)
//     u16 first_seen; u16 satisfied_hour when bit2
//
// Rows are keyed by an interned rule-name handle, not the raw service id:
// restore resolves each handle back to a service id through the restoring
// detector's own rule set (by rule name), so a blob survives service-id
// renumbering as long as rule names are stable. Rows are grouped by
// subscriber so the u64 key is written once per group, and the flag byte
// drops fields that are almost always absent at the 15 M-line tier.
// `distinct` is not stored — it is popcount(mask) by detector invariant
// and the packed Evidence derives it on read. Hours are u16 because the
// study clock is (util::kStudyHours = 336).
//
// Versioning rule: any change to the byte layout or to the meaning of a
// field bumps the version; restore accepts exactly kCheckpointVersion and
// rejects anything else (no silent migration — an operator restores with
// the binary that wrote the checkpoint, or replays). The threshold is
// embedded because evidence satisfied under one threshold must not seed a
// detector running another.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/detector.hpp"
#include "core/sharded_detector.hpp"

namespace haystack::core {

/// Resolves an interned evidence label back to a service id via `rules`
/// ("svc/<id>" labels carry the id directly; anything else is a rule
/// name). Returns false for labels the rule set does not know. Shared by
/// checkpoint restore and the vantage delta merge (src/vantage/), which
/// must remap evidence keyed by another process's label strings.
[[nodiscard]] bool resolve_service_label(std::string_view label,
                                         const RuleSet& rules, ServiceId& out);

inline constexpr std::uint32_t kCheckpointMagic = 0x4853434bU;  // "HSCK"
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Serializes the full evidence state + throughput counters. A non-null
/// `recorder` gets a kCheckpointSave event (a = entries, b = bytes).
[[nodiscard]] std::vector<std::uint8_t> save_checkpoint_compact(
    const Detector& detector, obs::FlightRecorder* recorder = nullptr);
[[nodiscard]] std::vector<std::uint8_t> save_checkpoint_compact(
    const ShardedDetector& detector, obs::FlightRecorder* recorder = nullptr);

/// Restores a checkpoint into `detector`, replacing its evidence state.
/// Returns false — leaving the detector untouched — when the blob has a
/// wrong magic/version, was written under a different threshold, is
/// truncated, carries trailing bytes, holds rows out of order, or
/// references a rule name the restoring detector's rule set does not
/// know. `error`, when non-null, receives a human-readable reason. A
/// non-null `recorder` gets kCheckpointRestore (a = entries, b = bytes) on
/// success, kCheckpointRejected (a = bytes) on refusal.
bool restore_checkpoint(std::span<const std::uint8_t> blob,
                        Detector& detector, std::string* error = nullptr,
                        obs::FlightRecorder* recorder = nullptr);
bool restore_checkpoint(std::span<const std::uint8_t> blob,
                        ShardedDetector& detector,
                        std::string* error = nullptr,
                        obs::FlightRecorder* recorder = nullptr);

}  // namespace haystack::core
