// Evidence-delta wire format for the multi-vantage collector fleet
// (ISSUE 7): the datagrams a vantage collector ships to the aggregator.
//
// The format is a sibling of the HSCK checkpoint (core/checkpoint): the
// same big-endian ByteWriter primitives, the same label-table idea — but
// where a checkpoint is a full, private snapshot, a delta is a *per-epoch
// diff of cumulative state*, built to survive an unreliable channel:
//
//   - Rows carry the emitting collector's CUMULATIVE evidence for each
//     (subscriber, label) it touched during the epoch — cumulative mask,
//     cumulative sampled packets, collector-local first-seen hour — not
//     increments. A state-carrying row makes the aggregator's merge a
//     join (bitwise OR / max / min): applying the same delta twice, or
//     applying a stale one after a newer one, is a no-op. Dropped,
//     duplicated, and reordered delta datagrams are therefore harmless by
//     construction (flow::ImpairedLink runs on this channel in the fault
//     suites).
//   - Evidence rows are keyed by an index into the delta's own embedded
//     label table (rule names), never by a raw intern handle or service
//     id: core::InternTable handles are process-local, and two collectors
//     interning the same rule universe in different orders must still
//     merge correctly (pinned by VantageInternOrder tests).
//   - `distinct` and `satisfied_hour` are deliberately absent: the
//     aggregator derives distinct as popcount(mask) and stamps
//     satisfied_hour itself when it seals an epoch, which is what keeps
//     the merged map bit-for-bit equal to a single-process detector.
//
// Layout (big-endian):
//
//   u32  magic   "HSVD" (0x48535644)
//   u32  version (kDeltaVersion)
//   u32  collector id
//   u32  seq     transmission sequence number (retransmissions reuse the
//                original seq, so the aggregator's SequenceTracker
//                classifies them as replays; a collector restart resets
//                the counter and classifies as a restart)
//   u32  epoch   hour bin this delta covers (or, for a snapshot, the
//                epoch the snapshot state is current through)
//   u8   kind    0 = per-epoch delta, 1 = full snapshot (resync/late join)
//   u64  threshold, IEEE-754 bit pattern (a delta merged under a
//                different coverage threshold would be wrong, exactly as
//                for checkpoints)
//   u64  flows   collector-cumulative observation count at end of epoch
//   u64  matched collector-cumulative hitlist-match count
//   u32  label count, then per label: u16 length + raw bytes
//   u64  row count
//   rows, sorted by (subscriber, service) at the emitter so identical
//   state produces identical bytes:
//     u64 subscriber, u32 label index
//     u8  flags: bit0 = mask[1] present, bit1 = packets written as u64
//         (canonical: u64 only when the value exceeds 0xffffffff)
//     u64 mask[0]; u64 mask[1] when bit0
//     u32 or u64 packets
//     u32 first_seen
//
// The flag byte drops the second mask word (rarely nonzero — the catalog
// maximum is 34 monitored domains) and narrows the cumulative packet
// counter.
//
// decode_delta() is strict: wrong magic/version/kind, label indices out
// of range, counts the buffer cannot hold, truncation, trailing bytes, or
// non-canonical field widths all reject the datagram (the structure-aware
// fuzzer in tests/fuzz/fuzz_vantage_delta.cpp hammers exactly these
// guards), and a successful decode re-encodes to byte-identical input.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace haystack::flow {

inline constexpr std::uint32_t kDeltaMagic = 0x48535644U;  // "HSVD"
inline constexpr std::uint32_t kDeltaVersion = 2;

enum class DeltaKind : std::uint8_t {
  kDelta = 0,     ///< evidence touched during one epoch (cumulative rows)
  kSnapshot = 1,  ///< full cumulative state (restart resync / late join)
};

/// One evidence row: the emitting collector's cumulative state for a
/// (subscriber, label) pair.
struct DeltaRow {
  std::uint64_t subscriber = 0;
  std::uint32_t label = 0;  ///< index into EvidenceDelta::labels
  std::uint64_t mask0 = 0;
  std::uint64_t mask1 = 0;
  std::uint64_t packets = 0;       ///< cumulative sampled packets
  std::uint32_t first_seen = 0;    ///< collector-local first-seen hour
};

/// A decoded delta (or snapshot) message.
struct EvidenceDelta {
  std::uint32_t collector = 0;
  std::uint32_t seq = 0;
  std::uint32_t epoch = 0;
  DeltaKind kind = DeltaKind::kDelta;
  std::uint64_t threshold_bits = 0;
  std::uint64_t flows = 0;
  std::uint64_t matched = 0;
  std::vector<std::string> labels;
  std::vector<DeltaRow> rows;
};

/// Serializes a delta. Rows are emitted in the order given; emitters sort
/// by (subscriber, label) so identical state produces identical bytes.
[[nodiscard]] std::vector<std::uint8_t> encode_delta(
    const EvidenceDelta& delta);

/// Parses a delta datagram. Returns false — leaving `out` unspecified —
/// on any malformed input; `error`, when non-null, receives the reason.
[[nodiscard]] bool decode_delta(std::span<const std::uint8_t> datagram,
                                EvidenceDelta& out,
                                std::string* error = nullptr);

}  // namespace haystack::flow
