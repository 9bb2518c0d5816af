// Compiled per-template decode plans (ISSUE 6 tentpole).
//
// The reference decoders (nf9::Collector::decode_data_flowset,
// ipfix::Collector::decode_data_set) re-walk the template's field list for
// every record, dispatching a switch per field. Since the template's
// *declared* lengths fully determine record framing — every field branch
// consumes exactly its declared length — the walk can be compiled once per
// template into a flat list of (destination column, byte offset) ops plus
// a fixed record length. Executing the plan then decodes a whole data
// set with fixed-offset big-endian loads straight into `FlowBatch`
// columns: no ByteReader, no per-field dispatch, no FlowRecord.
//
// Equivalence contract (enforced by the differential tier and the fuzz
// targets): for any template and body, `execute` appends exactly the rows
// the reference walk would have produced, bit for bit. Templates the plan
// cannot represent at fixed offsets — IPFIX variable-length fields
// (length 0xffff), whose per-record size varies — compile with
// `fast == false`, and the collector falls back to the reference walk.
// Fields whose (type, length) pair the reference would skip (unknown
// types, unsupported declared lengths — "declared-length lies") simply
// get no op: the offset accumulation skips them, exactly like the
// reference's skip-at-declared-length rule. Duplicate fields get one op
// each in template order, so the last write wins as in the reference.
//
// A collector's `scan` (the stateful half of batch decode) does not
// execute plans itself: it hands back one `BodyJob` per data flowset or
// set, and `execute(job, out)` decodes it later, on any thread. A job
// owns everything it reads — the plan it was scanned under and, for a
// recovered parked body, the body bytes — except a body that points into
// its datagram, which the caller keeps alive until the job has run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "flow/flow_batch.hpp"
#include "flow/record.hpp"

namespace haystack::flow::plan {

/// Destination column + load width for one decoded field.
enum class Dst : std::uint8_t {
  kSrcV4,       ///< 4-byte IPv4 source address
  kDstV4,       ///< 4-byte IPv4 destination address
  kSrcV6,       ///< 16-byte IPv6 source address
  kDstV6,       ///< 16-byte IPv6 destination address
  kSrcPort,     ///< u16
  kDstPort,     ///< u16
  kProto,       ///< u8
  kTcpFlags,    ///< u8
  kPackets64,   ///< u64 packet delta
  kPackets32,   ///< u32 packet delta (v9 exporters commonly use 4 bytes)
  kBytes64,     ///< u64 octet delta
  kBytes32,     ///< u32 octet delta
  kStart32,     ///< u32 FIRST_SWITCHED (v9, sysUptime ms)
  kEnd32,       ///< u32 LAST_SWITCHED (v9)
  kStart64,     ///< u64 flowStartMilliseconds (IPFIX)
  kEnd64,       ///< u64 flowEndMilliseconds (IPFIX)
  kSampling,    ///< u32 sampling interval
};

struct FieldOp {
  Dst dst;
  std::uint16_t offset;  ///< byte offset of the field within the record
};

/// One template's compiled decode plan.
struct CompiledPlan {
  std::size_t record_len = 0;  ///< declared bytes per record (fast plans)
  /// False when the template cannot be decoded at fixed offsets (IPFIX
  /// variable-length fields, or a record too large for u16 offsets);
  /// callers must use the reference walk instead.
  bool fast = false;
  std::vector<FieldOp> ops;  ///< in template order; later ops overwrite
};

/// Codec-neutral view of one template field, as parsed off the wire.
struct WireField {
  std::uint16_t id = 0;      ///< v9 field type / IPFIX IE (enterprise bit
                             ///< already stripped)
  std::uint16_t length = 0;  ///< declared length; 0xffff = IPFIX variable
  bool enterprise = false;   ///< IPFIX enterprise-specific field
};

/// Compiles a NetFlow v9 template. v9 has no variable-length fields, so
/// the result is always `fast` unless the record exceeds u16 offsets.
[[nodiscard]] CompiledPlan compile_netflow_v9(
    std::span<const WireField> fields);

/// Compiles an IPFIX template. Variable-length fields (declared length
/// 0xffff — checked before the enterprise bit, mirroring the reference
/// decoder) force `fast = false`. Enterprise fields are fixed-length
/// skips.
[[nodiscard]] CompiledPlan compile_ipfix(std::span<const WireField> fields);

/// Decodes `body` under a fast plan, appending floor(body.size() /
/// record_len) rows to `out`. Returns the number of rows appended.
/// Preconditions: `plan.fast` and `plan.record_len > 0`.
std::size_t execute(const CompiledPlan& plan,
                    std::span<const std::uint8_t> body, FlowBatch& out);

/// One data flowset (v9) or data set (IPFIX) that a collector's scan
/// deferred. With a plan, `body` decodes under it at execute time; a
/// later re-announcement or restart cannot change what the job decodes.
/// Without one (a template the plan cannot represent), the scan already
/// ran the reference walk, and `records` holds its rows.
struct BodyJob {
  std::shared_ptr<const CompiledPlan> plan;
  /// The record bytes: a span into the datagram, or into `parked`.
  std::span<const std::uint8_t> body;
  /// A recovered parked body's bytes, moved out of the collector's park.
  /// Moving a vector keeps its buffer, so `body` stays valid when the job
  /// moves.
  std::vector<std::uint8_t> parked;
  std::vector<FlowRecord> records;
};

/// Appends the job's rows to `out` — exactly the rows the collector's
/// record-at-a-time walk yields for that body — and returns their count.
std::size_t execute(const BodyJob& job, FlowBatch& out);

}  // namespace haystack::flow::plan
