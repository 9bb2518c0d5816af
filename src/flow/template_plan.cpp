#include "flow/template_plan.hpp"

#include <cstring>

#include "net/ip_address.hpp"

namespace haystack::flow::plan {

namespace {

// Field ids shared by NetFlow v9 (RFC 3954 §8) and IPFIX (RFC 7011 /
// IANA): the v9 field-type space is the seed of the IPFIX IE space, so
// the common fields carry the same numbers in both codecs.
constexpr std::uint16_t kInBytes = 1;
constexpr std::uint16_t kInPkts = 2;
constexpr std::uint16_t kProtocol = 4;
constexpr std::uint16_t kTcpFlags = 6;
constexpr std::uint16_t kL4SrcPort = 7;
constexpr std::uint16_t kIpv4SrcAddr = 8;
constexpr std::uint16_t kL4DstPort = 11;
constexpr std::uint16_t kIpv4DstAddr = 12;
constexpr std::uint16_t kLastSwitched = 21;   // v9 only
constexpr std::uint16_t kFirstSwitched = 22;  // v9 only
constexpr std::uint16_t kIpv6SrcAddr = 27;
constexpr std::uint16_t kIpv6DstAddr = 28;
constexpr std::uint16_t kSamplingInterval = 34;
constexpr std::uint16_t kFlowStartMs = 152;  // IPFIX only
constexpr std::uint16_t kFlowEndMs = 153;    // IPFIX only

/// Maps one fixed-length field to its destination column, mirroring the
/// reference decoders' per-field switches: a (type, length) pair either
/// decodes at exactly the declared length or is skipped at the declared
/// length. `v9_times` selects the 32-bit FIRST/LAST_SWITCHED pair versus
/// the 64-bit IPFIX millisecond IEs.
bool map_field(std::uint16_t id, std::uint16_t length, bool v9_times,
               Dst& dst) {
  switch (id) {
    case kIpv4SrcAddr:
      if (length != 4) return false;
      dst = Dst::kSrcV4;
      return true;
    case kIpv4DstAddr:
      if (length != 4) return false;
      dst = Dst::kDstV4;
      return true;
    case kIpv6SrcAddr:
      if (length != 16) return false;
      dst = Dst::kSrcV6;
      return true;
    case kIpv6DstAddr:
      if (length != 16) return false;
      dst = Dst::kDstV6;
      return true;
    case kL4SrcPort:
      if (length != 2) return false;
      dst = Dst::kSrcPort;
      return true;
    case kL4DstPort:
      if (length != 2) return false;
      dst = Dst::kDstPort;
      return true;
    case kProtocol:
      if (length != 1) return false;
      dst = Dst::kProto;
      return true;
    case kTcpFlags:
      if (length != 1) return false;
      dst = Dst::kTcpFlags;
      return true;
    case kInPkts:
      if (length == 8) {
        dst = Dst::kPackets64;
        return true;
      }
      if (length == 4) {
        dst = Dst::kPackets32;
        return true;
      }
      return false;
    case kInBytes:
      if (length == 8) {
        dst = Dst::kBytes64;
        return true;
      }
      if (length == 4) {
        dst = Dst::kBytes32;
        return true;
      }
      return false;
    case kFirstSwitched:
      if (!v9_times || length != 4) return false;
      dst = Dst::kStart32;
      return true;
    case kLastSwitched:
      if (!v9_times || length != 4) return false;
      dst = Dst::kEnd32;
      return true;
    case kFlowStartMs:
      if (v9_times || length != 8) return false;
      dst = Dst::kStart64;
      return true;
    case kFlowEndMs:
      if (v9_times || length != 8) return false;
      dst = Dst::kEnd64;
      return true;
    case kSamplingInterval:
      if (length != 4) return false;
      dst = Dst::kSampling;
      return true;
    default:
      return false;
  }
}

CompiledPlan compile_fixed(std::span<const WireField> fields, bool v9_times,
                           bool allow_var) {
  CompiledPlan plan;
  std::size_t offset = 0;
  for (const auto& f : fields) {
    if (allow_var && f.length == 0xffffU) {
      // Variable-length framing cannot be decoded at fixed offsets; the
      // collector falls back to the reference walk. (The check precedes
      // the enterprise bit, matching decode_data_set.)
      return CompiledPlan{};
    }
    Dst dst;
    if (!f.enterprise && map_field(f.id, f.length, v9_times, dst)) {
      plan.ops.push_back({dst, static_cast<std::uint16_t>(offset)});
    }
    offset += f.length;
  }
  plan.record_len = offset;
  // A record too large for u16 op offsets cannot occur inside a u16-length
  // flowset anyway; route it through the reference walk rather than
  // emitting truncated offsets.
  plan.fast = offset <= 0xffffU;
  if (!plan.fast) plan.ops.clear();
  return plan;
}

inline std::uint16_t load_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((std::uint16_t{p[0]} << 8) | p[1]);
}

inline std::uint32_t load_u32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline std::uint64_t load_u64(const std::uint8_t* p) {
  return (std::uint64_t{load_u32(p)} << 32) | load_u32(p + 4);
}

}  // namespace

CompiledPlan compile_netflow_v9(std::span<const WireField> fields) {
  return compile_fixed(fields, /*v9_times=*/true, /*allow_var=*/false);
}

CompiledPlan compile_ipfix(std::span<const WireField> fields) {
  return compile_fixed(fields, /*v9_times=*/false, /*allow_var=*/true);
}

std::size_t execute(const CompiledPlan& plan,
                    std::span<const std::uint8_t> body, FlowBatch& out) {
  const std::size_t rec_len = plan.record_len;
  const std::size_t count = body.size() / rec_len;
  if (count == 0) return 0;
  out.reserve(out.size() + count);
  const std::uint8_t* base = body.data();
  for (std::size_t i = 0; i < count; ++i, base += rec_len) {
    const std::size_t row = out.append_defaults();
    for (const auto& op : plan.ops) {
      const std::uint8_t* p = base + op.offset;
      switch (op.dst) {
        case Dst::kSrcV4:
          out.src[row] = net::IpAddress::v4(load_u32(p));
          break;
        case Dst::kDstV4:
          out.dst[row] = net::IpAddress::v4(load_u32(p));
          break;
        case Dst::kSrcV6:
          out.src[row] = net::IpAddress::v6(load_u64(p), load_u64(p + 8));
          break;
        case Dst::kDstV6:
          out.dst[row] = net::IpAddress::v6(load_u64(p), load_u64(p + 8));
          break;
        case Dst::kSrcPort:
          out.src_port[row] = load_u16(p);
          break;
        case Dst::kDstPort:
          out.dst_port[row] = load_u16(p);
          break;
        case Dst::kProto:
          out.proto[row] = *p;
          break;
        case Dst::kTcpFlags:
          out.tcp_flags[row] = *p;
          break;
        case Dst::kPackets64:
          out.packets[row] = load_u64(p);
          break;
        case Dst::kPackets32:
          out.packets[row] = load_u32(p);
          break;
        case Dst::kBytes64:
          out.bytes[row] = load_u64(p);
          break;
        case Dst::kBytes32:
          out.bytes[row] = load_u32(p);
          break;
        case Dst::kStart32:
          out.start_ms[row] = load_u32(p);
          break;
        case Dst::kEnd32:
          out.end_ms[row] = load_u32(p);
          break;
        case Dst::kStart64:
          out.start_ms[row] = load_u64(p);
          break;
        case Dst::kEnd64:
          out.end_ms[row] = load_u64(p);
          break;
        case Dst::kSampling:
          out.sampling[row] = load_u32(p);
          break;
      }
    }
  }
  return count;
}

std::size_t execute(const BodyJob& job, FlowBatch& out) {
  if (job.plan) return execute(*job.plan, job.body, out);
  for (const FlowRecord& rec : job.records) out.push(rec);
  return job.records.size();
}

}  // namespace haystack::flow::plan
