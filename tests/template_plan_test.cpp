// Compiled template-plan tests (ISSUE 6 tentpole + satellite 3).
//
// Pins the compile-time contract of flow::plan — which templates compile
// `fast`, how unsupported and duplicate fields map to ops — and the
// execute-time equivalence against the record-at-a-time reference walk.
// Several cases are named fuzz regressions: inputs the structure-aware
// fuzzers surfaced while the zero-copy decode path was being built, kept
// here so they can never quietly regress.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "flow/flow_batch.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v9.hpp"
#include "flow/template_plan.hpp"
#include "flow/wire.hpp"

namespace haystack::flow::plan {
namespace {

// Field numbers shared by v9 and IPFIX (the v9 type space seeds the IPFIX
// IE space).
constexpr std::uint16_t kInBytes = 1;
constexpr std::uint16_t kInPkts = 2;
constexpr std::uint16_t kProtocol = 4;
constexpr std::uint16_t kL4DstPort = 11;
constexpr std::uint16_t kIpv4SrcAddr = 8;
constexpr std::uint16_t kIpv4DstAddr = 12;
constexpr std::uint16_t kFirstSwitched = 22;
constexpr std::uint16_t kFlowStartMs = 152;

TEST(TemplatePlan, CompilesFixedV9TemplateWithCorrectOffsets) {
  const std::vector<WireField> fields{
      {kIpv4SrcAddr, 4, false}, {kIpv4DstAddr, 4, false},
      {kL4DstPort, 2, false},   {kInPkts, 4, false},
      {kInBytes, 8, false},
  };
  const CompiledPlan plan = compile_netflow_v9(fields);
  ASSERT_TRUE(plan.fast);
  EXPECT_EQ(plan.record_len, 22u);
  ASSERT_EQ(plan.ops.size(), 5u);
  EXPECT_EQ(plan.ops[0].dst, Dst::kSrcV4);
  EXPECT_EQ(plan.ops[0].offset, 0u);
  EXPECT_EQ(plan.ops[1].dst, Dst::kDstV4);
  EXPECT_EQ(plan.ops[1].offset, 4u);
  EXPECT_EQ(plan.ops[2].dst, Dst::kDstPort);
  EXPECT_EQ(plan.ops[2].offset, 8u);
  EXPECT_EQ(plan.ops[3].dst, Dst::kPackets32);
  EXPECT_EQ(plan.ops[3].offset, 10u);
  EXPECT_EQ(plan.ops[4].dst, Dst::kBytes64);
  EXPECT_EQ(plan.ops[4].offset, 14u);
}

TEST(TemplatePlan, IpfixVariableLengthForcesReferenceWalk) {
  // Fuzz regression: an IPFIX template with a variable-length IE
  // (declared length 0xffff) has per-record framing the fixed-offset plan
  // cannot represent; it must compile slow, never a 65535-byte field.
  const std::vector<WireField> fields{
      {kIpv4DstAddr, 4, false},
      {292, 0xffff, false},  // subTemplateList, variable length
      {kL4DstPort, 2, false},
  };
  const CompiledPlan plan = compile_ipfix(fields);
  EXPECT_FALSE(plan.fast);
  EXPECT_TRUE(plan.ops.empty());

  // The same declared length in v9 *is* a fixed 65535-byte field (v9 has
  // no variable-length framing): one such field alone still fits u16
  // offsets and compiles fast.
  const std::vector<WireField> v9_fields{{999, 0xffff, false}};
  const CompiledPlan v9_plan = compile_netflow_v9(v9_fields);
  EXPECT_TRUE(v9_plan.fast);
  EXPECT_EQ(v9_plan.record_len, 0xffffu);
  EXPECT_TRUE(v9_plan.ops.empty());  // unknown type: skipped, no op
}

TEST(TemplatePlan, RecordsPastU16OffsetsCompileSlow) {
  // Fuzz regression ("declared-length lies"): two 65535-byte paddings
  // push a later field's offset past what u16 ops can encode. Emitting a
  // truncated offset would decode from the wrong bytes; the plan must
  // refuse and route through the reference walk instead.
  const std::vector<WireField> fields{
      {998, 0xffff, false},
      {999, 0xffff, false},
      {kIpv4DstAddr, 4, false},
  };
  const CompiledPlan plan = compile_netflow_v9(fields);
  EXPECT_FALSE(plan.fast);
  EXPECT_TRUE(plan.ops.empty());
}

TEST(TemplatePlan, EnterpriseAndUnsupportedFieldsSkipAtDeclaredLength) {
  // Enterprise IEs and (type, length) pairs the reference decoder does
  // not understand get no op, but their declared length still advances
  // the offset — exactly the reference's skip-at-declared-length rule.
  const std::vector<WireField> fields{
      {kIpv4SrcAddr, 4, true},    // enterprise bit: skip even a known id
      {kIpv4DstAddr, 8, false},   // length lie: v4 address must be 4 bytes
      {kProtocol, 1, false},
      {kFlowStartMs, 4, false},   // IPFIX ms IE must be 8 bytes
      {kL4DstPort, 2, false},
  };
  const CompiledPlan plan = compile_ipfix(fields);
  ASSERT_TRUE(plan.fast);
  EXPECT_EQ(plan.record_len, 4u + 8u + 1u + 4u + 2u);
  ASSERT_EQ(plan.ops.size(), 2u);
  EXPECT_EQ(plan.ops[0].dst, Dst::kProto);
  EXPECT_EQ(plan.ops[0].offset, 12u);
  EXPECT_EQ(plan.ops[1].dst, Dst::kDstPort);
  EXPECT_EQ(plan.ops[1].offset, 17u);
}

TEST(TemplatePlan, TimestampFieldsAreCodecSpecific) {
  // FIRST_SWITCHED is v9-only; flowStartMilliseconds is IPFIX-only. Each
  // codec must skip the other's timestamp instead of mis-decoding it.
  const std::vector<WireField> v9_time{{kFirstSwitched, 4, false}};
  EXPECT_EQ(compile_netflow_v9(v9_time).ops.size(), 1u);
  EXPECT_TRUE(compile_ipfix(v9_time).ops.empty());

  const std::vector<WireField> ipfix_time{{kFlowStartMs, 8, false}};
  EXPECT_TRUE(compile_netflow_v9(ipfix_time).ops.empty());
  EXPECT_EQ(compile_ipfix(ipfix_time).ops.size(), 1u);
}

TEST(TemplatePlan, EmptyTemplateCompilesFastWithZeroRecordLen) {
  // Fuzz regression: a zero-field template compiles to record_len == 0,
  // which violates execute()'s precondition (it would divide by zero).
  // The collectors guard it — a fast plan with record_len 0 makes the
  // data flowset malformed, exactly like the reference walk's "record
  // consumed no bytes" check. This pins the shape the guard keys on.
  const CompiledPlan plan = compile_netflow_v9({});
  EXPECT_TRUE(plan.fast);
  EXPECT_EQ(plan.record_len, 0u);
  EXPECT_TRUE(plan.ops.empty());
}

TEST(TemplatePlan, DuplicateFieldsLastWriteWins) {
  // Duplicate fields each get an op in template order, so execute()'s
  // later op overwrites the earlier — matching the reference walk, which
  // assigns the record member once per field occurrence.
  const std::vector<WireField> fields{
      {kIpv4DstAddr, 4, false},
      {kIpv4DstAddr, 4, false},
  };
  const CompiledPlan plan = compile_netflow_v9(fields);
  ASSERT_TRUE(plan.fast);
  ASSERT_EQ(plan.ops.size(), 2u);

  const std::array<std::uint8_t, 8> body{
      0x01, 0x02, 0x03, 0x04,   // first occurrence
      0xAA, 0xBB, 0xCC, 0xDD};  // second occurrence: must win
  FlowBatch batch;
  ASSERT_EQ(execute(plan, body, batch), 1u);
  EXPECT_EQ(batch.dst[0], net::IpAddress::v4(0xAABBCCDDu));
}

TEST(TemplatePlan, ExecuteFillsDefaultsAndIgnoresTrailingPartialRecord) {
  const std::vector<WireField> fields{{kL4DstPort, 2, false}};
  const CompiledPlan plan = compile_netflow_v9(fields);
  ASSERT_TRUE(plan.fast);

  // 2 full records + 1 trailing byte: the partial record is padding, as
  // in the reference walk.
  const std::array<std::uint8_t, 5> body{0x01, 0xBB, 0x00, 0x50, 0xFF};
  FlowBatch batch;
  ASSERT_EQ(execute(plan, body, batch), 2u);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.dst_port[0], 0x01BBu);
  EXPECT_EQ(batch.dst_port[1], 0x0050u);
  // Untouched columns carry FlowRecord's member defaults.
  for (std::size_t i = 0; i < 2; ++i) {
    const FlowRecord rec = batch.record(i);
    const FlowRecord fresh;
    EXPECT_EQ(rec.key.proto, fresh.key.proto);      // 6
    EXPECT_EQ(rec.sampling, fresh.sampling);        // 1
    EXPECT_EQ(rec.packets, fresh.packets);
    EXPECT_EQ(rec.key.src, fresh.key.src);
    EXPECT_EQ(rec.key.dst_port, 0u + batch.dst_port[i]);
  }
}

// ---------------------------------------------------------------------------
// Wire-level equivalence: for real exporter traffic, ingest_batch rows
// must reconstruct bit-for-bit the FlowRecords the reference walk emits.
// (The differential tier sweeps this at pipeline scale; this is the
// narrow, debuggable version.)

std::vector<FlowRecord> sample_records(std::size_t n) {
  std::vector<FlowRecord> records;
  for (std::uint32_t i = 0; i < n; ++i) {
    FlowRecord rec;
    if (i % 3 == 0) {
      rec.key.src = net::IpAddress::v6(0x20010db8ULL << 32, i);
      rec.key.dst = net::IpAddress::v6(0x20010db8ULL << 32, 0x10000ULL + i);
    } else {
      rec.key.src = net::IpAddress::v4(0x0a000000U + i);
      rec.key.dst = net::IpAddress::v4(0x34000000U + i * 7);
    }
    rec.key.src_port = static_cast<std::uint16_t>(30000 + i);
    rec.key.dst_port = 443;
    rec.key.proto = 6;
    rec.tcp_flags = 0x1b;
    rec.packets = 1 + i;
    rec.bytes = 100 + i * 11;
    rec.start_ms = i * 1000;
    rec.end_ms = i * 1000 + 400;
    rec.sampling = 1000;
    records.push_back(rec);
  }
  return records;
}

void expect_same_records(const std::vector<FlowRecord>& reference,
                         const FlowBatch& batch) {
  ASSERT_EQ(batch.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const FlowRecord& a = reference[i];
    const FlowRecord b = batch.record(i);
    EXPECT_EQ(a.key.src, b.key.src) << "row " << i;
    EXPECT_EQ(a.key.dst, b.key.dst) << "row " << i;
    EXPECT_EQ(a.key.src_port, b.key.src_port) << "row " << i;
    EXPECT_EQ(a.key.dst_port, b.key.dst_port) << "row " << i;
    EXPECT_EQ(a.key.proto, b.key.proto) << "row " << i;
    EXPECT_EQ(a.tcp_flags, b.tcp_flags) << "row " << i;
    EXPECT_EQ(a.packets, b.packets) << "row " << i;
    EXPECT_EQ(a.bytes, b.bytes) << "row " << i;
    EXPECT_EQ(a.start_ms, b.start_ms) << "row " << i;
    EXPECT_EQ(a.end_ms, b.end_ms) << "row " << i;
    EXPECT_EQ(a.sampling, b.sampling) << "row " << i;
  }
}

TEST(TemplatePlan, NetflowV9BatchMatchesReferenceWalk) {
  nf9::Exporter exporter{{.source_id = 5, .template_refresh_packets = 1}};
  const auto records = sample_records(60);
  const auto packets = exporter.export_flows(records, 1574000000);

  nf9::Collector ref;
  nf9::Collector fast;
  std::vector<FlowRecord> ref_out;
  FlowBatch batch;
  for (const auto& packet : packets) {
    ASSERT_TRUE(ref.ingest(packet, ref_out));
    ASSERT_TRUE(fast.ingest_batch(packet, batch));
  }
  expect_same_records(ref_out, batch);
  EXPECT_EQ(ref.stats().records, fast.stats().records);
  EXPECT_EQ(ref.stats().templates_learned, fast.stats().templates_learned);
}

TEST(TemplatePlan, IpfixBatchMatchesReferenceWalk) {
  ipfix::Exporter exporter{{.observation_domain = 9}};
  const auto records = sample_records(60);
  const auto packets = exporter.export_flows(records, 1574000000);

  ipfix::Collector ref;
  ipfix::Collector fast;
  std::vector<FlowRecord> ref_out;
  FlowBatch batch;
  for (const auto& packet : packets) {
    ASSERT_TRUE(ref.ingest(packet, ref_out));
    ASSERT_TRUE(fast.ingest_batch(packet, batch));
  }
  expect_same_records(ref_out, batch);
  EXPECT_EQ(ref.stats().records, fast.stats().records);
}

// A NetFlow v9 packet that announces template 256 with IN_PKTS 4 bytes
// wide instead of the exporter's 8, then carries `records` (IPv4) under
// it. Sequence and uptime continue the stream of an exporter that booted
// at Unix time 0 and has sent `sequence` packets.
std::vector<std::uint8_t> narrow_packets_packet(
    std::span<const FlowRecord> records, std::uint32_t source_id,
    std::uint32_t sequence, std::uint32_t unix_secs) {
  constexpr std::uint16_t kFields[][2] = {
      {kIpv4SrcAddr, 4}, {kIpv4DstAddr, 4}, {7, 2},  {kL4DstPort, 2},
      {kProtocol, 1},    {6, 1},            {kInPkts, 4}, {kInBytes, 8},
      {kFirstSwitched, 4}, {21, 4},         {34, 4}};
  ByteWriter w;
  w.u16(9);
  w.u16(2);  // flowsets
  w.u32(unix_secs * 1000U);
  w.u32(unix_secs);
  w.u32(sequence);
  w.u32(source_id);
  w.u16(0);  // template flowset
  w.u16(static_cast<std::uint16_t>(8 + 4 * std::size(kFields)));
  w.u16(nf9::kTemplateV4);
  w.u16(static_cast<std::uint16_t>(std::size(kFields)));
  for (const auto& f : kFields) {
    w.u16(f[0]);
    w.u16(f[1]);
  }
  const std::size_t length_offset = w.size() + 2;
  w.u16(nf9::kTemplateV4);
  w.u16(0);  // length placeholder
  for (const FlowRecord& rec : records) {
    w.u32(rec.key.src.v4_value());
    w.u32(rec.key.dst.v4_value());
    w.u16(rec.key.src_port);
    w.u16(rec.key.dst_port);
    w.u8(rec.key.proto);
    w.u8(rec.tcp_flags);
    w.u32(static_cast<std::uint32_t>(rec.packets));
    w.u64(rec.bytes);
    w.u32(static_cast<std::uint32_t>(rec.start_ms));
    w.u32(static_cast<std::uint32_t>(rec.end_ms));
    w.u32(rec.sampling);
  }
  const std::size_t unpadded = w.size() - (length_offset - 2);
  w.pad((4 - unpadded % 4) % 4);
  w.patch_u16(length_offset,
              static_cast<std::uint16_t>(w.size() - (length_offset - 2)));
  return w.take();
}

TEST(TemplatePlan, TemplateRedefinitionMidStreamRecompilesThePlan) {
  // Fuzz regression: a template id re-announced with a different layout
  // mid-stream must recompile the plan; decoding later data under the
  // stale plan reads the wrong offsets. The exporter's template 256 is
  // redefined by a hand-written packet whose IN_PKTS is 4 bytes wide, then
  // re-announced by the exporter. Every collector must track both
  // redefinitions exactly as the reference does — including one that
  // executes its jobs only after the last scan, so a job that read its
  // template entry at execute time instead of keeping the plan it was
  // scanned under would decode the narrow body at the wide offsets.
  const auto records = sample_records(8);
  std::vector<FlowRecord> v4;
  std::vector<FlowRecord> v6;
  for (const auto& rec : records) {
    (rec.key.src.is_v4() ? v4 : v6).push_back(rec);
  }
  constexpr std::uint32_t kTime = 1574000000;
  nf9::Exporter exporter{{.source_id = 3, .template_refresh_packets = 1}};
  std::vector<std::vector<std::uint8_t>> packets =
      exporter.export_flows(records, kTime);
  packets.push_back(
      narrow_packets_packet(v4, 3, exporter.packets_sent(), kTime));
  for (auto& packet : exporter.export_flows(records, kTime)) {
    packets.push_back(std::move(packet));
  }

  nf9::Collector ref;
  nf9::Collector fast;
  nf9::Collector deferred;
  std::vector<FlowRecord> ref_out;
  FlowBatch batch;
  std::vector<BodyJob> jobs;
  for (const auto& packet : packets) {
    ASSERT_TRUE(ref.ingest(packet, ref_out));
    ASSERT_TRUE(fast.ingest_batch(packet, batch));
    ASSERT_TRUE(deferred.scan(packet, jobs));
  }
  FlowBatch deferred_rows;
  for (const BodyJob& job : jobs) execute(job, deferred_rows);

  // Every packet decodes to the records written into it (the exporter
  // writes its IPv4 flowset first), the narrow one included.
  std::vector<FlowRecord> expected;
  for (const auto* part : {&v4, &v6, &v4, &v4, &v6}) {
    expected.insert(expected.end(), part->begin(), part->end());
  }
  ASSERT_EQ(ref_out, expected);
  expect_same_records(ref_out, batch);
  expect_same_records(ref_out, deferred_rows);
  EXPECT_EQ(ref.stats().templates_learned, 5u);
  EXPECT_EQ(deferred.stats().records, ref.stats().records);
  EXPECT_EQ(fast.stats().records, ref.stats().records);
}

}  // namespace
}  // namespace haystack::flow::plan
