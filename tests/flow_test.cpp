// Unit tests for the flow substrate: byte-stream primitives, the NetFlow v9
// and IPFIX codecs (round trips, template statefulness, malformed input),
// samplers (statistical properties), and the flow cache.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "flow/flow_cache.hpp"
#include "flow/gap_tracker.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v9.hpp"
#include "flow/options.hpp"
#include "flow/sampler.hpp"
#include "flow/wire.hpp"

namespace haystack::flow {
namespace {

FlowRecord make_record(std::uint32_t salt) {
  FlowRecord rec;
  rec.key.src = net::IpAddress::v4(0x64400000 + salt);
  rec.key.dst = net::IpAddress::v4(0x34000000 + salt * 3);
  rec.key.src_port = static_cast<std::uint16_t>(40000 + salt);
  rec.key.dst_port = 443;
  rec.key.proto = 6;
  rec.tcp_flags = tcpflags::kSyn | tcpflags::kAck | tcpflags::kPsh;
  rec.packets = 10 + salt;
  rec.bytes = 1000 + salt * 7;
  rec.start_ms = 1000 * salt;
  rec.end_ms = 1000 * salt + 500;
  rec.sampling = 1000;
  return rec;
}

FlowRecord make_v6_record(std::uint32_t salt) {
  FlowRecord rec = make_record(salt);
  rec.key.src = net::IpAddress::v6(0x20010db800000000ULL, salt);
  rec.key.dst = net::IpAddress::v6(0x20010db800000000ULL, 0x10000ULL + salt);
  return rec;
}

TEST(WireTest, WriterReaderRoundtrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  ByteReader r{w.data()};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefU);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, BigEndianOnTheWire) {
  ByteWriter w;
  w.u16(0x0102);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[1], 0x02);
}

TEST(WireTest, ReaderLatchesOnUnderflow) {
  const std::uint8_t bytes[2] = {1, 2};
  ByteReader r{bytes};
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // still failed
}

TEST(WireTest, PatchU16) {
  ByteWriter w;
  w.u16(0);
  w.u32(42);
  w.patch_u16(0, 0xbeef);
  ByteReader r{w.data()};
  EXPECT_EQ(r.u16(), 0xbeef);
}

TEST(NetFlowV9Test, RoundtripMixedFamilies) {
  nf9::Exporter exporter{{.source_id = 3}};
  nf9::Collector collector;
  std::vector<FlowRecord> input;
  for (std::uint32_t i = 0; i < 50; ++i) {
    input.push_back(i % 3 == 0 ? make_v6_record(i) : make_record(i));
  }
  std::vector<FlowRecord> output;
  for (const auto& packet : exporter.export_flows(input, 1574000000)) {
    EXPECT_TRUE(collector.ingest(packet, output));
  }
  ASSERT_EQ(output.size(), input.size());
  // Records arrive family-grouped per packet; compare as multisets.
  std::sort(input.begin(), input.end());
  std::sort(output.begin(), output.end());
  EXPECT_EQ(input, output);
  EXPECT_EQ(collector.stats().records, 50u);
  EXPECT_GE(collector.stats().templates_learned, 2u);
}

TEST(NetFlowV9Test, DataBeforeTemplateIsBufferedAndRecovered) {
  // Packet 2 carries data only; a fresh collector that never saw packet 1
  // parks the flowset, and decodes it the moment the template arrives.
  nf9::Exporter exporter{{.max_records_per_packet = 4,
                          .template_refresh_packets = 100}};
  std::vector<FlowRecord> input;
  for (std::uint32_t i = 0; i < 8; ++i) input.push_back(make_record(i));
  const auto packets = exporter.export_flows(input, 1574000000);
  ASSERT_GE(packets.size(), 2u);

  nf9::Collector fresh;
  std::vector<FlowRecord> out;
  EXPECT_TRUE(fresh.ingest(packets[1], out));  // no template learned yet
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(fresh.stats().unknown_template_flowsets, 1u);
  EXPECT_EQ(fresh.stats().buffered_flowsets, 1u);
  EXPECT_EQ(fresh.pending_flowsets(), 1u);

  // Learning the template from packet 0 recovers the parked flowset, so
  // this single ingest yields packet 1's 4 records plus packet 0's own 4.
  EXPECT_TRUE(fresh.ingest(packets[0], out));
  EXPECT_EQ(out.size(), 8u);
  EXPECT_EQ(fresh.stats().recovered_flowsets, 1u);
  EXPECT_EQ(fresh.stats().recovered_records, 4u);
  EXPECT_EQ(fresh.pending_flowsets(), 0u);
  EXPECT_EQ(fresh.stats().records, 8u);

  // Re-ingesting packet 1 now decodes directly (dedup is off by default).
  EXPECT_TRUE(fresh.ingest(packets[1], out));
  EXPECT_EQ(out.size(), 12u);
}

TEST(NetFlowV9Test, ZeroLengthUnknownFlowsetParksEmptyBody) {
  // Regression (UBSan finding via fuzz_netflow_v9): a data flowset of
  // declared length 4 — header only, zero body bytes — for an unknown
  // template id parks an *empty* body. Copying that body handed memcpy a
  // null destination pointer (an empty span's data() may be null).
  ByteWriter w;
  w.u16(9);            // version
  w.u16(0);            // record count
  w.u32(12345);        // sysUptime
  w.u32(1574000000);   // unix secs
  w.u32(1);            // sequence
  w.u32(7);            // source id
  w.u16(999);          // data flowset id, never announced
  w.u16(4);            // declared length: flowset header only

  nf9::Collector collector;
  std::vector<FlowRecord> out;
  EXPECT_TRUE(collector.ingest(w.data(), out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(collector.stats().unknown_template_flowsets, 1u);
  EXPECT_EQ(collector.stats().buffered_flowsets, 1u);
  EXPECT_EQ(collector.pending_flowsets(), 1u);

  nf9::Collector batch_collector;
  FlowBatch batch;
  EXPECT_TRUE(batch_collector.ingest_batch(w.data(), batch));
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_EQ(batch_collector.stats().buffered_flowsets, 1u);
}

TEST(NetFlowV9Test, TemplatesAreScopedBySourceId) {
  nf9::Exporter exporter_a{{.source_id = 1}};
  nf9::Exporter exporter_b{{.source_id = 2, .template_refresh_packets = 100}};
  // Learn templates only from source 1...
  nf9::Collector collector;
  std::vector<FlowRecord> out;
  std::vector<FlowRecord> input{make_record(1)};
  for (const auto& p : exporter_a.export_flows(input, 1)) {
    collector.ingest(p, out);
  }
  out.clear();
  // ...then source 2's data flowsets must NOT decode with them. Force
  // exporter_b to skip templates by pre-advancing its packet counter.
  std::vector<FlowRecord> warmup{make_record(2)};
  (void)exporter_b.export_flows(warmup, 1);  // packet 0 includes templates
  const auto packets = exporter_b.export_flows(input, 2);
  std::uint64_t unknown_before = collector.stats().unknown_template_flowsets;
  for (const auto& p : packets) collector.ingest(p, out);
  EXPECT_GT(collector.stats().unknown_template_flowsets, unknown_before);
}

TEST(NetFlowV9Test, MalformedPacketRejected) {
  nf9::Collector collector;
  std::vector<FlowRecord> out;
  std::vector<std::uint8_t> junk{0, 9, 0, 1};  // truncated header
  EXPECT_FALSE(collector.ingest(junk, out));
  EXPECT_EQ(collector.stats().malformed_packets, 1u);
  // Wrong version.
  std::vector<std::uint8_t> v5(20, 0);
  v5[1] = 5;
  EXPECT_FALSE(collector.ingest(v5, out));
}

TEST(NetFlowV9Test, TemplateFieldLengthMismatchDoesNotDesync) {
  // A template that declares PROTOCOL with length 2 (RFC encoding is 1
  // byte). The decoder must skip the field at its *declared* length so the
  // following fields stay aligned, instead of silently mis-reading the
  // record with a one-byte shift.
  ByteWriter p;
  p.u16(9);          // version
  p.u16(2);          // count: template + data
  p.u32(1000);       // uptime
  p.u32(1574000000); // export secs
  p.u32(0);          // sequence
  p.u32(1);          // source id
  // Template flowset: id 300, 3 fields.
  p.u16(0);
  p.u16(4 + 4 + 3 * 4);  // flowset length
  p.u16(300);
  p.u16(3);
  p.u16(static_cast<std::uint16_t>(nf9::FieldType::kProtocol));
  p.u16(2);  // wrong: wire encoding is 1 byte
  p.u16(static_cast<std::uint16_t>(nf9::FieldType::kIpv4SrcAddr));
  p.u16(4);
  p.u16(static_cast<std::uint16_t>(nf9::FieldType::kL4DstPort));
  p.u16(2);
  // Data flowset: one record: proto (2 bytes), src, dst port.
  p.u16(300);
  p.u16(4 + 2 + 4 + 2);
  p.u16(0x1100);  // would decode as 17 if misread at 1 byte
  p.u32(0x0a010203);
  p.u16(8883);

  nf9::Collector collector;
  std::vector<FlowRecord> out;
  EXPECT_TRUE(collector.ingest(p.data(), out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key.proto, 6);  // skipped: FlowKey default, not 17
  EXPECT_EQ(out[0].key.src, net::IpAddress::v4(0x0a010203));
  EXPECT_EQ(out[0].key.dst_port, 8883);
}

TEST(NetFlowV9Test, TemplateFieldCountExceedingBodyRejected) {
  // A template flowset claiming 0xffff fields in a 12-byte body must be
  // rejected before any allocation sized from the count.
  ByteWriter p;
  p.u16(9);
  p.u16(1);
  p.u32(1000);
  p.u32(1574000000);
  p.u32(0);
  p.u32(1);
  p.u16(0);    // template flowset
  p.u16(12);   // flowset length: header + tid + count only
  p.u16(300);
  p.u16(0xffff);  // absurd field count, no specs follow
  nf9::Collector collector;
  std::vector<FlowRecord> out;
  EXPECT_FALSE(collector.ingest(p.data(), out));
  EXPECT_EQ(collector.stats().malformed_packets, 1u);
}

TEST(NetFlowV9Test, EmptyInputStillEmitsTemplatePacket) {
  nf9::Exporter exporter{{}};
  const auto packets = exporter.export_flows({}, 1574000000);
  ASSERT_EQ(packets.size(), 1u);
  nf9::Collector collector;
  std::vector<FlowRecord> out;
  EXPECT_TRUE(collector.ingest(packets[0], out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(collector.stats().templates_learned, 2u);
}

TEST(IpfixTest, RoundtripMixedFamilies) {
  ipfix::Exporter exporter{{.observation_domain = 9}};
  ipfix::Collector collector;
  std::vector<FlowRecord> input;
  for (std::uint32_t i = 0; i < 60; ++i) {
    FlowRecord rec = i % 4 == 0 ? make_v6_record(i) : make_record(i);
    rec.sampling = 10000;
    rec.start_ms = 0x123456789aULL + i;  // exercise 64-bit timestamps
    rec.end_ms = rec.start_ms + 100;
    input.push_back(rec);
  }
  std::vector<FlowRecord> output;
  for (const auto& msg : exporter.export_flows(input, 1574000000)) {
    EXPECT_TRUE(collector.ingest(msg, output));
  }
  ASSERT_EQ(output.size(), input.size());
  std::sort(input.begin(), input.end());
  std::sort(output.begin(), output.end());
  EXPECT_EQ(input, output);
  EXPECT_EQ(collector.stats().sequence_gaps, 0u);
}

TEST(IpfixTest, MessageLengthIsValidated) {
  ipfix::Exporter exporter{{}};
  std::vector<FlowRecord> input{make_record(1)};
  auto messages = exporter.export_flows(input, 1);
  ASSERT_FALSE(messages.empty());
  auto bad = messages[0];
  bad[2] ^= 0x40;  // corrupt total length
  ipfix::Collector collector;
  std::vector<FlowRecord> out;
  EXPECT_FALSE(collector.ingest(bad, out));
  EXPECT_EQ(collector.stats().malformed_messages, 1u);
}

TEST(IpfixTest, SequenceGapDetected) {
  ipfix::Exporter exporter{{.max_records_per_message = 2,
                            .template_refresh_messages = 1000}};
  std::vector<FlowRecord> input;
  for (std::uint32_t i = 0; i < 8; ++i) input.push_back(make_record(i));
  // First export message 0 with templates.
  auto all = exporter.export_flows(input, 1);
  ASSERT_GE(all.size(), 3u);
  ipfix::Collector collector;
  std::vector<FlowRecord> out;
  EXPECT_TRUE(collector.ingest(all[0], out));
  // Drop message 1: the sequence number of message 2 reveals the loss.
  EXPECT_TRUE(collector.ingest(all[2], out));
  EXPECT_EQ(collector.stats().sequence_gaps, 1u);
}

TEST(IpfixTest, VariableLengthAndEnterpriseFieldsSkipped) {
  // Hand-craft a template with a variable-length field and an
  // enterprise-numbered field around a sourceIPv4Address.
  ByteWriter m;
  m.u16(10);
  const std::size_t total_off = m.size();
  m.u16(0);
  m.u32(1574000000);
  m.u32(0);
  m.u32(77);
  // Template set: id 400, 3 fields: varlen(IE 210, len 65535),
  // enterprise(IE 100, len 2, PEN 9999), sourceIPv4Address(IE 8, len 4).
  const std::size_t set_off = m.size() + 2;
  m.u16(2);
  m.u16(0);
  m.u16(400);
  m.u16(3);
  m.u16(210);
  m.u16(0xffff);
  m.u16(0x8000U | 100);
  m.u16(2);
  m.u32(9999);
  m.u16(8);
  m.u16(4);
  m.patch_u16(set_off, static_cast<std::uint16_t>(m.size() - (set_off - 2)));
  // Data set: one record: varlen len=3 "abc", enterprise 2 bytes, IPv4.
  const std::size_t data_off = m.size() + 2;
  m.u16(400);
  m.u16(0);
  m.u8(3);
  m.u8('a');
  m.u8('b');
  m.u8('c');
  m.u16(0xcafe);
  m.u32(0x01020304);
  m.patch_u16(data_off,
              static_cast<std::uint16_t>(m.size() - (data_off - 2)));
  m.patch_u16(total_off, static_cast<std::uint16_t>(m.size()));

  ipfix::Collector collector;
  std::vector<FlowRecord> out;
  EXPECT_TRUE(collector.ingest(m.data(), out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key.src, net::IpAddress::v4(0x01020304));
}

TEST(IpfixTest, TemplateFieldLengthMismatchDoesNotDesync) {
  // destinationTransportPort declared 4 bytes (RFC encoding is 2): the
  // decoder must skip it at the declared length and keep the following
  // sourceIPv4Address aligned.
  ByteWriter m;
  m.u16(10);
  const std::size_t total_off = m.size();
  m.u16(0);
  m.u32(1574000000);
  m.u32(0);
  m.u32(42);
  // Template set: id 500, 2 fields.
  m.u16(2);
  m.u16(4 + 4 + 2 * 4);
  m.u16(500);
  m.u16(2);
  m.u16(11);  // destinationTransportPort
  m.u16(4);   // wrong width
  m.u16(8);   // sourceIPv4Address
  m.u16(4);
  // Data set: one record.
  m.u16(500);
  m.u16(4 + 4 + 4);
  m.u32(0x1bb30000);  // would misdecode as port 7091 + shifted address
  m.u32(0x0a090807);
  m.patch_u16(total_off, static_cast<std::uint16_t>(m.size()));

  ipfix::Collector collector;
  std::vector<FlowRecord> out;
  EXPECT_TRUE(collector.ingest(m.data(), out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key.dst_port, 0);  // skipped, not misdecoded
  EXPECT_EQ(out[0].key.src, net::IpAddress::v4(0x0a090807));
}

TEST(IpfixTest, TemplateFieldCountExceedingBodyRejected) {
  ByteWriter m;
  m.u16(10);
  const std::size_t total_off = m.size();
  m.u16(0);
  m.u32(1574000000);
  m.u32(0);
  m.u32(42);
  m.u16(2);       // template set
  m.u16(8);       // set length: id + count only, no specs
  m.u16(500);
  m.u16(0xffff);  // absurd field count
  m.patch_u16(total_off, static_cast<std::uint16_t>(m.size()));
  ipfix::Collector collector;
  std::vector<FlowRecord> out;
  EXPECT_FALSE(collector.ingest(m.data(), out));
  EXPECT_EQ(collector.stats().malformed_messages, 1u);
}

// The shared sequence tracker behind the v9/IPFIX collectors: 32-bit
// wraparound arithmetic, gap/replay/restart classification, multi-unit
// commits (IPFIX counts records, v9 counts packets).
TEST(GapTrackerTest, InOrderAndGapCounting) {
  SequenceTracker t{64};
  auto o = t.classify(100);
  EXPECT_EQ(o.event, SequenceEvent::kFirst);
  t.commit(100, 1, o);
  o = t.classify(101);
  EXPECT_EQ(o.event, SequenceEvent::kInOrder);
  t.commit(101, 1, o);
  o = t.classify(105);  // 102..104 lost
  EXPECT_EQ(o.event, SequenceEvent::kGap);
  EXPECT_EQ(o.lost_units, 3u);
  t.commit(105, 1, o);
  EXPECT_EQ(t.lost(), 3u);
  EXPECT_EQ(t.received(), 3u);
  EXPECT_DOUBLE_EQ(t.loss_fraction(), 0.5);
}

TEST(GapTrackerTest, ReplayCreditsLossBack) {
  SequenceTracker t{64};
  auto o = t.classify(0);
  t.commit(0, 1, o);
  o = t.classify(2);  // packet 1 presumed lost
  EXPECT_EQ(o.event, SequenceEvent::kGap);
  t.commit(2, 1, o);
  EXPECT_EQ(t.lost(), 1u);
  o = t.classify(1);  // ...but it was only reordered
  EXPECT_EQ(o.event, SequenceEvent::kReplay);
  t.commit(1, 1, o);
  EXPECT_EQ(t.lost(), 0u);
  EXPECT_EQ(t.received(), 3u);
  // The replay does not move the expectation backwards.
  o = t.classify(3);
  EXPECT_EQ(o.event, SequenceEvent::kInOrder);
}

TEST(GapTrackerTest, WraparoundIsSeamless) {
  SequenceTracker t{64};
  auto o = t.classify(0xffffffffU);
  t.commit(0xffffffffU, 1, o);
  o = t.classify(0);  // 0xffffffff + 1 wraps to 0
  EXPECT_EQ(o.event, SequenceEvent::kInOrder);
  t.commit(0, 1, o);
  o = t.classify(5);  // gap of 5 straddling nothing special
  EXPECT_EQ(o.event, SequenceEvent::kGap);
  EXPECT_EQ(o.lost_units, 4u);
  t.commit(5, 1, o);
  o = t.classify(0xfffffffeU);  // far backwards across the wrap => replay
  EXPECT_EQ(o.event, SequenceEvent::kReplay);
}

TEST(GapTrackerTest, MultiUnitWraparound) {
  // IPFIX-style: sequence counts records, messages carry up to 30 each.
  SequenceTracker t{256};
  auto o = t.classify(0xfffffff0U);
  t.commit(0xfffffff0U, 30, o);  // next expected: 0xe mod 2^32
  o = t.classify(0x0000000eU);
  EXPECT_EQ(o.event, SequenceEvent::kInOrder);
  t.commit(0x0000000eU, 30, o);
  o = t.classify(0x0000004aU);  // 30 flows lost after the boundary run
  EXPECT_EQ(o.event, SequenceEvent::kGap);
  EXPECT_EQ(o.lost_units, 30u);
}

TEST(GapTrackerTest, FarBackwardJumpIsRestart) {
  SequenceTracker t{64};
  auto o = t.classify(10'000);
  t.commit(10'000, 1, o);
  o = t.classify(3);  // 9998 behind: beyond any reorder window
  EXPECT_EQ(o.event, SequenceEvent::kRestart);
  t.reset();
  o = t.classify(3);
  EXPECT_EQ(o.event, SequenceEvent::kFirst);
  // reset() forgets the stream position only: the health counters are
  // cumulative across restarts, so the loss estimate spans incarnations.
  EXPECT_EQ(t.lost(), 0u);
  EXPECT_EQ(t.received(), 1u);
}

TEST(GapTrackerTest, RecoveryCreditsAndResync) {
  // A parked-set recovery: the records were received all along, they just
  // decoded late. They count as received, and the expectation jumps past
  // the sequence space they occupy so the next datagram reports no
  // phantom gap.
  SequenceTracker t{64};
  auto o = t.classify(0);
  t.commit(0, 10, o);
  EXPECT_EQ(t.received(), 10u);
  t.credit_recovered(4);  // 4 records decoded late from a parked set
  EXPECT_EQ(t.received(), 14u);
  t.advance_past(14);  // ...occupying sequence space 10..13
  o = t.classify(14);
  EXPECT_EQ(o.event, SequenceEvent::kInOrder);
  t.advance_past(5);  // backwards jump is ignored
  o = t.classify(14);
  EXPECT_EQ(o.event, SequenceEvent::kInOrder);
}

TEST(DeduperTest, SuppressesWithinWindowOnly) {
  DatagramDeduper dedup{2};
  const std::vector<std::uint8_t> a{1, 2, 3};
  const std::vector<std::uint8_t> b{4, 5, 6};
  const std::vector<std::uint8_t> c{7, 8, 9};
  EXPECT_FALSE(dedup.seen_before(a));
  EXPECT_TRUE(dedup.seen_before(a));
  EXPECT_FALSE(dedup.seen_before(b));
  EXPECT_FALSE(dedup.seen_before(c));  // evicts a from the 2-deep ring
  EXPECT_FALSE(dedup.seen_before(a));  // a forgotten => passes again
}

TEST(DeduperTest, WindowZeroDisables) {
  DatagramDeduper dedup{0};
  const std::vector<std::uint8_t> a{1, 2, 3};
  EXPECT_FALSE(dedup.seen_before(a));
  EXPECT_FALSE(dedup.seen_before(a));
}

TEST(DeduperTest, ExactOnContentAndLength) {
  // A real ~1 KB export datagram: the second packet of a 48-record export
  // carries 24 data records and no template.
  nf9::Exporter exporter{{.source_id = 5}};
  std::vector<FlowRecord> input;
  for (std::uint32_t i = 0; i < 48; ++i) input.push_back(make_record(i));
  const auto packets = exporter.export_flows(input, 1574000000);
  ASSERT_EQ(packets.size(), 2u);
  const std::vector<std::uint8_t>& datagram = packets[1];
  ASSERT_GT(datagram.size(), 900u);

  // Each check starts from a deduper that has seen only the datagram.
  const auto suppressed_after_datagram =
      [&](const std::vector<std::uint8_t>& other) {
        DatagramDeduper dedup{64};
        EXPECT_FALSE(dedup.seen_before(datagram));
        return dedup.seen_before(other);
      };
  EXPECT_TRUE(suppressed_after_datagram(
      std::vector<std::uint8_t>(datagram.begin(), datagram.end())));

  auto longer = datagram;
  longer.push_back(0);
  EXPECT_FALSE(suppressed_after_datagram(longer));
  const std::vector<std::uint8_t> shorter(datagram.begin(),
                                          datagram.end() - 1);
  EXPECT_FALSE(suppressed_after_datagram(shorter));
  for (std::size_t offset = 0; offset < datagram.size(); ++offset) {
    auto flipped = datagram;
    flipped[offset] ^= static_cast<std::uint8_t>(1U << (offset % 8));
    EXPECT_FALSE(suppressed_after_datagram(flipped)) << "offset " << offset;
  }

  // Zero-filled buffers differ only in length: every tail size, with and
  // without a whole 8- or 16-byte block in front.
  DatagramDeduper zeros{64};
  for (std::size_t len = 0; len <= 17; ++len) {
    EXPECT_FALSE(zeros.seen_before(std::vector<std::uint8_t>(len, 0)))
        << "length " << len;
  }
  for (std::size_t len = 0; len <= 17; ++len) {
    EXPECT_TRUE(zeros.seen_before(std::vector<std::uint8_t>(len, 0)))
        << "length " << len;
  }
}

TEST(NetFlowV9Test, DuplicateDatagramSuppressed) {
  nf9::Exporter exporter{{.source_id = 5}};
  std::vector<FlowRecord> input{make_record(1), make_record(2)};
  const auto packets = exporter.export_flows(input, 1574000000);
  nf9::Collector collector{nf9::CollectorConfig{.dedup_window = 16}};
  std::vector<FlowRecord> out;
  for (const auto& p : packets) EXPECT_TRUE(collector.ingest(p, out));
  const auto records_before = collector.stats().records;
  for (const auto& p : packets) EXPECT_TRUE(collector.ingest(p, out));
  EXPECT_EQ(collector.stats().records, records_before);  // no double count
  EXPECT_EQ(collector.stats().duplicate_packets, packets.size());
}

TEST(NetFlowV9Test, SequenceGapAndLossEstimate) {
  nf9::Exporter exporter{{.max_records_per_packet = 1,
                          .template_refresh_packets = 1}};
  std::vector<FlowRecord> input;
  for (std::uint32_t i = 0; i < 5; ++i) input.push_back(make_record(i));
  const auto packets = exporter.export_flows(input, 1574000000);
  ASSERT_EQ(packets.size(), 5u);
  nf9::Collector collector;
  std::vector<FlowRecord> out;
  EXPECT_TRUE(collector.ingest(packets[0], out));
  EXPECT_TRUE(collector.ingest(packets[3], out));  // 1 and 2 lost
  EXPECT_TRUE(collector.ingest(packets[4], out));
  EXPECT_EQ(collector.stats().sequence_gaps, 1u);
  EXPECT_EQ(collector.stats().estimated_lost_packets, 2u);
  const auto health = collector.health(1);  // default source id
  EXPECT_EQ(health.lost_units, 2u);
  EXPECT_EQ(health.received_units, 3u);
  EXPECT_GT(collector.estimated_loss(), 0.0);
}

TEST(NetFlowV9Test, ExporterRestartResetsTemplateState) {
  // Exporter A announces templates, then "crashes". Its replacement (same
  // source id, sequence reset, fresh boot time) re-announces; the
  // collector must detect the restart, drop the stale templates, and
  // decode the new stream.
  nf9::Exporter first{{.source_id = 9, .template_refresh_packets = 1}};
  std::vector<FlowRecord> input{make_record(1), make_record(2)};
  nf9::Collector collector;
  std::vector<FlowRecord> out;
  // Advance the first incarnation past the reorder window so the restart
  // is visible from the sequence alone.
  for (int i = 0; i < 70; ++i) {
    for (const auto& p : first.export_flows(input, 1574000000 + i)) {
      EXPECT_TRUE(collector.ingest(p, out));
    }
  }
  nf9::Exporter second{{.source_id = 9, .template_refresh_packets = 1,
                        .boot_unix_secs = 1574010000}};
  out.clear();
  for (const auto& p : second.export_flows(input, 1574010000)) {
    EXPECT_TRUE(collector.ingest(p, out));
  }
  EXPECT_EQ(collector.stats().exporter_restarts, 1u);
  EXPECT_EQ(out.size(), input.size());  // new stream decodes cleanly
  EXPECT_EQ(collector.health(9).restarts, 1u);
}

TEST(NetFlowV9Test, UptimeRegressionDetectsRestartInsideReorderWindow) {
  // Only a handful of packets before the crash: the new sequence lands
  // inside the reorder window, so the sysUptime regression is the only
  // restart signal.
  nf9::Exporter first{{.source_id = 9, .template_refresh_packets = 1}};
  std::vector<FlowRecord> input{make_record(1)};
  nf9::Collector collector;
  std::vector<FlowRecord> out;
  for (const auto& p : first.export_flows(input, 1574000000)) {
    EXPECT_TRUE(collector.ingest(p, out));
  }
  nf9::Exporter second{{.source_id = 9, .template_refresh_packets = 1,
                        .boot_unix_secs = 1574003600}};
  for (const auto& p : second.export_flows(input, 1574003600)) {
    EXPECT_TRUE(collector.ingest(p, out));
  }
  EXPECT_EQ(collector.stats().exporter_restarts, 1u);
}

TEST(OptionsTest, ZeroSamplingIntervalClampedAndCounted) {
  nf9::SamplingRegistry registry;
  registry.ingest(nf9::encode_sampling_announcement(
      {.source_id = 44, .interval = 0}, 1574000000, 0));
  ASSERT_TRUE(registry.interval_of(44).has_value());
  EXPECT_EQ(*registry.interval_of(44), 1u);  // clamped, not taken literally
  EXPECT_EQ(registry.zero_interval_announcements(), 1u);

  ipfix::Collector collector;
  std::vector<FlowRecord> out;
  EXPECT_TRUE(collector.ingest(
      ipfix::encode_sampling_options(77, 0, 1574000000, 0), out));
  ASSERT_TRUE(collector.announced_sampling(77).has_value());
  EXPECT_EQ(*collector.announced_sampling(77), 1u);
  EXPECT_EQ(collector.stats().zero_sampling_announcements, 1u);
}

TEST(SamplerTest, SystematicSelectsExactFraction) {
  SystematicSampler sampler{10};
  int selected = 0;
  for (int i = 0; i < 1000; ++i) {
    if (sampler.sample()) ++selected;
  }
  EXPECT_EQ(selected, 100);
  SystematicSampler all{1};
  EXPECT_TRUE(all.sample());
}

TEST(SamplerTest, RandomSamplerApproximatesRate) {
  RandomSampler sampler{100, util::Pcg32{5, 5}};
  int selected = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    if (sampler.sample()) ++selected;
  }
  EXPECT_NEAR(static_cast<double>(selected) / kN, 0.01, 0.002);
}

TEST(SamplerTest, BinomialMoments) {
  util::Pcg32 rng{31, 7};
  // Small-n exact path.
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    sum += static_cast<double>(binomial(rng, 20, 0.3));
  }
  EXPECT_NEAR(sum / 20000, 6.0, 0.15);
  // Large-n approximation paths.
  sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    sum += static_cast<double>(binomial(rng, 100000, 0.001));
  }
  EXPECT_NEAR(sum / 20000, 100.0, 2.0);
  EXPECT_EQ(binomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(binomial(rng, 10, 0.0), 0u);
  EXPECT_EQ(binomial(rng, 10, 1.0), 10u);
}

TEST(SamplerTest, ThinFlowVisibilityMatchesTheory) {
  // P(visible) = 1 - (1-1/N)^packets.
  util::Pcg32 rng{77, 3};
  FlowRecord rec = make_record(1);
  rec.packets = 1000;
  rec.bytes = 1000 * 600;
  constexpr std::uint32_t kInterval = 1000;
  int visible = 0;
  std::uint64_t sampled_packets = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (const auto thin = thin_flow(rec, kInterval, rng)) {
      ++visible;
      sampled_packets += thin->packets;
      EXPECT_GE(thin->packets, 1u);
      EXPECT_EQ(thin->sampling, kInterval);
    }
  }
  const double p_visible = 1.0 - std::pow(1.0 - 1.0 / kInterval, 1000.0);
  EXPECT_NEAR(static_cast<double>(visible) / kTrials, p_visible, 0.02);
  // Unconditional mean of sampled packets = packets/N.
  EXPECT_NEAR(static_cast<double>(sampled_packets) / kTrials, 1.0, 0.05);
}

TEST(SamplerTest, ThinFlowIdentityAtIntervalOne) {
  util::Pcg32 rng{1, 1};
  const FlowRecord rec = make_record(5);
  const auto thin = thin_flow(rec, 1, rng);
  ASSERT_TRUE(thin.has_value());
  EXPECT_EQ(thin->packets, rec.packets);
  EXPECT_EQ(thin->bytes, rec.bytes);
}

TEST(FlowCacheTest, AggregatesPacketsIntoFlow) {
  FlowCache cache{{.active_timeout_ms = 60'000, .idle_timeout_ms = 15'000}};
  std::vector<FlowRecord> out;
  PacketEvent pkt;
  pkt.key = make_record(1).key;
  pkt.bytes = 100;
  for (int i = 0; i < 5; ++i) {
    pkt.timestamp_ms = 1000 + static_cast<std::uint64_t>(i) * 10;
    pkt.tcp_flags = i == 0 ? tcpflags::kSyn : tcpflags::kAck;
    cache.add(pkt, out);
  }
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(cache.active_flows(), 1u);
  cache.flush_all(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].packets, 5u);
  EXPECT_EQ(out[0].bytes, 500u);
  EXPECT_EQ(out[0].tcp_flags, tcpflags::kSyn | tcpflags::kAck);
  EXPECT_EQ(out[0].start_ms, 1000u);
  EXPECT_EQ(out[0].end_ms, 1040u);
}

TEST(FlowCacheTest, IdleTimeoutExpires) {
  FlowCache cache{{.active_timeout_ms = 600'000, .idle_timeout_ms = 10'000}};
  std::vector<FlowRecord> out;
  PacketEvent a;
  a.key = make_record(1).key;
  a.timestamp_ms = 0;
  a.bytes = 10;
  cache.add(a, out);
  PacketEvent b;
  b.key = make_record(2).key;
  b.timestamp_ms = 30'000;  // sweeps out flow A
  b.bytes = 10;
  cache.add(b, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, a.key);
}

TEST(FlowCacheTest, ActiveTimeoutSplitsLongFlow) {
  FlowCache cache{{.active_timeout_ms = 60'000, .idle_timeout_ms = 600'000}};
  std::vector<FlowRecord> out;
  PacketEvent pkt;
  pkt.key = make_record(3).key;
  pkt.bytes = 1;
  for (std::uint64_t t = 0; t <= 70'000; t += 1'000) {
    pkt.timestamp_ms = t;
    cache.add(pkt, out);
  }
  EXPECT_GE(out.size(), 1u);  // at least one active-timeout export
}

TEST(FlowCacheTest, MaxEntriesEmergencyExpiryBoundsResidency) {
  // Under key churn the cache must stay within max_entries (emergency
  // expiry, as routers evict under table pressure) while conserving every
  // packet and byte across the records it exports.
  constexpr std::size_t kMaxEntries = 16;
  FlowCache cache{{.active_timeout_ms = 600'000,
                   .idle_timeout_ms = 600'000,  // only the bound can expire
                   .max_entries = kMaxEntries}};
  std::vector<FlowRecord> out;
  constexpr std::uint64_t kPackets = 500;
  std::uint64_t bytes_in = 0;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    PacketEvent pkt;
    pkt.key = make_record(1).key;
    pkt.key.src_port = static_cast<std::uint16_t>(i);  // distinct keys
    pkt.bytes = 40 + static_cast<std::uint32_t>(i % 7);
    pkt.timestamp_ms = 1000 + i;
    bytes_in += pkt.bytes;
    cache.add(pkt, out);
    EXPECT_LE(cache.active_flows(), kMaxEntries) << "packet " << i;
  }
  EXPECT_GE(out.size(), kPackets - kMaxEntries);  // churn forced exports
  cache.flush_all(out);
  EXPECT_EQ(cache.active_flows(), 0u);

  // Conservation: every packet and byte surfaces in exactly one record,
  // and no key is exported twice without an intervening re-insert.
  std::uint64_t packets_out = 0;
  std::uint64_t bytes_out = 0;
  std::set<std::uint16_t> ports;
  for (const auto& rec : out) {
    packets_out += rec.packets;
    bytes_out += rec.bytes;
    EXPECT_TRUE(ports.insert(rec.key.src_port).second)
        << "duplicate export for port " << rec.key.src_port;
  }
  EXPECT_EQ(packets_out, kPackets);
  EXPECT_EQ(bytes_out, bytes_in);
  EXPECT_EQ(ports.size(), kPackets);  // one record per distinct key
}

TEST(EstablishedTcpTest, RequiresAckAndPush) {
  FlowRecord rec = make_record(1);
  rec.tcp_flags = tcpflags::kSyn;
  EXPECT_FALSE(rec.shows_established_tcp());
  rec.tcp_flags = tcpflags::kSyn | tcpflags::kAck | tcpflags::kPsh;
  EXPECT_TRUE(rec.shows_established_tcp());
  rec.key.proto = 17;  // UDP always passes
  rec.tcp_flags = 0;
  EXPECT_TRUE(rec.shows_established_tcp());
}

}  // namespace
}  // namespace haystack::flow
