// Structure-aware fuzzer for the NetFlow v9 collector.
//
// Corpus: real Exporter output (template + data packets, both families,
// several record counts). Structure-aware mutations target the v9 framing:
// flowset length fields, template ids (0 / 1 / 255 / 256 / 257), template
// field counts, and truncation at flowset boundaries.
//
// Properties checked per input:
//   - ingest() returns (no crash, no OOB — sanitizers enforce the latter),
//     also with duplicate suppression on, where the same input fed again
//     straight away is exactly one suppressed duplicate;
//   - decoded record count is bounded by the packet size (every record
//     consumes at least one body byte);
//   - a malformed verdict increments the malformed_packets counter;
//   - the collector remains usable afterwards: a pristine template+data
//     packet still decodes to the expected records;
//   - deferred execution: a collector that scans all of an iteration's
//     datagrams — the input, a restart of its source that re-announces
//     template 256 with another layout, pristine traffic — before
//     executing any job (as the pipeline's body stage may) yields its
//     reference's rows and statistics. A job that reads bytes the
//     collector has since freed — a recovered parked body, an entry the
//     restart evicted, a plan the redefinition replaced — shows up as an
//     ASan report or a row mismatch.
#include <cstdint>
#include <span>
#include <vector>

#include "flow/netflow_v9.hpp"
#include "flow/template_plan.hpp"
#include "flow/wire.hpp"
#include "fuzz_harness.hpp"

namespace {

using haystack::fuzz::Bytes;
using namespace haystack::flow;

FlowRecord sample_record(std::uint32_t salt, bool v6) {
  FlowRecord rec;
  if (v6) {
    rec.key.src = haystack::net::IpAddress::v6(0x20010db8ULL << 32, salt);
    rec.key.dst = haystack::net::IpAddress::v6(0x20010db8ULL << 32,
                                               0x10000ULL + salt);
  } else {
    rec.key.src = haystack::net::IpAddress::v4(0x0a000000U + salt);
    rec.key.dst = haystack::net::IpAddress::v4(0x34000000U + salt * 7);
  }
  rec.key.src_port = static_cast<std::uint16_t>(30000 + salt);
  rec.key.dst_port = 443;
  rec.key.proto = 6;
  rec.tcp_flags = 0x1b;
  rec.packets = 1 + salt;
  rec.bytes = 100 + salt * 11;
  rec.start_ms = salt * 1000;
  rec.end_ms = salt * 1000 + 400;
  rec.sampling = 1000;
  return rec;
}

// A packet from the corpus's source 7 whose sysUptime has regressed to
// zero — an exporter restart, which erases every template of the source —
// re-announcing template 256 with a narrower layout (4-byte IN_PKTS).
Bytes restart_packet() {
  constexpr std::uint16_t kFields[][2] = {{8, 4}, {12, 4}, {11, 2}, {2, 4}};
  ByteWriter w;
  w.u16(9);
  w.u16(1);  // flowsets
  w.u32(0);  // sysUptime: the exporter just booted
  w.u32(1574000000);
  w.u32(0);  // sequence
  w.u32(7);  // source id
  w.u16(0);  // template flowset
  w.u16(static_cast<std::uint16_t>(8 + 4 * std::size(kFields)));
  w.u16(nf9::kTemplateV4);
  w.u16(static_cast<std::uint16_t>(std::size(kFields)));
  for (const auto& f : kFields) {
    w.u16(f[0]);
    w.u16(f[1]);
  }
  return w.take();
}

std::vector<Bytes> build_corpus() {
  std::vector<Bytes> corpus;
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{40}}) {
    nf9::Exporter exporter{{.source_id = 7,
                            .max_records_per_packet = 24,
                            .template_refresh_packets = 1}};
    std::vector<FlowRecord> records;
    for (std::uint32_t i = 0; i < n; ++i) {
      records.push_back(sample_record(i, i % 3 == 0));
    }
    for (auto& packet : exporter.export_flows(records, 1574000000)) {
      corpus.push_back(std::move(packet));
    }
  }
  return corpus;
}

// v9 framing offsets: 20-byte header, then flowsets at (id u16, length
// u16) boundaries. In a template-first packet the field-spec list (type
// u16, length u16 pairs) starts at offset 28.
void structure_mutate(Bytes& data, haystack::util::Pcg32& rng) {
  if (data.size() < 24) return;
  switch (rng.bounded(6)) {
    case 0: {  // corrupt the first flowset's length field
      const std::uint16_t v = static_cast<std::uint16_t>(rng.bounded(0x10000));
      data[22] = static_cast<std::uint8_t>(v >> 8);
      data[23] = static_cast<std::uint8_t>(v);
      break;
    }
    case 1: {  // swap/poison a template id somewhere in the body
      constexpr std::uint16_t kIds[] = {0, 1, 255, 256, 257, 0x8000};
      const std::uint16_t id = kIds[rng.bounded(6)];
      const std::size_t pos =
          20 + rng.bounded(static_cast<std::uint32_t>(data.size() - 21));
      data[pos] = static_cast<std::uint8_t>(id >> 8);
      data[pos + 1] = static_cast<std::uint8_t>(id);
      break;
    }
    case 2: {  // template field-count corruption (offset 26 in a
               // template-first packet: header 20 + id 2 + len 2 + tid 2)
      if (data.size() < 28) break;
      const std::uint16_t v = rng.chance(0.5)
                                  ? static_cast<std::uint16_t>(rng.bounded(64))
                                  : static_cast<std::uint16_t>(
                                        0xff00 | rng.bounded(256));
      data[26] = static_cast<std::uint8_t>(v >> 8);
      data[27] = static_cast<std::uint8_t>(v);
      break;
    }
    case 3: {  // declared-length lie: a template field's length slot set
               // to 0 / tiny / enormous, so the compiled plan's record
               // length disagrees with what the data flowset carries
      constexpr std::uint16_t kLies[] = {0, 1, 3, 5, 0x00ff, 0xffff};
      const std::size_t pos = 30 + 4 * rng.bounded(8);
      if (pos + 1 >= data.size()) break;
      const std::uint16_t v = kLies[rng.bounded(6)];
      data[pos] = static_cast<std::uint8_t>(v >> 8);
      data[pos + 1] = static_cast<std::uint8_t>(v);
      break;
    }
    case 4: {  // template redefinition mid-stream: flip a field *type*,
               // so the persistent collector sees the same template id
               // re-announced with a different layout and must recompile
               // its plan (offsets shift for every later field)
      const std::size_t pos = 28 + 4 * rng.bounded(8);
      if (pos + 1 >= data.size()) break;
      const std::uint16_t v = static_cast<std::uint16_t>(rng.bounded(512));
      data[pos] = static_cast<std::uint8_t>(v >> 8);
      data[pos + 1] = static_cast<std::uint8_t>(v);
      break;
    }
    default:  // truncate at a pseudo-flowset boundary (4-byte aligned)
      data.resize(20 + 4 * rng.bounded(
                           static_cast<std::uint32_t>(data.size() / 4)));
      break;
  }
}

bool check(std::span<const std::uint8_t> input) {
  // Each reference collector is mirrored by a batch collector fed the
  // identical input sequence: ingest() (record-at-a-time walk) and
  // ingest_batch() (compiled-plan zero-copy decode) must agree on the
  // verdict, the statistics, and every decoded row — bit for bit — for
  // ARBITRARY bytes, not just well-formed exporter output. This is the
  // fuzz-shaped form of the differential tier at the decode entry point.
  static nf9::Collector persistent;  // stateful across iterations
  static nf9::Collector persistent_batch;
  // The pipeline's decode stage runs with duplicate suppression on, so its
  // datagram hash gets hostile bytes too, including unaligned tails.
  static nf9::Collector deduped{nf9::CollectorConfig{.dedup_window = 64}};
  static nf9::Collector deduped_batch{
      nf9::CollectorConfig{.dedup_window = 64}};
  nf9::Collector fresh;
  nf9::Collector fresh_batch;
  struct Pair {
    nf9::Collector* ref;
    nf9::Collector* batch;
  };
  for (const Pair p : {Pair{&persistent, &persistent_batch},
                       Pair{&fresh, &fresh_batch},
                       Pair{&deduped, &deduped_batch}}) {
    std::vector<FlowRecord> out;
    const std::uint64_t malformed_before = p.ref->stats().malformed_packets;
    // A template in this packet can release flowsets parked by earlier
    // iterations, so the record-per-byte bound covers those bytes too.
    const std::size_t budget = input.size() + p.ref->pending_bytes();
    const bool accepted = p.ref->ingest(input, out);
    if (out.size() > budget) return false;  // record-per-byte bound
    if (!accepted &&
        p.ref->stats().malformed_packets == malformed_before) {
      return false;  // rejection must be accounted
    }

    FlowBatch batch;
    if (p.batch->ingest_batch(input, batch) != accepted) return false;
    if (batch.size() != out.size()) return false;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (batch.record(i) != out[i]) return false;
    }
    if (p.batch->stats().malformed_packets !=
            p.ref->stats().malformed_packets ||
        p.batch->stats().records != p.ref->stats().records ||
        p.batch->stats().recovered_records !=
            p.ref->stats().recovered_records ||
        p.batch->stats().duplicate_packets !=
            p.ref->stats().duplicate_packets) {
      return false;
    }
  }
  // The same bytes again straight away are one suppressed duplicate on
  // both paths, whenever the header got as far as the deduper.
  const bool header_ok = input.size() >= 20 && input[0] == 0 && input[1] == 9;
  const std::uint64_t duplicates_before = deduped.stats().duplicate_packets;
  std::vector<FlowRecord> replayed;
  FlowBatch replayed_batch;
  if (deduped.ingest(input, replayed) != header_ok ||
      deduped_batch.ingest_batch(input, replayed_batch) != header_ok) {
    return false;
  }
  if (!replayed.empty() || !replayed_batch.empty() ||
      deduped.stats().duplicate_packets !=
          duplicates_before + (header_ok ? 1 : 0) ||
      deduped_batch.stats().duplicate_packets !=
          deduped.stats().duplicate_packets) {
    return false;
  }
  // The persistent collectors must still decode pristine traffic: a
  // fuzzed packet may legitimately poison templates (that is
  // protocol-valid), so re-announce templates the way a real exporter
  // would and round-trip — through both decode paths.
  nf9::Exporter exporter{{.source_id = 991, .template_refresh_packets = 1}};
  std::vector<FlowRecord> records{sample_record(3, false),
                                  sample_record(4, true)};
  std::vector<FlowRecord> decoded;
  FlowBatch decoded_batch;
  const auto pristine = exporter.export_flows(records, 1574000000);
  for (const auto& packet : pristine) {
    if (!persistent.ingest(packet, decoded)) return false;
    if (!persistent_batch.ingest_batch(packet, decoded_batch)) return false;
  }
  if (decoded_batch.size() != decoded.size()) return false;
  if (decoded.size() != records.size()) return false;

  // Deferred execution, stateful across iterations like `persistent`:
  // every scan of the iteration first, then every job. The datagrams stay
  // alive throughout, as they travel with their jobs in the pipeline.
  static nf9::Collector deferred_ref;
  static nf9::Collector deferred;
  std::vector<Bytes> iteration{Bytes(input.begin(), input.end()),
                               restart_packet()};
  iteration.insert(iteration.end(), pristine.begin(), pristine.end());
  std::vector<FlowRecord> want_rows;
  std::vector<plan::BodyJob> jobs;
  for (const Bytes& datagram : iteration) {
    if (deferred.scan(datagram, jobs) !=
        deferred_ref.ingest(datagram, want_rows)) {
      return false;
    }
  }
  FlowBatch deferred_rows;
  for (const plan::BodyJob& job : jobs) plan::execute(job, deferred_rows);
  if (deferred_rows.size() != want_rows.size()) return false;
  for (std::size_t i = 0; i < want_rows.size(); ++i) {
    if (deferred_rows.record(i) != want_rows[i]) return false;
  }
  const nf9::CollectorStats& want = deferred_ref.stats();
  const nf9::CollectorStats& got = deferred.stats();
  return got.packets == want.packets && got.records == want.records &&
         got.malformed_packets == want.malformed_packets &&
         got.templates_learned == want.templates_learned &&
         got.unknown_template_flowsets == want.unknown_template_flowsets &&
         got.sequence_gaps == want.sequence_gaps &&
         got.exporter_restarts == want.exporter_restarts &&
         got.buffered_flowsets == want.buffered_flowsets &&
         got.recovered_records == want.recovered_records &&
         got.evicted_flowsets == want.evicted_flowsets;
}

}  // namespace

#ifdef HAYSTACK_LIBFUZZER
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  (void)check({data, size});
  return 0;
}
#else
int main(int argc, char** argv) {
  const auto config = haystack::fuzz::parse_args(argc, argv);
  return haystack::fuzz::run_fuzz("fuzz_netflow_v9", config, build_corpus(),
                                  structure_mutate, check);
}
#endif
