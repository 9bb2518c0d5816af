// Structure-aware fuzzer for the IPFIX collector.
//
// Corpus: real Exporter messages (templates + data, both families) plus an
// options-template message (sampling announcement). Structure-aware
// mutations target IPFIX framing: the message total-length, set lengths,
// set ids (2 / 3 / 255 / 256 / 257), template field counts, enterprise
// bits, and the variable-length escape bytes.
//
// Properties: ingest() returns cleanly, also with duplicate suppression
// on, where the same message fed again straight away is exactly one
// suppressed duplicate; decoded record count stays bounded by message
// size; rejections are accounted in malformed_messages; the collector
// keeps decoding pristine traffic afterwards. A deferred-execution
// collector scans all of an iteration's messages — the input, a restart
// of its domain that re-announces template 300 with another layout,
// pristine traffic — before executing any job (as the pipeline's body
// stage may) and must yield its reference's rows and statistics; a job
// that reads bytes the collector has since freed — a recovered parked
// set, an entry the restart evicted, a plan the redefinition replaced —
// shows up as an ASan report or a row mismatch.
#include <cstdint>
#include <span>
#include <vector>

#include "flow/ipfix.hpp"
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
                                               0x20000ULL + salt);
  } else {
    rec.key.src = haystack::net::IpAddress::v4(0x0a000000U + salt);
    rec.key.dst = haystack::net::IpAddress::v4(0x22000000U + salt * 5);
  }
  rec.key.src_port = static_cast<std::uint16_t>(20000 + salt);
  rec.key.dst_port = 8883;
  rec.key.proto = 6;
  rec.tcp_flags = 0x18;
  rec.packets = 2 + salt;
  rec.bytes = 300 + salt * 13;
  rec.start_ms = 0x123456789aULL + salt;
  rec.end_ms = 0x123456789aULL + salt + 250;
  rec.sampling = 10000;
  return rec;
}

// A message for the corpus's domain 5 whose sequence lies a quarter of the
// number space behind anything the corpus sends — an exporter restart,
// which erases every template of the domain — re-announcing template 300
// with a narrower layout (4-byte packetDeltaCount).
Bytes restart_message() {
  constexpr std::uint16_t kFields[][2] = {{8, 4}, {12, 4}, {11, 2}, {2, 4}};
  ByteWriter w;
  w.u16(10);
  w.u16(0);  // total length, patched below
  w.u32(1574000000);
  w.u32(0xC0000000U);  // sequence
  w.u32(5);            // observation domain
  w.u16(ipfix::kTemplateSetId);
  w.u16(static_cast<std::uint16_t>(8 + 4 * std::size(kFields)));
  w.u16(ipfix::kTemplateV4);
  w.u16(static_cast<std::uint16_t>(std::size(kFields)));
  for (const auto& f : kFields) {
    w.u16(f[0]);
    w.u16(f[1]);
  }
  w.patch_u16(2, static_cast<std::uint16_t>(w.size()));
  return w.take();
}

std::vector<Bytes> build_corpus() {
  std::vector<Bytes> corpus;
  for (const std::size_t n : {std::size_t{1}, std::size_t{9},
                              std::size_t{50}}) {
    ipfix::Exporter exporter{{.observation_domain = 5,
                              .max_records_per_message = 20,
                              .template_refresh_messages = 1}};
    std::vector<FlowRecord> records;
    for (std::uint32_t i = 0; i < n; ++i) {
      records.push_back(sample_record(i, i % 4 == 0));
    }
    for (auto& message : exporter.export_flows(records, 1574000000)) {
      corpus.push_back(std::move(message));
    }
  }
  corpus.push_back(
      ipfix::encode_sampling_options(5, 10000, 1574000000, 0));
  return corpus;
}

// IPFIX framing: 16-byte header (version, length, export time, sequence,
// domain), then sets at (id u16, length u16) boundaries. In a
// template-first message the field-spec list (type u16, length u16
// pairs) starts at offset 24.
void structure_mutate(Bytes& data, haystack::util::Pcg32& rng) {
  if (data.size() < 20) return;
  const auto put_u16 = [&](std::size_t pos, std::uint16_t v) {
    data[pos] = static_cast<std::uint8_t>(v >> 8);
    data[pos + 1] = static_cast<std::uint8_t>(v);
  };
  switch (rng.bounded(7)) {
    case 0:  // total-length corruption (the header's own length field)
      put_u16(2, static_cast<std::uint16_t>(rng.bounded(0x10000)));
      break;
    case 1:  // first set's length field
      put_u16(18, static_cast<std::uint16_t>(rng.bounded(0x10000)));
      break;
    case 2: {  // set-id swap: template/options/data ids
      constexpr std::uint16_t kIds[] = {2, 3, 255, 256, 257, 400};
      put_u16(16, kIds[rng.bounded(6)]);
      break;
    }
    case 3: {  // poison a u16 deep in the body with the enterprise bit or
               // the varlen escape — hits field specs and lengths
      const std::size_t pos =
          16 + rng.bounded(static_cast<std::uint32_t>(data.size() - 17));
      put_u16(pos, rng.chance(0.5)
                       ? static_cast<std::uint16_t>(0x8000U |
                                                    rng.bounded(0x8000))
                       : 0xffffU);
      break;
    }
    case 4: {  // declared-length lie: a template field's length slot set
               // to 0 / tiny / enormous, so the compiled plan's record
               // length disagrees with the data sets that follow
      constexpr std::uint16_t kLies[] = {0, 1, 3, 5, 0x00ff, 0xfffe};
      const std::size_t pos = 26 + 4 * rng.bounded(8);
      if (pos + 1 >= data.size()) break;
      put_u16(pos, kLies[rng.bounded(6)]);
      break;
    }
    case 5: {  // template redefinition mid-stream: flip a field *type*,
               // so the persistent collector sees this template id
               // re-announced with a different layout and must recompile
               // its plan (offsets shift for every later field)
      const std::size_t pos = 24 + 4 * rng.bounded(8);
      if (pos + 1 >= data.size()) break;
      put_u16(pos, static_cast<std::uint16_t>(rng.bounded(512)));
      break;
    }
    default:  // truncate mid-set, keeping the header length plausible
      data.resize(16 + rng.bounded(
                           static_cast<std::uint32_t>(data.size() - 16)));
      put_u16(2, static_cast<std::uint16_t>(data.size()));
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
  static ipfix::Collector persistent;
  static ipfix::Collector persistent_batch;
  // The pipeline's decode stage runs with duplicate suppression on, so its
  // datagram hash gets hostile bytes too, including unaligned tails.
  static ipfix::Collector deduped{
      ipfix::CollectorConfig{.dedup_window = 64}};
  static ipfix::Collector deduped_batch{
      ipfix::CollectorConfig{.dedup_window = 64}};
  ipfix::Collector fresh;
  ipfix::Collector fresh_batch;
  struct Pair {
    ipfix::Collector* ref;
    ipfix::Collector* batch;
  };
  for (const Pair p : {Pair{&persistent, &persistent_batch},
                       Pair{&fresh, &fresh_batch},
                       Pair{&deduped, &deduped_batch}}) {
    std::vector<FlowRecord> out;
    const std::uint64_t malformed_before =
        p.ref->stats().malformed_messages;
    // A template in this message can release sets parked by earlier
    // iterations, so the record-per-byte bound covers those bytes too.
    const std::size_t budget = input.size() + p.ref->pending_bytes();
    const bool accepted = p.ref->ingest(input, out);
    if (out.size() > budget) return false;
    if (!accepted &&
        p.ref->stats().malformed_messages == malformed_before) {
      return false;
    }

    FlowBatch batch;
    if (p.batch->ingest_batch(input, batch) != accepted) return false;
    if (batch.size() != out.size()) return false;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (batch.record(i) != out[i]) return false;
    }
    if (p.batch->stats().malformed_messages !=
            p.ref->stats().malformed_messages ||
        p.batch->stats().records != p.ref->stats().records ||
        p.batch->stats().recovered_records !=
            p.ref->stats().recovered_records ||
        p.batch->stats().duplicate_messages !=
            p.ref->stats().duplicate_messages) {
      return false;
    }
  }
  // The same bytes again straight away are one suppressed duplicate on
  // both paths, whenever the header got as far as the deduper.
  const bool header_ok =
      input.size() >= 16 && input[0] == 0 && input[1] == 10 &&
      static_cast<std::size_t>((input[2] << 8) | input[3]) == input.size();
  const std::uint64_t duplicates_before = deduped.stats().duplicate_messages;
  std::vector<FlowRecord> replayed;
  FlowBatch replayed_batch;
  if (deduped.ingest(input, replayed) != header_ok ||
      deduped_batch.ingest_batch(input, replayed_batch) != header_ok) {
    return false;
  }
  if (!replayed.empty() || !replayed_batch.empty() ||
      deduped.stats().duplicate_messages !=
          duplicates_before + (header_ok ? 1 : 0) ||
      deduped_batch.stats().duplicate_messages !=
          deduped.stats().duplicate_messages) {
    return false;
  }
  // Liveness after arbitrary input. The persistent collectors must keep
  // *returning* on pristine traffic (a fuzzed message may legitimately
  // have registered an options template that shadows this domain's data
  // template id, so the record count is not asserted there); a collector
  // that only ever sees valid messages must keep round-tripping exactly
  // through both decode paths.
  static ipfix::Collector pristine_only;
  static ipfix::Collector pristine_only_batch;
  ipfix::Exporter exporter{{.observation_domain = 991,
                            .template_refresh_messages = 1}};
  std::vector<FlowRecord> records{sample_record(1, false),
                                  sample_record(2, true)};
  std::vector<FlowRecord> decoded;
  std::vector<FlowRecord> ignored;
  FlowBatch decoded_batch;
  FlowBatch ignored_batch;
  const auto pristine = exporter.export_flows(records, 1574000000);
  for (const auto& message : pristine) {
    (void)persistent.ingest(message, ignored);
    (void)persistent_batch.ingest_batch(message, ignored_batch);
    if (!pristine_only.ingest(message, decoded)) return false;
    if (!pristine_only_batch.ingest_batch(message, decoded_batch)) {
      return false;
    }
  }
  if (decoded_batch.size() != decoded.size()) return false;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (decoded_batch.record(i) != decoded[i]) return false;
  }
  if (decoded.size() != records.size()) return false;

  // Deferred execution, stateful across iterations like `persistent`:
  // every scan of the iteration first, then every job. The messages stay
  // alive throughout, as they travel with their jobs in the pipeline.
  static ipfix::Collector deferred_ref;
  static ipfix::Collector deferred;
  std::vector<Bytes> iteration{Bytes(input.begin(), input.end()),
                               restart_message()};
  iteration.insert(iteration.end(), pristine.begin(), pristine.end());
  std::vector<FlowRecord> want_rows;
  std::vector<plan::BodyJob> jobs;
  for (const Bytes& message : iteration) {
    if (deferred.scan(message, jobs) !=
        deferred_ref.ingest(message, want_rows)) {
      return false;
    }
  }
  FlowBatch deferred_rows;
  for (const plan::BodyJob& job : jobs) plan::execute(job, deferred_rows);
  if (deferred_rows.size() != want_rows.size()) return false;
  for (std::size_t i = 0; i < want_rows.size(); ++i) {
    if (deferred_rows.record(i) != want_rows[i]) return false;
  }
  const ipfix::CollectorStats& want = deferred_ref.stats();
  const ipfix::CollectorStats& got = deferred.stats();
  return got.messages == want.messages && got.records == want.records &&
         got.malformed_messages == want.malformed_messages &&
         got.templates_learned == want.templates_learned &&
         got.unknown_template_sets == want.unknown_template_sets &&
         got.sequence_gaps == want.sequence_gaps &&
         got.estimated_lost_records == want.estimated_lost_records &&
         got.exporter_restarts == want.exporter_restarts &&
         got.buffered_sets == want.buffered_sets &&
         got.recovered_records == want.recovered_records &&
         got.evicted_sets == want.evicted_sets;
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
  return haystack::fuzz::run_fuzz("fuzz_ipfix", config, build_corpus(),
                                  structure_mutate, check);
}
#endif
