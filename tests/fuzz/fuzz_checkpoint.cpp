// Structure-aware fuzzer for the HSCK checkpoint decoder
// (core::restore_checkpoint).
//
// Corpus: real save_checkpoint_compact output — an empty detector, a
// multi-group state, and rows that set each optional field (mask word 1,
// wide packet counter, satisfied hour) plus a row whose service has no
// rule (an "svc/<id>" label). Structure-aware mutations walk the blob's
// layout and target the group count, the first group's row count, the
// first row's flag byte and rule handle, the intern-table count, and row
// duplication (a copied row with its group's row count bumped).
//
// Properties checked per input:
//   - restore_checkpoint() returns (no crash, no OOB — sanitizers enforce);
//   - a rejected blob carries a reason and leaves the target detector's
//     evidence and stats untouched;
//   - an accepted blob restores one evidence row per parsed row (the
//     kCheckpointRestore event's entry count), and a save → restore round
//     trip of the result reproduces its evidence and stats;
//   - accept/reject and the restored state are deterministic.
#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/detector.hpp"
#include "fuzz_harness.hpp"
#include "obs/flight_recorder.hpp"

namespace {

using haystack::fuzz::Bytes;
using namespace haystack::core;

constexpr ServiceId kRuleless = 9;  // evidence rows may outlive their rule

RuleSet make_rules() {
  RuleSet rules;
  for (ServiceId s = 0; s < 4; ++s) {
    DetectionRule rule;
    rule.service = s;
    rule.name = "vendor-" + std::to_string(s);
    rule.level = Level::kManufacturer;
    rule.monitored_domains = 80;
    rules.rules.push_back(std::move(rule));
  }
  return rules;
}

const RuleSet& rules() {
  static const RuleSet kRules = make_rules();
  return kRules;
}

const DetectorConfig kConfig{.threshold = 0.4};

Detector make_detector() {
  return Detector{rules().hitlist, rules(), kConfig};
}

Evidence evidence(std::uint64_t mask0, std::uint64_t mask1,
                  std::uint64_t packets, std::uint32_t first_seen,
                  std::uint32_t satisfied) {
  Evidence ev;
  ev.set_mask(0, mask0);
  ev.set_mask(1, mask1);
  ev.set_packets(packets);
  ev.set_first_seen(first_seen);
  ev.set_satisfied_hour(satisfied);
  return ev;
}

/// The state rejected inputs must leave alone, and one corpus entry.
Detector populated() {
  Detector det = make_detector();
  det.restore_stats({.flows = 5000, .matched = 321});
  for (SubscriberKey sub = 1; sub <= 6; ++sub) {
    for (ServiceId s = 0; s < 4; ++s) {
      if ((sub + s) % 3 == 0) continue;
      det.restore_evidence(
          sub, s,
          evidence(0b101ULL << s, 0, 10 * sub + s,
                   static_cast<std::uint32_t>(sub), Evidence::kNever));
    }
  }
  return det;
}

std::vector<Bytes> build_corpus() {
  std::vector<Bytes> corpus;
  corpus.push_back(save_checkpoint_compact(make_detector()));
  corpus.push_back(save_checkpoint_compact(populated()));

  // One row per optional field, then all of them on one subscriber, plus
  // a ruleless row.
  Detector wide = make_detector();
  wide.restore_stats({.flows = 0x1'0000'0000ULL, .matched = 77});
  constexpr auto kNever = Evidence::kNever;
  wide.restore_evidence(11, 0, evidence(1, 1ULL << 6, 3, 2, kNever));
  wide.restore_evidence(12, 1, evidence(3, 0, 0x2'0000'0001ULL, 0, kNever));
  wide.restore_evidence(13, 2, evidence(7, 0, 9, 4, 335));
  wide.restore_evidence(14, 0, evidence(~0ULL, ~0ULL, ~0ULL, 335, 335));
  wide.restore_evidence(14, 3, evidence(1, 0, 1, 0, 0));
  wide.restore_evidence(14, kRuleless, evidence(2, 0, 5, 1, kNever));
  corpus.push_back(save_checkpoint_compact(wide));
  return corpus;
}

// --- layout walk -------------------------------------------------------
//
// HSCK offsets: magic u32 @0, version u32 @4, threshold u64 @8, flows u64
// @16, matched u64 @24, intern-table count u32 @32, then per label u16
// length + bytes, then u64 group count, then per group u64 subscriber,
// u32 row count, rows (u32 handle, u8 flags, u64 mask0, [u64 mask1],
// u32|u64 packets, u16 first_seen, [u16 satisfied]).

std::uint64_t load_be(const Bytes& d, std::size_t at, unsigned width) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < width; ++i) v = (v << 8) | d[at + i];
  return v;
}

void store_be(Bytes& d, std::size_t at, unsigned width, std::uint64_t v) {
  for (unsigned i = 0; i < width; ++i) {
    d[at + i] = static_cast<std::uint8_t>(v >> (8 * (width - 1 - i)));
  }
}

struct Layout {
  std::size_t groups_at = 0;  ///< u64 group count
  std::uint32_t labels = 0;
  std::size_t rows_at = 0;  ///< first group's u32 row count; 0 = no group
  std::size_t row_at = 0;   ///< first row
  std::size_t row_bytes = 0;
};

/// Walks a corpus blob (valid by construction; structure_mutate runs
/// before any blind edit). Returns false for layouts it cannot follow.
bool walk(const Bytes& d, Layout& out) {
  if (d.size() < 36) return false;
  out.labels = static_cast<std::uint32_t>(load_be(d, 32, 4));
  std::size_t pos = 36;
  for (std::uint32_t i = 0; i < out.labels; ++i) {
    if (pos + 2 > d.size()) return false;
    pos += 2 + load_be(d, pos, 2);
  }
  if (pos + 8 > d.size()) return false;
  out.groups_at = pos;
  if (load_be(d, pos, 8) == 0) return true;
  out.rows_at = pos + 8 + 8;
  out.row_at = out.rows_at + 4;
  if (out.row_at + 5 > d.size()) return false;
  const std::uint8_t flags = d[out.row_at + 4];
  out.row_bytes = 4 + 1 + 8 + ((flags & 1) ? 8 : 0) + ((flags & 2) ? 8 : 4) +
                  2 + ((flags & 4) ? 2 : 0);
  return out.row_at + out.row_bytes <= d.size();
}

void structure_mutate(Bytes& data, haystack::util::Pcg32& rng) {
  Layout at;
  if (!walk(data, at)) return;
  switch (rng.bounded(6)) {
    case 0: {  // group count: empty, off by one, unbounded
      const std::uint64_t groups = load_be(data, at.groups_at, 8);
      const std::uint64_t kCounts[] = {0, 1, groups + 1, groups - 1,
                                       0xffffffffffffffffULL};
      store_be(data, at.groups_at, 8, kCounts[rng.bounded(5)]);
      break;
    }
    case 1: {  // first group's row count
      if (at.rows_at == 0) break;
      const std::uint64_t rows = load_be(data, at.rows_at, 4);
      const std::uint64_t kCounts[] = {0, 1, rows + 1, rows - 1, 0xffffffff};
      store_be(data, at.rows_at, 4, kCounts[rng.bounded(5)]);
      break;
    }
    case 2:  // first row's flag byte: known bits, unknown bits
      if (at.rows_at == 0) break;
      data[at.row_at + 4] = static_cast<std::uint8_t>(
          rng.chance(0.75) ? rng.bounded(8) : rng.bounded(256));
      break;
    case 3:  // first row's rule handle: in range, just past, far past
      if (at.rows_at == 0) break;
      store_be(data, at.row_at, 4,
               rng.chance(0.75) ? rng.bounded(at.labels + 2) : 0xffffffffU);
      break;
    case 4: {  // intern-table count
      const std::uint64_t kCounts[] = {0, at.labels - 1ULL, at.labels + 1ULL,
                                       0xffffffff};
      store_be(data, 32, 4, kCounts[rng.bounded(4)]);
      break;
    }
    default: {  // duplicate the first row inside its group
      if (at.rows_at == 0) break;
      const Bytes row(data.begin() + at.row_at,
                      data.begin() + at.row_at + at.row_bytes);
      data.insert(data.begin() + at.row_at + at.row_bytes, row.begin(),
                  row.end());
      store_be(data, at.rows_at, 4, load_be(data, at.rows_at, 4) + 1);
      break;
    }
  }
}

// --- properties ----------------------------------------------------------

using Row = std::tuple<SubscriberKey, ServiceId, std::uint64_t, std::uint64_t,
                       std::uint64_t, std::uint32_t, std::uint32_t>;

std::vector<Row> rows_of(const Detector& det) {
  std::vector<Row> rows;
  det.for_each_evidence([&](SubscriberKey sub, ServiceId svc,
                            const Evidence& ev) {
    rows.emplace_back(sub, svc, ev.mask(0), ev.mask(1), ev.packets(),
                      ev.first_seen(), ev.satisfied_hour());
  });
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool same_stats(const Detector& a, const Detector& b) {
  return a.stats().flows == b.stats().flows &&
         a.stats().matched == b.stats().matched;
}

bool check(std::span<const std::uint8_t> input) {
  static const Detector reference = populated();
  static const std::vector<Row> reference_rows = rows_of(reference);

  Detector target = populated();
  haystack::obs::FlightRecorder recorder{4};
  std::string error;
  const bool accepted = restore_checkpoint(input, target, &error, &recorder);
  const auto events = recorder.dump();
  if (events.size() != 1) return false;

  // Determinism: a second restore of the same bytes agrees.
  Detector second = make_detector();
  if (restore_checkpoint(input, second) != accepted) return false;

  if (!accepted) {
    return !error.empty() &&
           events[0].kind == haystack::obs::EventKind::kCheckpointRejected &&
           rows_of(target) == reference_rows && same_stats(target, reference);
  }
  if (events[0].kind != haystack::obs::EventKind::kCheckpointRestore) {
    return false;
  }
  const std::vector<Row> restored = rows_of(target);
  if (events[0].a != restored.size()) return false;

  if (rows_of(second) != restored || !same_stats(second, target)) {
    return false;
  }

  // Round trip: the restored state saves and restores to itself.
  const Bytes blob = save_checkpoint_compact(target);
  Detector again = make_detector();
  return restore_checkpoint(blob, again) && rows_of(again) == restored &&
         same_stats(again, target) && save_checkpoint_compact(again) == blob;
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
  return haystack::fuzz::run_fuzz("fuzz_checkpoint", config, build_corpus(),
                                  structure_mutate, check);
}
#endif
