#include "core/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <string>
#include <tuple>

#include "core/intern.hpp"
#include "flow/wire.hpp"

namespace haystack::core {

bool resolve_service_label(std::string_view label, const RuleSet& rules,
                           ServiceId& out) {
  if (label.starts_with("svc/")) {
    const std::string_view digits = label.substr(4);
    unsigned value = 0;
    const auto [ptr, ec] = std::from_chars(
        digits.data(), digits.data() + digits.size(), value);
    if (ec != std::errc{} || ptr != digits.data() + digits.size() ||
        value > 0xffffU) {
      return false;
    }
    out = static_cast<ServiceId>(value);
    return true;
  }
  const DetectionRule* rule = rules.rule_by_name(label);
  if (rule == nullptr) return false;
  out = rule->service;
  return true;
}

namespace {

struct Entry {
  SubscriberKey subscriber;
  ServiceId service;
  Evidence evidence;
};

// Smallest possible row (handle, flags, mask0, u32 packets, u16
// first_seen) and group header (subscriber, row count) — used only to
// bound count fields before reserve().
constexpr std::size_t kMinRowBytes = 4 + 1 + 8 + 4 + 2;
constexpr std::size_t kGroupHeaderBytes = 8 + 4;

// Row flags.
constexpr std::uint8_t kFlagMask1 = 0x01;      // mask word 1 present
constexpr std::uint8_t kFlagWidePackets = 0x02;  // packets need u64
constexpr std::uint8_t kFlagSatisfied = 0x04;  // satisfied_hour present
constexpr std::uint8_t kKnownFlags =
    kFlagMask1 | kFlagWidePackets | kFlagSatisfied;
// Largest hour the packed Evidence stores exactly (u16, 0xffff = never).
constexpr std::uint32_t kMaxStoredHour = 0xfffe;
constexpr std::uint32_t kNoHandle = 0xffffffffU;

// Interns the labels rows are keyed by — rule names in rule order
// (matching the live SignatureIndex handle layout), then "svc/<id>" for
// services with evidence but no rule, in id order — and returns each
// service id's handle.
std::vector<std::uint32_t> build_handle_table(
    const std::vector<Entry>& entries, const RuleSet& rules,
    InternTable& table) {
  std::vector<std::uint32_t> handle_of(std::size_t{1} << 16, kNoHandle);
  for (const auto& r : rules.rules) {
    const std::uint32_t handle = table.intern(r.name);
    // First rule per service wins, as in RuleSet::rule_for.
    if (handle_of[r.service] == kNoHandle) handle_of[r.service] = handle;
  }
  std::vector<bool> ruleless(handle_of.size(), false);
  for (const auto& e : entries) {
    if (handle_of[e.service] == kNoHandle) ruleless[e.service] = true;
  }
  for (std::size_t s = 0; s < ruleless.size(); ++s) {
    if (ruleless[s]) handle_of[s] = table.intern("svc/" + std::to_string(s));
  }
  return handle_of;
}

std::vector<std::uint8_t> encode(std::vector<Entry> entries,
                                 const RuleSet& rules, double threshold,
                                 const Detector::Stats& stats) {
  // The blob is self-contained: restore resolves handles through the
  // embedded table, never the live one.
  InternTable table;
  const auto handle_of = build_handle_table(entries, rules, table);
  // Hash-map iteration order is not deterministic across runs; sorting
  // makes identical state produce identical checkpoint bytes, and rows
  // ascend by handle within a subscriber so restore can reject
  // duplicated or reordered rows.
  std::sort(entries.begin(), entries.end(),
            [&handle_of](const Entry& a, const Entry& b) {
              return std::tuple{a.subscriber, handle_of[a.service]} <
                     std::tuple{b.subscriber, handle_of[b.service]};
            });

  flow::ByteWriter w;
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u64(std::bit_cast<std::uint64_t>(threshold));
  w.u64(stats.flows);
  w.u64(stats.matched);
  std::vector<std::uint8_t> table_bytes;
  table.serialize(table_bytes);
  w.bytes(table_bytes);

  // Rows grouped by subscriber (entries are sorted, so groups are the
  // maximal equal-subscriber runs): the u64 subscriber is written once per
  // group instead of once per row, and each row spends a flag byte to drop
  // the fields that are almost always absent at scale (second mask word,
  // wide packet counters, unsatisfied rows).
  std::uint64_t groups = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i == 0 || entries[i].subscriber != entries[i - 1].subscriber) {
      ++groups;
    }
  }
  w.u64(groups);
  for (std::size_t i = 0; i < entries.size();) {
    const SubscriberKey subscriber = entries[i].subscriber;
    std::size_t end = i;
    while (end < entries.size() && entries[end].subscriber == subscriber) {
      ++end;
    }
    w.u64(subscriber);
    w.u32(static_cast<std::uint32_t>(end - i));
    for (; i < end; ++i) {
      const Evidence& ev = entries[i].evidence;
      std::uint8_t flags = 0;
      if (ev.mask(1) != 0) flags |= kFlagMask1;
      if (ev.packets() > 0xffffffffULL) flags |= kFlagWidePackets;
      if (ev.satisfied()) flags |= kFlagSatisfied;
      w.u32(handle_of[entries[i].service]);
      w.u8(flags);
      w.u64(ev.mask(0));
      if (flags & kFlagMask1) w.u64(ev.mask(1));
      if (flags & kFlagWidePackets) {
        w.u64(ev.packets());
      } else {
        w.u32(static_cast<std::uint32_t>(ev.packets()));
      }
      w.u16(static_cast<std::uint16_t>(ev.first_seen()));
      if (flags & kFlagSatisfied) {
        w.u16(static_cast<std::uint16_t>(ev.satisfied_hour()));
      }
    }
  }
  return w.take();
}

struct Parsed {
  Detector::Stats stats;
  std::vector<Entry> entries;
};

bool parse_impl(std::span<const std::uint8_t> blob, double threshold,
                const RuleSet& rules, Parsed& out, std::string* error) {
  const auto fail = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  flow::ByteReader r{blob};
  if (r.u32() != kCheckpointMagic) return fail("bad checkpoint magic");
  const std::uint32_t version = r.u32();
  if (!r.ok()) return fail("truncated checkpoint header");
  if (version != kCheckpointVersion) {
    return fail("unsupported checkpoint version");
  }
  const std::uint64_t threshold_bits = r.u64();
  if (threshold_bits != std::bit_cast<std::uint64_t>(threshold)) {
    return fail("checkpoint written under a different threshold");
  }
  out.stats.flows = r.u64();
  out.stats.matched = r.u64();
  if (!r.ok()) return fail("truncated checkpoint header");

  InternTable table;
  std::size_t consumed = 0;
  if (!table.restore(r.rest(), consumed)) {
    return fail("malformed checkpoint intern table");
  }
  r.skip(consumed);

  // Resolve every label once. A label whose service an earlier label
  // already names stays unresolved, so handles map to services one to one
  // and ascending handles within a group mean no service repeats.
  std::vector<std::int32_t> service_of(table.size(), -1);
  std::vector<bool> claimed(std::size_t{1} << 16, false);
  for (std::uint32_t handle = 0; handle < table.size(); ++handle) {
    ServiceId svc = 0;
    if (resolve_service_label(table.name(handle), rules, svc) &&
        !claimed[svc]) {
      claimed[svc] = true;
      service_of[handle] = svc;
    }
  }

  const std::uint64_t groups = r.u64();
  if (!r.ok()) return fail("truncated checkpoint header");
  if (groups > r.remaining() / kGroupHeaderBytes) {
    return fail("truncated checkpoint body");
  }
  for (std::uint64_t g = 0; g < groups; ++g) {
    const SubscriberKey subscriber = r.u64();
    const std::uint32_t rows = r.u32();
    if (!r.ok()) return fail("truncated checkpoint body");
    if (rows == 0) return fail("empty checkpoint subscriber group");
    if (g > 0 && subscriber <= out.entries.back().subscriber) {
      return fail("checkpoint groups out of order");
    }
    if (rows > r.remaining() / kMinRowBytes) {
      return fail("truncated checkpoint body");
    }
    std::uint32_t previous = 0;
    for (std::uint32_t i = 0; i < rows; ++i) {
      Entry e{};
      e.subscriber = subscriber;
      const std::uint32_t handle = r.u32();
      const std::uint8_t flags = r.u8();
      if (!r.ok()) return fail("truncated checkpoint body");
      if ((flags & ~kKnownFlags) != 0) {
        return fail("unknown checkpoint row flags");
      }
      if (handle >= table.size()) {
        return fail("checkpoint references an unknown intern handle");
      }
      if (service_of[handle] < 0) {
        return fail("checkpoint references an unknown or ambiguous label");
      }
      if (i > 0 && handle <= previous) {
        return fail("checkpoint rows out of order");
      }
      previous = handle;
      e.service = static_cast<ServiceId>(service_of[handle]);
      e.evidence.set_mask(0, r.u64());
      if (flags & kFlagMask1) e.evidence.set_mask(1, r.u64());
      const std::uint64_t packets =
          (flags & kFlagWidePackets) ? r.u64() : r.u32();
      // Canonical width: small counters must use the narrow encoding.
      if ((flags & kFlagWidePackets) && packets <= 0xffffffffULL) {
        return fail("non-canonical checkpoint packet width");
      }
      if ((flags & kFlagMask1) && e.evidence.mask(1) == 0) {
        return fail("non-canonical checkpoint mask width");
      }
      e.evidence.set_packets(packets);
      const std::uint16_t first_seen = r.u16();
      if (first_seen > kMaxStoredHour) {
        return fail("checkpoint hour out of range");
      }
      e.evidence.set_first_seen(first_seen);
      if (flags & kFlagSatisfied) {
        const std::uint16_t satisfied = r.u16();
        if (satisfied > kMaxStoredHour) {
          return fail("checkpoint hour out of range");
        }
        e.evidence.set_satisfied_hour(satisfied);
      }
      out.entries.push_back(e);
    }
  }
  if (!r.ok() || r.remaining() != 0) {
    return fail("malformed checkpoint body");
  }
  return true;
}

template <typename DetectorT>
std::vector<std::uint8_t> save_with_event(const DetectorT& detector,
                                          obs::FlightRecorder* recorder) {
  std::vector<Entry> entries;
  detector.for_each_evidence(
      [&entries](SubscriberKey sub, ServiceId svc, const Evidence& ev) {
        entries.push_back({sub, svc, ev});
      });
  const std::size_t count = entries.size();
  auto blob = encode(std::move(entries), detector.rules(),
                     detector.config().threshold, detector.stats());
  if (recorder != nullptr) {
    recorder->record(obs::EventKind::kCheckpointSave, 0, count, blob.size());
  }
  return blob;
}

template <typename DetectorT>
bool restore_with_event(std::span<const std::uint8_t> blob,
                        DetectorT& detector, std::string* error,
                        obs::FlightRecorder* recorder) {
  Parsed parsed;
  if (!parse_impl(blob, detector.config().threshold, detector.rules(),
                  parsed, error)) {
    if (recorder != nullptr) {
      recorder->record(obs::EventKind::kCheckpointRejected, 0, blob.size());
    }
    return false;
  }
  detector.clear();
  detector.restore_stats(parsed.stats);
  for (const auto& e : parsed.entries) {
    detector.restore_evidence(e.subscriber, e.service, e.evidence);
  }
  if (recorder != nullptr) {
    recorder->record(obs::EventKind::kCheckpointRestore, 0,
                     parsed.entries.size(), blob.size());
  }
  return true;
}

}  // namespace

std::vector<std::uint8_t> save_checkpoint_compact(
    const Detector& detector, obs::FlightRecorder* recorder) {
  return save_with_event(detector, recorder);
}

std::vector<std::uint8_t> save_checkpoint_compact(
    const ShardedDetector& detector, obs::FlightRecorder* recorder) {
  return save_with_event(detector, recorder);
}

bool restore_checkpoint(std::span<const std::uint8_t> blob,
                        Detector& detector, std::string* error,
                        obs::FlightRecorder* recorder) {
  return restore_with_event(blob, detector, error, recorder);
}

bool restore_checkpoint(std::span<const std::uint8_t> blob,
                        ShardedDetector& detector, std::string* error,
                        obs::FlightRecorder* recorder) {
  return restore_with_event(blob, detector, error, recorder);
}

}  // namespace haystack::core
