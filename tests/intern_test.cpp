// Intern-table property tests (ISSUE 6 satellite 2).
//
// The interning layer is the contract everything past the decode boundary
// leans on: dense u32 handles, stable across rehash for the table's
// lifetime, name() views that never dangle, and lossless round-trips
// through the HSCK checkpoint format. These tests pin each clause,
// including the degenerate regimes — a million distinct domains (far past
// every rehash threshold) and adversarial serialize() images (truncation,
// duplicates, trailing garbage).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/detector.hpp"
#include "core/intern.hpp"
#include "core/sharded_detector.hpp"
#include "flow/wire.hpp"

namespace haystack::core {
namespace {

std::string domain(std::uint32_t i) {
  return "dev" + std::to_string(i) + ".iot.example";
}

TEST(InternTable, HandlesAreDenseAndFirstComeFirstServed) {
  InternTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find("absent"), InternTable::kInvalid);

  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(table.intern(domain(i)), i);
  }
  EXPECT_EQ(table.size(), 100u);
  // Re-interning is idempotent: same handle, no growth.
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(table.intern(domain(i)), i);
    EXPECT_EQ(table.find(domain(i)), i);
    EXPECT_EQ(table.name(i), domain(i));
  }
  EXPECT_EQ(table.size(), 100u);
}

TEST(InternTable, HandlesAndViewsSurviveRehash) {
  InternTable table;
  // Record the early handles *and the exact character storage* behind
  // their name() views, then grow the table far past every rehash
  // threshold. Both must be byte-stable (the deque never relocates).
  constexpr std::uint32_t kProbe = 64;
  std::vector<const char*> data_ptrs;
  for (std::uint32_t i = 0; i < kProbe; ++i) {
    EXPECT_EQ(table.intern(domain(i)), i);
    data_ptrs.push_back(table.name(i).data());
  }
  for (std::uint32_t i = kProbe; i < 200'000; ++i) table.intern(domain(i));
  EXPECT_EQ(table.size(), 200'000u);
  for (std::uint32_t i = 0; i < kProbe; ++i) {
    EXPECT_EQ(table.find(domain(i)), i);
    EXPECT_EQ(table.name(i), domain(i));
    EXPECT_EQ(table.name(i).data(), data_ptrs[i]) << "view relocated";
  }
}

TEST(InternTable, MillionDistinctDomains) {
  // Collision behaviour at scale (ISSUE 6 satellite 2): a million
  // distinct domains must intern to exactly the dense range [0, 1M) with
  // no handle ever reused or skipped, and spot lookups must still resolve
  // after the table has rehashed through every growth step.
  constexpr std::uint32_t kCount = 1'000'000;
  InternTable table;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(table.intern(domain(i)), i);
  }
  ASSERT_EQ(table.size(), kCount);
  // Dense spot checks across the whole range (checking all 1M again
  // would double the runtime for no added coverage).
  for (std::uint32_t i = 0; i < kCount; i += 997) {
    ASSERT_EQ(table.find(domain(i)), i);
    ASSERT_EQ(table.name(i), domain(i));
  }
  EXPECT_EQ(table.find(domain(kCount)), InternTable::kInvalid);
}

TEST(InternTable, ClearRestartsHandles) {
  InternTable table;
  table.intern("a");
  table.intern("b");
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find("a"), InternTable::kInvalid);
  EXPECT_EQ(table.intern("b"), 0u);
}

TEST(InternTable, SerializeRestoreRoundTrip) {
  InternTable table;
  for (std::uint32_t i = 0; i < 1000; ++i) table.intern(domain(i));
  // Include the empty string and a max-length-ish name.
  const auto empty_handle = table.intern("");
  const auto long_handle = table.intern(std::string(4096, 'x'));

  std::vector<std::uint8_t> image;
  table.serialize(image);
  // Deterministic bytes: serialization order is handle order, not hash
  // order.
  std::vector<std::uint8_t> image2;
  table.serialize(image2);
  EXPECT_EQ(image, image2);

  InternTable restored;
  std::size_t offset = 0;
  ASSERT_TRUE(restored.restore(image, offset));
  EXPECT_EQ(offset, image.size());
  ASSERT_EQ(restored.size(), table.size());
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(restored.find(domain(i)), i);
  }
  EXPECT_EQ(restored.name(empty_handle), "");
  EXPECT_EQ(restored.name(long_handle), std::string(4096, 'x'));

  // The section is self-delimiting: trailing bytes after it belong to the
  // caller and must be left unconsumed.
  auto padded = image;
  padded.push_back(0xab);
  padded.push_back(0xcd);
  InternTable padded_restore;
  offset = 0;
  ASSERT_TRUE(padded_restore.restore(padded, offset));
  EXPECT_EQ(offset, image.size());
}

TEST(InternTable, RestoreRejectsMalformedImages) {
  InternTable table;
  for (std::uint32_t i = 0; i < 50; ++i) table.intern(domain(i));
  std::vector<std::uint8_t> image;
  table.serialize(image);

  const auto expect_rejected = [](std::vector<std::uint8_t> bad,
                                  const char* what) {
    InternTable victim;
    victim.intern("pre-existing");
    std::size_t offset = 0;
    EXPECT_FALSE(victim.restore(bad, offset)) << what;
    // A failed restore leaves the table cleared, never half-populated.
    EXPECT_EQ(victim.size(), 0u) << what;
  };

  expect_rejected({}, "empty");
  expect_rejected({0x00, 0x00, 0x00}, "short count");
  {
    auto bad = image;
    bad.resize(bad.size() - 1);
    expect_rejected(std::move(bad), "truncated last name");
  }
  {
    auto bad = image;
    bad.resize(5);  // count says 50 entries, bytes end mid-first-entry
    expect_rejected(std::move(bad), "truncated first entry");
  }
  {
    // Duplicate names cannot reproduce distinct handles on re-intern;
    // restore must reject rather than silently alias two handles.
    InternTable dup_source;
    dup_source.intern("same");
    std::vector<std::uint8_t> dup;
    dup_source.serialize(dup);
    // Patch count to 2 and append a second copy of the entry bytes.
    dup[3] = 2;
    const std::vector<std::uint8_t> entry(dup.begin() + 4, dup.end());
    dup.insert(dup.end(), entry.begin(), entry.end());
    expect_rejected(std::move(dup), "duplicate name");
  }
}

// ---------------------------------------------------------------------------
// HSCK: evidence keyed by interned rule handles, intern table embedded.

struct Fixture {
  RuleSet rules;
  DetectorConfig config{.threshold = 0.5};

  Fixture() {
    for (ServiceId s = 0; s < 4; ++s) {
      DetectionRule rule;
      rule.service = s;
      rule.name = "vendor-" + std::to_string(s);
      rule.level = Level::kManufacturer;
      rule.monitored_domains = 8;
      for (std::uint16_t m = 0; m < 8; ++m) {
        rule.monitored_indices.push_back(m);
        for (util::DayBin day = 0; day < 2; ++day) {
          rules.hitlist.add(endpoint(s, m), 443, day, {s, m});
        }
      }
      rules.rules.push_back(std::move(rule));
    }
  }

  static net::IpAddress endpoint(ServiceId s, std::uint16_t m) {
    return net::IpAddress::v4(0x0A000000U | (std::uint32_t{s} << 16) | m);
  }

  void feed(Detector& det) const {
    for (SubscriberKey sub = 1; sub <= 40; ++sub) {
      for (std::uint16_t m = 0; m < 8; ++m) {
        const auto s = static_cast<ServiceId>((sub + m) % 4);
        det.observe(sub, endpoint(s, m), 443, 2 + m, (sub + m) % 48);
      }
    }
  }
};

using EvidenceRow =
    std::tuple<SubscriberKey, ServiceId, std::uint64_t, std::uint64_t,
               std::uint16_t, std::uint64_t, util::HourBin, util::HourBin>;

template <typename DetectorT>
std::vector<EvidenceRow> snapshot(const DetectorT& det) {
  std::vector<EvidenceRow> rows;
  det.for_each_evidence(
      [&](SubscriberKey sub, ServiceId svc, const Evidence& ev) {
        rows.emplace_back(sub, svc, ev.mask(0), ev.mask(1), ev.distinct(),
                          ev.packets(), ev.first_seen(), ev.satisfied_hour());
      });
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(CheckpointInterned, V2RoundTripsThroughInternedHandles) {
  const Fixture fx;
  Detector det{fx.rules.hitlist, fx.rules, fx.config};
  fx.feed(det);
  const auto rows = snapshot(det);

  const auto blob = save_checkpoint_compact(det);
  // Version field: header is u32 magic then u32 version, big-endian.
  EXPECT_EQ(blob[7], kCheckpointVersion);
  // Deterministic bytes for identical state.
  EXPECT_EQ(save_checkpoint_compact(det), blob);

  Detector restored{fx.rules.hitlist, fx.rules, fx.config};
  ASSERT_TRUE(restore_checkpoint(blob, restored));
  EXPECT_EQ(snapshot(restored), rows);
  EXPECT_EQ(restored.stats().flows, det.stats().flows);
  EXPECT_EQ(restored.stats().matched, det.stats().matched);
}

TEST(CheckpointInterned, ShardedV2MatchesFlatAndRepartitions) {
  const Fixture fx;
  Detector flat{fx.rules.hitlist, fx.rules, fx.config};
  fx.feed(flat);

  for (const unsigned shards : {1u, 4u}) {
    ShardedDetector sharded{fx.rules.hitlist, fx.rules, fx.config, shards};
    ASSERT_TRUE(restore_checkpoint(save_checkpoint_compact(flat), sharded));
    EXPECT_EQ(snapshot(sharded), snapshot(flat)) << "shards=" << shards;
    // Identical state serializes to identical bytes regardless of the
    // engine or partitioning that holds it.
    EXPECT_EQ(save_checkpoint_compact(sharded),
              save_checkpoint_compact(flat))
        << "shards=" << shards;
  }
}

TEST(CheckpointInterned, V2SurvivesServiceRenumbering) {
  // The point of keying by rule *name*: a catalog that renumbers its
  // services (here: reversed ids) still restores evidence onto the right
  // rules, where a blob keyed by raw service ids would attach it to the
  // wrong ones.
  const Fixture fx;
  Detector det{fx.rules.hitlist, fx.rules, fx.config};
  fx.feed(det);
  const auto v2 = save_checkpoint_compact(det);

  Fixture renumbered;
  renumbered.rules.rules.clear();
  renumbered.rules.hitlist = Hitlist{};
  for (ServiceId s = 0; s < 4; ++s) {
    DetectionRule rule;
    rule.service = s;
    rule.name = "vendor-" + std::to_string(3 - s);  // reversed naming
    rule.level = Level::kManufacturer;
    rule.monitored_domains = 8;
    for (std::uint16_t m = 0; m < 8; ++m) {
      rule.monitored_indices.push_back(m);
    }
    renumbered.rules.rules.push_back(std::move(rule));
  }
  Detector target{renumbered.rules.hitlist, renumbered.rules,
                  renumbered.config};
  ASSERT_TRUE(restore_checkpoint(v2, target));

  // Evidence that lived on "vendor-K" (old id K) must now sit on the
  // renumbered id 3-K.
  std::vector<EvidenceRow> expected;
  for (auto row : snapshot(det)) {
    std::get<1>(row) = static_cast<ServiceId>(3 - std::get<1>(row));
    expected.push_back(row);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(snapshot(target), expected);
}

TEST(CheckpointInterned, V2RejectsUnknownRulesAndCorruptTables) {
  const Fixture fx;
  Detector det{fx.rules.hitlist, fx.rules, fx.config};
  fx.feed(det);
  const auto v2 = save_checkpoint_compact(det);

  const auto expect_rejected = [&](std::span<const std::uint8_t> bad,
                                   const char* what) {
    Detector victim{fx.rules.hitlist, fx.rules, fx.config};
    fx.feed(victim);
    const auto before = snapshot(victim);
    std::string error;
    EXPECT_FALSE(restore_checkpoint(bad, victim, &error)) << what;
    EXPECT_FALSE(error.empty()) << what;
    EXPECT_EQ(snapshot(victim), before) << what;  // untouched on failure
  };

  // A rule set that knows none of the blob's rule names.
  RuleSet strangers;
  for (ServiceId s = 0; s < 4; ++s) {
    DetectionRule rule;
    rule.service = s;
    rule.name = "other-" + std::to_string(s);
    rule.level = Level::kManufacturer;
    rule.monitored_domains = 8;
    strangers.rules.push_back(std::move(rule));
  }
  Detector stranger{strangers.hitlist, strangers, fx.config};
  std::string error;
  EXPECT_FALSE(restore_checkpoint(v2, stranger, &error));
  EXPECT_FALSE(error.empty());

  {
    auto bad = v2;
    bad.resize(bad.size() - 1);
    expect_rejected(bad, "truncated");
  }
  {
    auto bad = v2;
    bad.push_back(0);
    expect_rejected(bad, "trailing");
  }
  {
    // Corrupt the intern-table count (first field after the 40-byte
    // header+stats prefix): entries can no longer parse coherently.
    auto bad = v2;
    bad[32 + 3] ^= 0x7f;
    expect_rejected(bad, "corrupt intern count");
  }
}


// Offset of the first subscriber group's u32 row count in a checkpoint of
// `rules`' detector: the 32-byte header, the rule-name intern table (no
// "svc/<id>" labels when every row has a rule), the u64 group count, then
// the group's u64 subscriber.
std::size_t first_row_count_at(const RuleSet& rules) {
  InternTable table;
  for (const auto& r : rules.rules) table.intern(r.name);
  std::vector<std::uint8_t> bytes;
  table.serialize(bytes);
  return 32 + bytes.size() + 8 + 8;
}

TEST(CheckpointInterned, RejectsDuplicatedAndReorderedRows) {
  const Fixture fx;
  const auto expect_rejected = [&](const std::vector<std::uint8_t>& bad,
                                   const char* what) {
    Detector victim{fx.rules.hitlist, fx.rules, fx.config};
    fx.feed(victim);
    const auto before = snapshot(victim);
    std::string error;
    EXPECT_FALSE(restore_checkpoint(bad, victim, &error)) << what;
    EXPECT_FALSE(error.empty()) << what;
    EXPECT_EQ(snapshot(victim), before) << what;  // untouched on failure
  };
  const std::size_t count_at = first_row_count_at(fx.rules);

  // One row, repeated inside its group with the row count raised to 2:
  // accepting it would restore one row while reporting two.
  {
    Detector det{fx.rules.hitlist, fx.rules, fx.config};
    det.observe(1, Fixture::endpoint(0, 0), 443, 5, 3);
    const auto blob = save_checkpoint_compact(det);
    ASSERT_EQ(blob[count_at + 3], 1);
    auto dup = blob;
    dup[count_at + 3] = 2;
    dup.insert(dup.end(), blob.begin() + count_at + 4, blob.end());
    expect_rejected(dup, "duplicated row");
  }

  // Two same-size rows of one subscriber, swapped.
  {
    Detector det{fx.rules.hitlist, fx.rules, fx.config};
    det.observe(1, Fixture::endpoint(0, 0), 443, 5, 3);
    det.observe(1, Fixture::endpoint(1, 0), 443, 5, 3);
    const auto blob = save_checkpoint_compact(det);
    ASSERT_EQ(blob[count_at + 3], 2);
    const std::size_t rows_at = count_at + 4;
    const std::size_t row_bytes = (blob.size() - rows_at) / 2;
    auto swapped = blob;
    std::copy(blob.begin() + rows_at + row_bytes, blob.end(),
              swapped.begin() + rows_at);
    std::copy(blob.begin() + rows_at, blob.begin() + rows_at + row_bytes,
              swapped.begin() + rows_at + row_bytes);
    ASSERT_NE(swapped, blob);
    expect_rejected(swapped, "swapped rows");

    Detector clean{fx.rules.hitlist, fx.rules, fx.config};
    ASSERT_TRUE(restore_checkpoint(blob, clean));
    EXPECT_EQ(snapshot(clean), snapshot(det));
  }

  // Two labels the restoring rule set maps onto one service: the saved
  // "vendor-0" row and the ruleless "svc/9" row of one subscriber would
  // both land on service 9.
  {
    Detector det{fx.rules.hitlist, fx.rules, fx.config};
    det.observe(1, Fixture::endpoint(0, 0), 443, 5, 3);
    det.restore_evidence(1, 9, *det.evidence(1, 0));
    const auto blob = save_checkpoint_compact(det);
    RuleSet renumbered = fx.rules;
    renumbered.rules[0].service = 9;
    Detector target{renumbered.hitlist, renumbered, fx.config};
    std::string error;
    EXPECT_FALSE(restore_checkpoint(blob, target, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_TRUE(snapshot(target).empty());
  }
}

// A one-row blob in a layout older builds wrote and restore no longer
// reads: version 1 keyed rows by raw u16 service id, version 2 by an
// interned rule handle; both used fixed-width rows with a stored distinct
// count and u32 hours.
std::vector<std::uint8_t> retired_blob(std::uint32_t version,
                                       double threshold) {
  flow::ByteWriter w;
  w.u32(kCheckpointMagic);
  w.u32(version);
  w.u64(std::bit_cast<std::uint64_t>(threshold));
  w.u64(10);  // flows
  w.u64(4);   // matched
  if (version == 2) {
    InternTable table;
    table.intern("vendor-0");
    std::vector<std::uint8_t> bytes;
    table.serialize(bytes);
    w.bytes(bytes);
  }
  w.u64(1);  // entry count
  w.u64(1);  // subscriber
  if (version == 1) {
    w.u16(0);  // service id
  } else {
    w.u32(0);  // rule handle
  }
  w.u64(0b11);  // mask[0]
  w.u64(0);     // mask[1]
  w.u16(2);     // distinct
  w.u64(7);     // packets
  w.u32(3);     // first_seen
  w.u32(Evidence::kNever);
  return w.take();
}

TEST(CheckpointInterned, RejectsRetiredVersionsOneAndTwo) {
  const Fixture fx;
  for (const std::uint32_t version : {1U, 2U}) {
    const auto blob = retired_blob(version, fx.config.threshold);
    Detector flat{fx.rules.hitlist, fx.rules, fx.config};
    fx.feed(flat);
    const auto before = snapshot(flat);
    const auto stats = flat.stats();
    std::string error;
    EXPECT_FALSE(restore_checkpoint(blob, flat, &error)) << version;
    EXPECT_EQ(error, "unsupported checkpoint version") << version;
    EXPECT_EQ(snapshot(flat), before) << version;
    EXPECT_EQ(flat.stats().flows, stats.flows) << version;
    EXPECT_EQ(flat.stats().matched, stats.matched) << version;

    ShardedDetector sharded{fx.rules.hitlist, fx.rules, fx.config, 4};
    ASSERT_TRUE(restore_checkpoint(save_checkpoint_compact(flat), sharded));
    EXPECT_FALSE(restore_checkpoint(blob, sharded)) << version;
    EXPECT_EQ(snapshot(sharded), before) << version;
  }
}

}  // namespace
}  // namespace haystack::core
