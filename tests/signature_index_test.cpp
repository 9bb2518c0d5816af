// SignatureIndex::sig_of is the one hitlist lookup every detect path
// takes (Detector::observe included), so it is pinned here directly to
// Hitlist::lookup over the simnet backend ruleset. That ruleset is
// dual-stack, and both families share one slot table: the sweep covers
// IPv4 and IPv6 endpoints, each probed again as the other family's
// address with the same low bits, near misses on the port, unlisted
// addresses, and out-of-range days.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "core/hitlist.hpp"
#include "core/rules.hpp"
#include "core/signature_index.hpp"
#include "net/ip_address.hpp"
#include "simnet/backend.hpp"
#include "simnet/catalog.hpp"
#include "simnet/manual_analysis.hpp"

namespace haystack::core {
namespace {

class SignatureIndexTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new simnet::Catalog();
    backend_ = new simnet::Backend(*catalog_, simnet::BackendConfig{});
    rules_ = new RuleSet(simnet::build_ruleset(*backend_));
  }
  static void TearDownTestSuite() {
    delete rules_;
    delete backend_;
    delete catalog_;
  }

  /// sig_of is kNoSig exactly when lookup misses, else it packs the Hit.
  static void expect_same(const Hitlist& hitlist, const SignatureIndex& index,
                          const net::IpAddress& ip, std::uint16_t port,
                          util::DayBin day) {
    const std::optional<Hit> hit = hitlist.lookup(ip, port, day);
    const Signature sig = index.sig_of(ip, port, day);
    if (!hit) {
      EXPECT_EQ(sig, kNoSig) << ip.to_string() << ":" << port << " day "
                             << day;
      return;
    }
    ASSERT_NE(sig, kNoSig) << ip.to_string() << ":" << port << " day "
                           << day;
    EXPECT_EQ(sig_service(sig), hit->service);
    EXPECT_EQ(sig_domain_index(sig), hit->domain_index);
  }

  static simnet::Catalog* catalog_;
  static simnet::Backend* backend_;
  static RuleSet* rules_;
};

simnet::Catalog* SignatureIndexTest::catalog_ = nullptr;
simnet::Backend* SignatureIndexTest::backend_ = nullptr;
RuleSet* SignatureIndexTest::rules_ = nullptr;

TEST_F(SignatureIndexTest, SigOfMatchesHitlistLookupOnBackendRuleset) {
  const Hitlist& hitlist = rules_->hitlist;
  SignatureIndex index;
  index.build(hitlist, *rules_);
  EXPECT_EQ(index.days(), util::kStudyDays);

  std::size_t entries = 0;
  std::size_t v6_entries = 0;
  hitlist.for_each([&](util::DayBin day, const net::IpAddress& ip,
                       std::uint16_t port, const Hit&) {
    ++entries;
    if (!ip.is_v4()) ++v6_entries;
    expect_same(hitlist, index, ip, port, day);
    expect_same(hitlist, index, ip, static_cast<std::uint16_t>(port - 1),
                day);
    expect_same(hitlist, index, ip, static_cast<std::uint16_t>(port + 1),
                day);
    expect_same(hitlist, index, ip, port, util::kStudyDays);
    expect_same(hitlist, index, ip, port, 0xffffffffU);
    // The other family's address with the same low bits: the slot tag
    // carries the family, so sig_of must agree with lookup here too.
    const net::IpAddress other =
        ip.is_v4() ? net::IpAddress::v6(0, ip.lo())
                   : net::IpAddress::v4(static_cast<std::uint32_t>(ip.lo()));
    expect_same(hitlist, index, other, port, day);
  });
  EXPECT_EQ(entries, hitlist.total_size());
  EXPECT_GT(v6_entries, 0U) << "backend ruleset should be dual-stack";

  // Addresses the backend never assigns (RFC 5737 / RFC 3849
  // documentation ranges): every day misses on both sides.
  const auto unlisted_v4 = net::IpAddress::parse("192.0.2.1");
  const auto unlisted_v6 = net::IpAddress::parse("2001:db8::1");
  ASSERT_TRUE(unlisted_v4 && unlisted_v6);
  for (util::DayBin day = 0; day < util::kStudyDays; ++day) {
    for (const auto& ip : {*unlisted_v4, *unlisted_v6}) {
      EXPECT_FALSE(hitlist.lookup(ip, 443, day).has_value());
      expect_same(hitlist, index, ip, 443, day);
    }
  }
}

TEST_F(SignatureIndexTest, CollidingAddKeepsFirstWriter) {
  Hitlist hitlist = rules_->hitlist;
  std::optional<util::DayBin> day;
  std::optional<net::IpAddress> ip;
  std::uint16_t port = 0;
  Hit first;
  hitlist.for_each([&](util::DayBin d, const net::IpAddress& a,
                       std::uint16_t p, const Hit& h) {
    if (day) return;
    day = d;
    ip = a;
    port = p;
    first = h;
  });
  ASSERT_TRUE(day.has_value());

  const std::uint64_t collisions = hitlist.collisions();
  const Hit other{static_cast<ServiceId>(first.service + 1),
                  static_cast<std::uint16_t>(first.domain_index + 1)};
  hitlist.add(*ip, port, *day, other);
  EXPECT_EQ(hitlist.collisions(), collisions + 1);

  SignatureIndex index;
  index.build(hitlist, *rules_);
  const Signature sig = index.sig_of(*ip, port, *day);
  ASSERT_NE(sig, kNoSig);
  EXPECT_EQ(sig_service(sig), first.service);
  EXPECT_EQ(sig_domain_index(sig), first.domain_index);
  expect_same(hitlist, index, *ip, port, *day);
}

}  // namespace
}  // namespace haystack::core
