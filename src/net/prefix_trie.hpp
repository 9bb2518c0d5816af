// Binary (one bit per level) longest-prefix-match trie.
//
// Maps CIDR prefixes to values of type T; lookup returns the value of the
// most specific prefix covering an address. Used by the AS registry
// (address -> member AS at the IXP).
//
// The trie is family-segregated internally: IPv4 and IPv6 prefixes live in
// separate roots, so lookups never cross families.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "net/prefix.hpp"

namespace haystack::net {

/// Longest-prefix-match map from Prefix to T.
///
/// T must be copyable. insert() overwrites on exact duplicate prefix.
template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() = default;

  /// Inserts (or replaces) the value stored at `prefix`.
  void insert(const Prefix& prefix, T value) {
    Node* node = &root_for(prefix.family());
    for (unsigned depth = 0; depth < prefix.length(); ++depth) {
      auto& child = prefix.base().bit(depth) ? node->one : node->zero;
      if (!child) child = std::make_unique<Node>();
      node = child.get();
    }
    if (!node->value) ++size_;
    node->value = std::move(value);
  }

  /// Longest-prefix match: value of the most specific prefix containing
  /// `addr`, or nullopt when no prefix covers it.
  [[nodiscard]] std::optional<T> lookup(const IpAddress& addr) const {
    const Node* node = &root_for(addr.family());
    std::optional<T> best;
    if (node->value) best = node->value;
    for (unsigned depth = 0; depth < addr.bit_width(); ++depth) {
      const auto& child = addr.bit(depth) ? node->one : node->zero;
      if (!child) break;
      node = child.get();
      if (node->value) best = node->value;
    }
    return best;
  }

  /// Exact-match lookup of a previously inserted prefix.
  [[nodiscard]] std::optional<T> exact(const Prefix& prefix) const {
    const Node* node = &root_for(prefix.family());
    for (unsigned depth = 0; depth < prefix.length(); ++depth) {
      const auto& child = prefix.base().bit(depth) ? node->one : node->zero;
      if (!child) return std::nullopt;
      node = child.get();
    }
    return node->value;
  }

  /// Number of stored prefixes.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Visits every (prefix, value) pair in lexicographic bit order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    walk(v4_root_, Prefix::of(IpAddress::v4(0), 0), fn, Family::kIpv4, 0, 0, 0);
    walk(v6_root_, Prefix::of(IpAddress::v6(0, 0), 0), fn, Family::kIpv6, 0, 0,
         0);
  }

 private:
  struct Node {
    std::unique_ptr<Node> zero;
    std::unique_ptr<Node> one;
    std::optional<T> value;
  };

  Node& root_for(Family f) noexcept {
    return f == Family::kIpv4 ? v4_root_ : v6_root_;
  }
  const Node& root_for(Family f) const noexcept {
    return f == Family::kIpv4 ? v4_root_ : v6_root_;
  }

  template <typename Fn>
  static void walk(const Node& node, const Prefix& /*unused*/, Fn& fn,
                   Family family, std::uint64_t hi, std::uint64_t lo,
                   unsigned depth) {
    if (node.value) {
      const IpAddress base = family == Family::kIpv4
                                 ? IpAddress::v4(static_cast<std::uint32_t>(lo))
                                 : IpAddress::v6(hi, lo);
      fn(Prefix::of(base, depth), *node.value);
    }
    const unsigned width = family == Family::kIpv4 ? 32 : 128;
    if (depth >= width) return;
    auto descend = [&](const std::unique_ptr<Node>& child, bool bit) {
      if (!child) return;
      std::uint64_t nhi = hi;
      std::uint64_t nlo = lo;
      if (bit) {
        if (family == Family::kIpv4) {
          nlo |= std::uint64_t{1} << (31 - depth);
        } else if (depth < 64) {
          nhi |= std::uint64_t{1} << (63 - depth);
        } else {
          nlo |= std::uint64_t{1} << (127 - depth);
        }
      }
      walk(*child, Prefix{}, fn, family, nhi, nlo, depth + 1);
    };
    descend(node.zero, false);
    descend(node.one, true);
  }

  Node v4_root_;
  Node v6_root_;
  std::size_t size_ = 0;
};

}  // namespace haystack::net
