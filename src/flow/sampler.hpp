// Packet sampling — the mechanism that makes ISP/IXP flow data "sparse".
//
// Routers in the paper sample packets at a consistent 1-in-N rate before
// flow aggregation (NetFlow at the ISP; IPFIX at the IXP at an order of
// magnitude lower rate). The simulator models this as binomial thinning
// applied directly to an aggregate flow record, which is statistically
// equivalent to per-packet sampling and never has to materialize the
// individual packets of millions of subscriber lines.
#pragma once

#include <cstdint>
#include <optional>

#include "flow/record.hpp"
#include "util/rng.hpp"

namespace haystack::flow {

/// Draws from Binomial(n, p) reproducibly: exact Bernoulli summation for
/// small n, Poisson approximation for small p·n, Gaussian otherwise.
[[nodiscard]] std::uint64_t binomial(util::Pcg32& rng, std::uint64_t n,
                                     double p) noexcept;

/// Applies 1-in-N packet sampling to an aggregate flow.
///
/// The sampled packet count is Binomial(packets, 1/N); bytes are scaled by
/// the realized fraction (every packet of a flow is assumed equal-sized,
/// which is what per-flow average packet size gives a collector anyway).
/// Returns nullopt when no packet of the flow was sampled — the flow is
/// invisible at the vantage point, the central effect the paper studies.
/// TCP flags are retained only with probability proportional to the flags-
/// bearing packets being sampled; we keep the union (collectors do too).
[[nodiscard]] std::optional<FlowRecord> thin_flow(const FlowRecord& full,
                                                  std::uint32_t interval,
                                                  util::Pcg32& rng) noexcept;

}  // namespace haystack::flow
