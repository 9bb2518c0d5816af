// Scrape exporter: render a MetricRegistry snapshot as Prometheus text
// exposition format, plus the matching parser the round-trip tests (and
// any scrape tooling) use to validate that the output is machine-readable,
// not just printable.
//
// The parser covers the full grammar the emitter produces — every
// escape, every histogram series — and rejects anything malformed; it is
// not a general-purpose Prometheus implementation.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace haystack::obs {

/// Prometheus text exposition format: # TYPE headers, one line per series,
/// histograms as cumulative <name>_bucket{le="..."} plus _sum/_count.
[[nodiscard]] std::string to_prometheus(const MetricRegistry& registry);

/// One parsed series (histograms come back as their constituent
/// _bucket/_sum/_count series, exactly as exposed).
struct ParsedSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

/// Parses Prometheus text produced by to_prometheus(). nullopt (with
/// `error`) on any malformed line.
[[nodiscard]] std::optional<std::vector<ParsedSample>> parse_prometheus(
    std::string_view text, std::string* error = nullptr);

}  // namespace haystack::obs
