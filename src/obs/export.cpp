#include "obs/export.hpp"

#include <cctype>
#include <cstdlib>

namespace haystack::obs {

namespace {

void append_escaped(std::string& out, std::string_view value) {
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
}

void append_label_set(std::string& out, const Labels& labels,
                      const std::string* extra_key = nullptr,
                      const std::string* extra_value = nullptr) {
  if (labels.empty() && extra_key == nullptr) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    append_escaped(out, v);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += *extra_key;
    out += "=\"";
    append_escaped(out, *extra_value);
    out += '"';
  }
  out += '}';
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

const std::string kLe = "le";

}  // namespace

std::string to_prometheus(const MetricRegistry& registry) {
  std::string out;
  for (const auto& s : registry.snapshot()) {
    out += "# TYPE ";
    out += s.name;
    out += ' ';
    out += kind_name(s.kind);
    out += '\n';
    switch (s.kind) {
      case MetricKind::kCounter:
        out += s.name;
        append_label_set(out, s.labels);
        out += ' ' + std::to_string(s.counter) + '\n';
        break;
      case MetricKind::kGauge:
        out += s.name;
        append_label_set(out, s.labels);
        out += ' ' + std::to_string(s.gauge) + '\n';
        break;
      case MetricKind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
          if (s.hist.buckets[b] == 0) continue;
          cumulative += s.hist.buckets[b];
          const std::string le =
              std::to_string(Histogram::upper_bound(b));
          out += s.name + "_bucket";
          append_label_set(out, s.labels, &kLe, &le);
          out += ' ' + std::to_string(cumulative) + '\n';
        }
        const std::string inf = "+Inf";
        out += s.name + "_bucket";
        append_label_set(out, s.labels, &kLe, &inf);
        out += ' ' + std::to_string(s.hist.count) + '\n';
        out += s.name + "_sum";
        append_label_set(out, s.labels);
        out += ' ' + std::to_string(s.hist.sum) + '\n';
        out += s.name + "_count";
        append_label_set(out, s.labels);
        out += ' ' + std::to_string(s.hist.count) + '\n';
        break;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parser. It accepts exactly the grammar to_prometheus() produces.

namespace {

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

bool parse_label_block(std::string_view line, std::size_t& pos,
                       std::map<std::string, std::string>& labels,
                       std::string* error) {
  ++pos;  // consume '{'
  while (pos < line.size() && line[pos] != '}') {
    std::size_t eq = line.find('=', pos);
    if (eq == std::string_view::npos) {
      return fail(error, "label without '='");
    }
    const std::string key{line.substr(pos, eq - pos)};
    pos = eq + 1;
    if (pos >= line.size() || line[pos] != '"') {
      return fail(error, "label value not quoted");
    }
    ++pos;
    std::string value;
    while (pos < line.size() && line[pos] != '"') {
      if (line[pos] == '\\' && pos + 1 < line.size()) {
        ++pos;
        value += line[pos] == 'n' ? '\n' : line[pos];
      } else {
        value += line[pos];
      }
      ++pos;
    }
    if (pos >= line.size()) return fail(error, "unterminated label value");
    ++pos;  // closing quote
    labels.emplace(key, value);
    if (pos < line.size() && line[pos] == ',') ++pos;
  }
  if (pos >= line.size()) return fail(error, "unterminated label block");
  ++pos;  // consume '}'
  return true;
}

}  // namespace

std::optional<std::vector<ParsedSample>> parse_prometheus(
    std::string_view text, std::string* error) {
  std::vector<ParsedSample> out;
  std::size_t line_start = 0;
  while (line_start < text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = text.size();
    const std::string_view line =
        text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.empty() || line[0] == '#') continue;

    ParsedSample sample;
    std::size_t pos = 0;
    while (pos < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[pos])) != 0 ||
            line[pos] == '_' || line[pos] == ':')) {
      ++pos;
    }
    if (pos == 0) {
      fail(error, "line does not start with a metric name");
      return std::nullopt;
    }
    sample.name = std::string{line.substr(0, pos)};
    if (pos < line.size() && line[pos] == '{') {
      if (!parse_label_block(line, pos, sample.labels, error)) {
        return std::nullopt;
      }
    }
    while (pos < line.size() && line[pos] == ' ') ++pos;
    if (pos >= line.size()) {
      fail(error, "missing value on line for " + sample.name);
      return std::nullopt;
    }
    char* end = nullptr;
    const std::string value_text{line.substr(pos)};
    sample.value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str() || *end != '\0') {
      fail(error, "unparseable value for " + sample.name);
      return std::nullopt;
    }
    out.push_back(std::move(sample));
  }
  return out;
}

}  // namespace haystack::obs
