#include "simnet/scenario.hpp"

#include <charconv>
#include <istream>
#include <limits>
#include <sstream>

namespace haystack::simnet {

namespace {

// Bounds on the keys that size threads and buffers up front: each pipeline
// shard is a detector and a worker thread, each vantage collector a full
// detector, and every intake worker reserves a whole wave of items.
constexpr std::uint32_t kMaxPipelineShards = 256;
constexpr std::uint32_t kMaxVantageCollectors = 256;
constexpr std::uint32_t kMaxPipelineWave = 65'536;

// Reads one unsigned integer token no larger than `max`. std::from_chars
// rejects a sign, so "-1" is an error here; istream extraction into an
// unsigned type would wrap it to the type's maximum instead.
template <typename T>
bool read_unsigned(std::istringstream& fields, T& out,
                   T max = std::numeric_limits<T>::max()) {
  std::string token;
  if (!(fields >> token)) return false;
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && ptr == end && out <= max;
}

// Reads a possibly-quoted name token.
bool read_name(std::istringstream& fields, std::string& out) {
  fields >> std::ws;
  if (fields.peek() == '"') {
    fields.get();
    std::getline(fields, out, '"');
    return !out.empty();
  }
  return static_cast<bool>(fields >> out);
}

}  // namespace

PopulationConfig Scenario::apply(PopulationConfig base) const {
  if (seed) base.seed = *seed;
  if (lines) base.lines = *lines;
  if (rotation) base.daily_rotation_probability = *rotation;
  if (dual_stack) base.dual_stack_fraction = *dual_stack;
  return base;
}

WildIspConfig Scenario::apply(WildIspConfig base) const {
  // Derive an independent stream from the scenario seed.
  if (seed) base.seed = *seed ^ 0x5c;
  if (sampling) base.sampling = *sampling;
  if (base_active_prob) base.base_active_prob = *base_active_prob;
  return base;
}

std::optional<flow::ImpairmentConfig> Scenario::delta_impairment() const {
  if (!delta_drop && !delta_duplicate && !delta_reorder && !delta_truncate &&
      !delta_seed) {
    return std::nullopt;
  }
  flow::ImpairmentConfig config;
  config.seed = delta_seed.value_or(seed.value_or(1));
  config.drop = delta_drop.value_or(0.0);
  config.duplicate = delta_duplicate.value_or(0.0);
  config.reorder = delta_reorder.value_or(0.0);
  config.truncate = delta_truncate.value_or(0.0);
  return config;
}

std::optional<flow::ImpairmentConfig> Scenario::impairment() const {
  if (!impair_drop && !impair_duplicate && !impair_reorder &&
      !impair_truncate && !impair_seed) {
    return std::nullopt;
  }
  flow::ImpairmentConfig config;
  config.seed = impair_seed.value_or(seed.value_or(1));
  config.drop = impair_drop.value_or(0.0);
  config.duplicate = impair_duplicate.value_or(0.0);
  config.reorder = impair_reorder.value_or(0.0);
  config.truncate = impair_truncate.value_or(0.0);
  return config;
}

bool Scenario::apply_overrides(Catalog& catalog, std::string* error) const {
  for (const auto& [name, value] : penetration_overrides) {
    const Product* product = catalog.product_by_name(name);
    if (product == nullptr) {
      if (error != nullptr) *error = "unknown product: " + name;
      return false;
    }
    catalog.set_penetration(product->id, value);
  }
  for (const auto& [name, value] : wild_extra_overrides) {
    const DetectionUnit* unit = catalog.unit_by_name(name);
    if (unit == nullptr) {
      if (error != nullptr) *error = "unknown unit: " + name;
      return false;
    }
    catalog.set_wild_extra(unit->id, value);
  }
  return true;
}

std::optional<Scenario> parse_scenario(std::istream& is,
                                       std::string* error) {
  Scenario scenario;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    // Strip trailing comments.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream fields{line};
    std::string key;
    if (!(fields >> key)) continue;  // whitespace-only line

    auto syntax_error = [&](const char* what) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " + what;
      }
      return std::nullopt;
    };

    if (key == "seed") {
      std::uint64_t v = 0;
      if (!read_unsigned(fields, v)) return syntax_error("bad seed");
      scenario.seed = v;
    } else if (key == "lines") {
      std::uint32_t v = 0;
      if (!read_unsigned(fields, v)) return syntax_error("bad lines");
      scenario.lines = v;
    } else if (key == "sampling") {
      std::uint32_t v = 0;
      if (!read_unsigned(fields, v) || v == 0) {
        return syntax_error("bad sampling");
      }
      scenario.sampling = v;
    } else if (key == "rotation") {
      double v = 0;
      if (!(fields >> v) || v < 0 || v > 1) {
        return syntax_error("bad rotation");
      }
      scenario.rotation = v;
    } else if (key == "dual_stack") {
      double v = 0;
      if (!(fields >> v) || v < 0 || v > 1) {
        return syntax_error("bad dual_stack");
      }
      scenario.dual_stack = v;
    } else if (key == "base_active_prob") {
      double v = 0;
      if (!(fields >> v) || v < 0 || v > 1) {
        return syntax_error("bad base_active_prob");
      }
      scenario.base_active_prob = v;
    } else if (key == "impair_drop" || key == "impair_duplicate" ||
               key == "impair_reorder" || key == "impair_truncate") {
      double v = 0;
      if (!(fields >> v) || v < 0 || v > 1) {
        return syntax_error("bad impairment probability");
      }
      if (key == "impair_drop") scenario.impair_drop = v;
      else if (key == "impair_duplicate") scenario.impair_duplicate = v;
      else if (key == "impair_reorder") scenario.impair_reorder = v;
      else scenario.impair_truncate = v;
    } else if (key == "pipeline_shards" || key == "pipeline_queue" ||
               key == "pipeline_wave") {
      const std::uint32_t max =
          key == "pipeline_shards" ? kMaxPipelineShards
          : key == "pipeline_wave" ? kMaxPipelineWave
                                   : std::numeric_limits<std::uint32_t>::max();
      std::uint32_t v = 0;
      if (!read_unsigned(fields, v, max) || v == 0) {
        return syntax_error("bad pipeline setting");
      }
      if (key == "pipeline_shards") scenario.pipeline_shards = v;
      else if (key == "pipeline_queue") scenario.pipeline_queue = v;
      else scenario.pipeline_wave = v;
    } else if (key == "impair_seed") {
      std::uint64_t v = 0;
      if (!read_unsigned(fields, v)) return syntax_error("bad impair_seed");
      scenario.impair_seed = v;
    } else if (key == "delta_drop" || key == "delta_duplicate" ||
               key == "delta_reorder" || key == "delta_truncate" ||
               key == "ack_loss") {
      double v = 0;
      if (!(fields >> v) || v < 0 || v > 1) {
        return syntax_error("bad delta-channel probability");
      }
      if (key == "delta_drop") scenario.delta_drop = v;
      else if (key == "delta_duplicate") scenario.delta_duplicate = v;
      else if (key == "delta_reorder") scenario.delta_reorder = v;
      else if (key == "delta_truncate") scenario.delta_truncate = v;
      else scenario.ack_loss = v;
    } else if (key == "delta_seed") {
      std::uint64_t v = 0;
      if (!read_unsigned(fields, v)) return syntax_error("bad delta_seed");
      scenario.delta_seed = v;
    } else if (key == "vantage_collectors") {
      std::uint32_t v = 0;
      if (!read_unsigned(fields, v, kMaxVantageCollectors) || v == 0) {
        return syntax_error("bad vantage_collectors");
      }
      scenario.vantage_collectors = v;
    } else if (key == "vantage_kill_collector" ||
               key == "vantage_kill_hour" || key == "vantage_restart_hour") {
      std::uint32_t v = 0;
      if (!read_unsigned(fields, v)) return syntax_error("bad vantage setting");
      if (key == "vantage_kill_collector") {
        scenario.vantage_kill_collector = v;
      } else if (key == "vantage_kill_hour") {
        scenario.vantage_kill_hour = v;
      } else {
        scenario.vantage_restart_hour = v;
      }
    } else if (key == "penetration" || key == "wild_extra") {
      std::string name;
      double v = 0;
      if (!read_name(fields, name) || !(fields >> v) || v < 0 || v > 1) {
        return syntax_error("bad override");
      }
      auto& list = key == "penetration" ? scenario.penetration_overrides
                                        : scenario.wild_extra_overrides;
      list.emplace_back(std::move(name), v);
    } else {
      return syntax_error("unknown key");
    }
  }
  return scenario;
}

}  // namespace haystack::simnet
