// Streaming scan: the scenario_scan workflow through the deployment-shape
// streaming pipeline. One day of wild ISP traffic is exported by a border
// fleet as real NetFlow v9 datagrams (options announcements, impairment,
// the lot) and pushed into pipeline::IngestPipeline — a header pass, body
// workers that decode and normalize, and detector shards, over bounded
// backpressured queues — then the per-stage telemetry and detection table
// are printed.
//
// Usage: streaming_scan <scenario-file> [hours] [--metrics] [--flight N]
//
//   --metrics    print the full Prometheus scrape of the run's registry
//   --flight N   print the last N flight-recorder events (default 10)
//
// Scenario keys shaping the pipeline itself:
//   pipeline_shards 8
//   pipeline_queue 1024
//   pipeline_wave 64
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>

#include "obs/flight_recorder.hpp"
#include "pipeline/scenario_runner.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace haystack;
  if (argc < 2) {
    std::cerr << "usage: streaming_scan <scenario-file> [hours]\n";
    return 2;
  }
  std::ifstream file{argv[1]};
  if (!file) {
    std::cerr << "cannot open " << argv[1] << "\n";
    return 2;
  }
  std::string error;
  const auto scenario = simnet::parse_scenario(file, &error);
  if (!scenario) {
    std::cerr << "scenario error: " << error << "\n";
    return 2;
  }

  pipeline::StreamingReplayConfig config;
  bool show_metrics = false;
  std::size_t flight_tail = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      show_metrics = true;
    } else if (std::strcmp(argv[i], "--flight") == 0) {
      flight_tail = 10;
      if (i + 1 < argc && std::atoi(argv[i + 1]) > 0) {
        flight_tail = static_cast<std::size_t>(std::atoi(argv[++i]));
      }
    } else if (std::atoi(argv[i]) > 0) {
      config.hours = static_cast<unsigned>(std::atoi(argv[i]));
    }
  }
  const auto result =
      pipeline::replay_scenario_streaming(*scenario, config, &error);
  if (!result) {
    std::cerr << "scenario error: " << error << "\n";
    return 2;
  }

  const auto& st = result->stats;
  std::cout << "Streamed " << util::fmt_count(result->datagrams)
            << " export datagrams (" << util::fmt_count(st.flows_decoded)
            << " flows, " << util::fmt_count(result->observations)
            << " observations) through "
            << st.detect_shards.size() << " detector shards over "
            << config.hours << " hours\n\n";

  util::TextTable stages;
  stages.header({"Stage", "Items", "Waves", "Max depth", "Prod stalls",
                 "Cons stalls"});
  const auto stage_row = [&](const char* name,
                             const telemetry::StageStats& s) {
    stages.row({name, util::fmt_count(s.dequeued), util::fmt_count(s.waves),
                util::fmt_count(s.max_depth),
                util::fmt_count(s.producer_stalls),
                util::fmt_count(s.consumer_stalls)});
  };
  stage_row("decode (header pass)", st.decode);
  stage_row("bodies + normalize", st.decode_body);
  stage_row("detect (all shards)", st.detect);
  stages.print(std::cout);
  if (st.malformed_datagrams > 0 || st.unknown_version > 0) {
    std::cout << "Malformed: " << st.malformed_datagrams
              << ", unknown version: " << st.unknown_version << "\n";
  }

  std::cout << "\n";
  util::TextTable table;
  table.header({"Service", "Subscribers detected"});
  for (const auto& [name, count] : result->per_service) {
    table.row({name, util::fmt_count(count)});
  }
  table.print(std::cout);
  std::cout << "\nSubscribers with any IoT activity: "
            << util::fmt_count(result->subscribers_detected) << "\n";

  if (!result->self_check.ok) {
    std::cerr << "\nSELF-CHECK FAILED: " << result->self_check.detail << "\n";
  }
  if (flight_tail > 0) {
    const auto& events = result->flight_events;
    const std::size_t n = std::min(flight_tail, events.size());
    std::cout << "\nFlight recorder (last " << n << " of " << events.size()
              << " events):\n";
    for (std::size_t i = events.size() - n; i < events.size(); ++i) {
      const auto& e = events[i];
      std::cout << "  #" << e.seq << " h" << e.hour << " "
                << obs::event_name(e.kind) << " source=" << e.source
                << " a=" << e.a << " b=" << e.b << "\n";
    }
  }
  if (show_metrics) {
    std::cout << "\n# Prometheus scrape of the run\n"
              << result->metrics_prometheus;
  }
  return result->self_check.ok ? 0 : 1;
}
