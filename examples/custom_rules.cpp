// Bring-your-own-data: using the core methodology WITHOUT the simulator.
//
// Everything in core/ is input-agnostic. This example builds the inputs by
// hand — a passive-DNS database, a certificate-scan database, and the
// ServiceSpecs your own testbed analysis would produce — generates rules,
// and then detects devices from raw NetFlow v9 export packets, byte-for-
// byte as a collector would receive them from a router.
#include <iostream>

#include "core/detector.hpp"
#include "core/infra_classifier.hpp"
#include "core/rules.hpp"
#include "flow/netflow_v9.hpp"
#include "telemetry/anonymize.hpp"

int main() {
  using namespace haystack;

  // --- External data (normally: DNSDB/Censys exports) -------------------
  dns::PassiveDnsDb pdns;
  const auto cam_ip = *net::IpAddress::parse("198.51.100.10");
  const auto cam_ip2 = *net::IpAddress::parse("198.51.100.11");
  const auto cdn_ip = *net::IpAddress::parse("203.0.113.7");
  // acme-cam.example's two API endpoints sit on dedicated addresses...
  pdns.add_a(dns::Fqdn{"api.acme-cam.example"}, cam_ip, 0, 13);
  pdns.add_a(dns::Fqdn{"stream.acme-cam.example"}, cam_ip2, 0, 13);
  // ...while its firmware CDN is shared with an unrelated tenant.
  pdns.add_a(dns::Fqdn{"fw.acme-cam.example"}, cdn_ip, 0, 13);
  pdns.add_a(dns::Fqdn{"cdn.unrelated-shop.example"}, cdn_ip, 0, 13);

  tlscert::CertScanDb scans;  // no HTTPS fallback needed in this example

  // --- Manual-analysis output: one candidate service --------------------
  core::ServiceSpec spec;
  spec.id = 0;
  spec.name = "Acme Camera";
  spec.level = core::Level::kManufacturer;
  for (const char* name : {"api.acme-cam.example", "stream.acme-cam.example",
                           "fw.acme-cam.example"}) {
    core::ServiceDomain d;
    d.fqdn = dns::Fqdn{name};
    d.port = 443;
    spec.domains.push_back(d);
  }

  // --- Rule generation ---------------------------------------------------
  const core::InfraClassifier classifier{pdns, scans, 0, 13};
  const core::RuleSet rules =
      core::generate_rules({spec}, classifier, core::RuleGenConfig{});
  const auto* rule = rules.rule_by_name("Acme Camera");
  std::cout << "Rule for Acme Camera monitors " << rule->monitored_domains
            << " of 3 candidate domains (the CDN-hosted one was classified "
               "shared and dropped)\n";

  // --- Raw NetFlow v9 input ----------------------------------------------
  // A router exports two flows: a subscriber talking to the camera API,
  // and unrelated web traffic.
  flow::FlowRecord iot_flow;
  iot_flow.key.src = *net::IpAddress::parse("100.64.7.42");
  iot_flow.key.dst = cam_ip;
  iot_flow.key.src_port = 51000;
  iot_flow.key.dst_port = 443;
  iot_flow.key.proto = 6;
  iot_flow.packets = 3;
  iot_flow.bytes = 1800;
  iot_flow.sampling = 1000;
  flow::FlowRecord web_flow = iot_flow;
  web_flow.key.dst = *net::IpAddress::parse("93.184.216.34");

  flow::nf9::Exporter exporter{{.source_id = 11}};
  const auto packets =
      exporter.export_flows(std::vector{iot_flow, web_flow}, 1574000000);
  std::cout << "Router exported " << packets.size()
            << " NetFlow v9 packet(s), " << packets[0].size() << " bytes\n";

  // --- Collector + detector ----------------------------------------------
  flow::nf9::Collector collector;
  core::Detector detector{rules.hitlist, rules, {.threshold = 0.4}};
  net::AsnRegistry asns;  // empty: direction falls back to port heuristic

  std::vector<flow::FlowRecord> decoded;
  for (const auto& packet : packets) collector.ingest(packet, decoded);
  for (const auto& rec : decoded) {
    telemetry::NormalizedFlow norm;
    if (!telemetry::normalize_direction(rec, asns, norm)) continue;
    const auto subscriber = telemetry::anonymize(norm.subscriber, /*key=*/7);
    detector.observe(subscriber, norm.server, norm.server_port, rec.packets,
                     /*hour=*/0);
  }

  const auto subscriber =
      telemetry::anonymize(*net::IpAddress::parse("100.64.7.42"), 7);
  std::cout << "Acme Camera detected behind the (anonymized) line: "
            << (detector.detected(subscriber, rule->service) ? "yes" : "no")
            << "\n";
  return 0;
}
