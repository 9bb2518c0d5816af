#include "core/detector.hpp"

#include <algorithm>

namespace haystack::core {

Detector::Detector(const Hitlist& hitlist, const RuleSet& rules,
                   const DetectorConfig& config)
    : compiled_{compile_rules(hitlist, rules, config, /*id=*/1, nullptr,
                              nullptr)} {}

Detector::Detector(std::shared_ptr<const CompiledRuleVersion> version)
    : compiled_{std::move(version)} {}

void Detector::adopt_version(
    std::shared_ptr<const CompiledRuleVersion> version) {
  compiled_ = std::move(version);
}

void Detector::apply_match(SubscriberKey subscriber, ServiceId service,
                           std::uint16_t pos, const RuleFast& fast,
                           std::uint64_t packets, util::HourBin hour) {
  bool inserted = false;
  Evidence& ev = evidence_.find_or_insert(subscriber, service, inserted);
  if (inserted) {
    ev.set_first_seen(hour);
    update_evidence_gauges();
  }
  ev.add_packets(packets);

  if (pos < 128 && !ev.sees(pos)) ev.set_bit(pos);

  if (!ev.satisfied()) {
    // critical_mask is nonzero only when the rule's critical domain alone
    // is sufficient; the AND tests sees(critical index) in one bit op.
    const bool critical_ok =
        ((ev.mask(0) & fast.critical_mask[0]) |
         (ev.mask(1) & fast.critical_mask[1])) != 0;
    if (critical_ok || ev.distinct() >= fast.required) {
      ev.set_satisfied_hour(hour);
      ++satisfied_total_;
      if (instruments_.rules_satisfied) instruments_.rules_satisfied->add(1);
      if (instruments_.time_to_detection_hours) {
        instruments_.time_to_detection_hours->record(hour - ev.first_seen());
      }
    }
  }
}

std::optional<Hit> Detector::observe(SubscriberKey subscriber,
                                     const net::IpAddress& server,
                                     std::uint16_t port,
                                     std::uint64_t packets,
                                     util::HourBin hour) {
  const Signature sig =
      compiled_->index->sig_of(server, port, util::day_of(hour));
  observe_interned(subscriber, sig, packets, hour);
  if (sig == kNoSig) return std::nullopt;
  return Hit{sig_service(sig), sig_domain_index(sig)};
}

void Detector::observe_interned(SubscriberKey subscriber, Signature sig,
                                std::uint64_t packets, util::HourBin hour) {
  ++stats_.flows;
  if (instruments_.flows) instruments_.flows->add(1);
  if (sig == kNoSig) return;
  ++stats_.matched;
  if (instruments_.matched) instruments_.matched->add(1);

  const ServiceId service = sig_service(sig);
  if (service >= compiled_->fast_rules.size() ||
      !compiled_->fast_rules[service].has_rule) {
    return;
  }
  apply_match(subscriber, service, sig_domain_index(sig),
              compiled_->fast_rules[service], packets, hour);
}

bool Detector::observe_interned_uncounted(SubscriberKey subscriber,
                                          Signature sig,
                                          std::uint64_t packets,
                                          util::HourBin hour) {
  if (sig == kNoSig) return false;
  const ServiceId service = sig_service(sig);
  if (service < compiled_->fast_rules.size() &&
      compiled_->fast_rules[service].has_rule) {
    apply_match(subscriber, service, sig_domain_index(sig),
                compiled_->fast_rules[service], packets, hour);
  }
  return true;
}

void Detector::add_observation_counts(std::uint64_t flows,
                                      std::uint64_t matched) {
  stats_.flows += flows;
  stats_.matched += matched;
  if (instruments_.flows && flows != 0) instruments_.flows->add(flows);
  if (instruments_.matched && matched != 0) {
    instruments_.matched->add(matched);
  }
}

void Detector::set_observed_loss(double fraction) noexcept {
  const bool was_degraded = degraded();
  observed_loss_.store(std::clamp(fraction, 0.0, 1.0),
                       std::memory_order_relaxed);
  if (instruments_.recorder != nullptr && degraded() != was_degraded) {
    const auto ppm = static_cast<std::uint64_t>(observed_loss() * 1e6);
    instruments_.recorder->record(degraded() ? obs::EventKind::kDegradedEnter
                                             : obs::EventKind::kDegradedExit,
                                  instruments_.source, ppm);
  }
}

void Detector::restore_evidence(SubscriberKey subscriber, ServiceId service,
                                const Evidence& evidence) {
  bool inserted = false;
  evidence_.find_or_insert(subscriber, service, inserted) = evidence;
  update_evidence_gauges();
}

const Evidence* Detector::evidence(SubscriberKey subscriber,
                                   ServiceId service) const {
  return evidence_.find(subscriber, service);
}

void Detector::for_each_evidence(
    const std::function<void(SubscriberKey, ServiceId, const Evidence&)>& fn)
    const {
  evidence_.for_each([&](SubscriberKey subscriber, ServiceId service,
                         const Evidence& ev) { fn(subscriber, service, ev); });
}

void Detector::clear() {
  evidence_.clear();
  update_evidence_gauges();
}

void Detector::update_evidence_gauges() {
  if (instruments_.evidence_entries) {
    instruments_.evidence_entries->set(
        static_cast<std::int64_t>(evidence_.size()));
  }
  if (instruments_.evidence_bytes) {
    instruments_.evidence_bytes->set(
        static_cast<std::int64_t>(evidence_.memory_bytes()));
  }
}

}  // namespace haystack::core
