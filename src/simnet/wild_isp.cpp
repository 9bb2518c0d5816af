#include "simnet/wild_isp.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "util/cpus.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace haystack::simnet {

namespace {

constexpr std::uint64_t kActiveSalt = 0xac71f17e;
constexpr std::uint64_t kHeavySalt = 0x6ea57e55;
constexpr std::uint64_t kFlowSalt = 0x3f10b5;

// Records reserved per block slot by the calling thread. A default block
// yields ~9–20 k flows an hour, so workers almost never grow a slot's
// buffer (growth would allocate from the workers' own malloc arenas, which
// keep freed memory per thread); untouched reserved pages cost no RSS.
constexpr std::size_t kBufferReserve = 8 * Population::kBlockLines;

// Mode indices into DomainPlan::rates and UnitPlan::counts.
enum Mode : unsigned { kIdle, kActive, kHeavy };

// The per-flow draws with fixed divisors.
constexpr util::Bound kSourcePorts{28'000};
constexpr util::Bound kBytesPerPacket{900};
constexpr util::Bound kStartOffsets{3'500'000};
constexpr util::Bound kDurations{60'000};
// Happy eyeballs: a dual-stack line prefers v6 when the backend publishes
// AAAA records.
constexpr std::uint64_t kPreferV6 = util::chance_threshold(0.6);

/// One block's records, alone on its cache lines: the worker filling it
/// writes its vector's end pointer on every record.
template <typename Record>
struct alignas(64) Slot {
  std::vector<Record> records;
  bool ready = false;  // under the ring's mutex
};

/// Runs fill(b, records) for blocks b = 0 .. count − 1 on `workers`
/// threads and deliver(records) on the calling thread in ascending b.
/// 2 · (workers + 1) slots, allocated here, circulate: block b uses slot
/// b % slots, and its worker sleeps until the caller has delivered the
/// block that last used it. Blocks differ in size and the caller delivers
/// them in order, so with one spare slot per worker a worker that finished
/// early mostly waited for the caller to free a slot; the second round of
/// slots lets it draw ahead. If fill or deliver throws, the workers stop
/// at their next block and are joined before the first exception
/// propagates.
template <typename Record, typename Fill, typename Deliver>
void ordered_blocks(std::uint32_t count, unsigned workers, const Fill& fill,
                    const Deliver& deliver) {
  const std::uint32_t slots = 2 * (workers + 1);
  std::vector<Slot<Record>> ring(slots);
  for (Slot<Record>& slot : ring) slot.records.reserve(kBufferReserve);

  std::mutex mutex;
  std::condition_variable filled;  // a slot became ready (caller waits)
  std::condition_variable freed;   // a slot was delivered (workers wait)
  std::uint32_t next = 0;       // next block to claim
  std::uint32_t delivered = 0;  // blocks handed to deliver so far
  bool stop = false;
  std::exception_ptr failure;

  const auto work = [&] {
    for (;;) {
      std::uint32_t b = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (stop || next == count) return;
        b = next++;
        freed.wait(lock, [&] { return stop || b < delivered + slots; });
        if (stop) return;
      }
      Slot<Record>& slot = ring[b % slots];
      try {
        fill(b, slot.records);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          if (!failure) failure = std::current_exception();
          stop = true;
        }
        filled.notify_all();
        freed.notify_all();
        return;
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        slot.ready = true;
      }
      filled.notify_one();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  const auto join_all = [&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stop = true;
    }
    freed.notify_all();
    for (std::thread& t : threads) t.join();
    threads.clear();
  };
  try {
    for (unsigned w = 0; w < workers; ++w) threads.emplace_back(work);
    for (std::uint32_t b = 0; b < count; ++b) {
      Slot<Record>& slot = ring[b % slots];
      {
        std::unique_lock<std::mutex> lock(mutex);
        filled.wait(lock, [&] { return slot.ready || failure; });
        if (failure) break;
      }
      deliver(slot.records);
      slot.records.clear();
      {
        std::lock_guard<std::mutex> lock(mutex);
        slot.ready = false;
        delivered = b + 1;
      }
      freed.notify_all();
    }
  } catch (...) {
    join_all();
    throw;
  }
  join_all();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace

struct WildIspSim::Hour {
  util::HourBin hour;
  util::DayBin day;
  util::DayBin ips_day;  // day of the backend's daily address sets
  std::uint64_t hour_ms;
  // usage_gate per unit at this hour.
  std::vector<std::uint64_t> heavy_gate;
  std::vector<std::uint64_t> active_gate;
};

/// One flow as its draws decided it: everything the WildObs holds that is
/// not a constant of the generator or a function of the line. 48 bytes
/// against the observation's 144; every field keeps its full range.
struct WildIspSim::Draw {
  const net::IpAddress* dst;    // into the plan's hosting record
  std::uint64_t packets;        // the sampled count
  LineId line;
  std::uint32_t subscriber;     // the line's IPv4 value that day
  unsigned domain_index;
  std::uint32_t start_offset;   // ms after the hour starts
  UnitId unit;
  std::uint16_t dst_port;
  std::uint16_t src_port;
  std::uint16_t bytes_per_packet;
  std::uint16_t duration;       // ms from start to end
  std::uint8_t proto;
  bool v6;                      // sent from the line's v6 address
};

/// Draws a sampled packet count with mean `r.lambda`, using a one-uniform
/// Bernoulli fast path for tiny rates (the overwhelmingly common case at
/// 1-in-1000 sampling).
std::uint64_t WildIspSim::sampled_count(util::Pcg32& rng,
                                        const SampledRate& r) {
  if (r.lambda <= 0.0) return 0;
  if (r.lambda < 0.05) return rng.chance(r.bernoulli) ? 1 : 0;
  return rng.poisson(r.lambda, r.limit);
}

WildIspSim::WildIspSim(const Backend& backend, const Population& population,
                       const DomainRateModel& rates,
                       const WildIspConfig& config)
    : backend_{backend},
      population_{population},
      config_{config},
      heavy_rng_{config.seed ^ kHeavySalt},
      active_rng_{config.seed ^ kActiveSalt},
      flow_rng_{config.seed ^ kFlowSalt} {
  const Catalog& catalog = backend.catalog();
  const auto& units = catalog.units();
  const double inv_n = 1.0 / static_cast<double>(config_.sampling);
  chains_.resize(units.size());
  units_.resize(units.size());
  for (const DetectionUnit& u : units) {
    UnitId cur = u.id;
    for (;;) {
      chains_[u.id].push_back(cur);
      const auto& parent = units[cur].parent;
      if (!parent) break;
      cur = *parent;
    }
    UnitPlan& unit = units_[u.id];
    unit.duty = u.idle_domain_duty;
    unit.duty_gate = util::chance_threshold(unit.duty);
    const std::array<double, 3> mults{
        1.0, u.active_multiplier,
        u.active_multiplier * config_.heavy_session_factor};
    for (const UnitDomain* dom : catalog.domains_of(u.id)) {
      DomainPlan& plan = unit.domains.emplace_back();
      const HostedDomain& hosting = backend.hosting_of(u.id, dom->index);
      plan.hosting = &hosting;
      for (util::DayBin day = 0; day < util::kStudyDays; ++day) {
        plan.daily[day] = util::Bound{
            static_cast<std::uint32_t>(hosting.daily_ips[day].size())};
      }
      plan.v6 = util::Bound{static_cast<std::uint32_t>(hosting.v6_ips.size())};
      for (const unsigned mode : {kIdle, kActive, kHeavy}) {
        const double lambda =
            rates.idle_rate(u.id, dom->index) * mults[mode] * inv_n;
        // P(N>=1) = 1-e^-l ~= l - l^2/2; P(N>=2 | N>=1) < l/2, negligible.
        const SampledRate rate{lambda, lambda * (1.0 - 0.5 * lambda),
                               std::exp(-lambda)};
        plan.rates[mode] = rate;
        CountGate gate;
        if (lambda > 0.0 && lambda < 0.05) {
          // chance(bernoulli) draws one word only inside (0, 1).
          gate = {util::chance_threshold(rate.bernoulli), 0,
                  rate.bernoulli > 0.0 && rate.bernoulli < 1.0};
        } else if (lambda >= 0.05 && lambda < 30.0) {
          // Emits ⇔ word ≥ zero bound ⇔ ~word < 2^32 − zero bound.
          gate = {(std::uint64_t{1} << 32) -
                      util::poisson_zero_bound(rate.limit),
                  ~std::uint32_t{0}, true};
        }
        unit.counts[mode].push_back(gate);
      }
    }
  }
}

std::uint64_t WildIspSim::usage_gate(UnitId unit_id, util::HourBin hour,
                                     double base_prob) const {
  const DetectionUnit& unit = backend_.catalog().units()[unit_id];
  const double diurnal = util::diurnal_weight(util::hour_of_day(hour));
  // Entertainment-class devices (high diurnal strength) are simply used
  // more hours per day than sensors and plugs; scale the base probability
  // accordingly before applying the hour-of-day shape.
  const double p = base_prob * (1.0 + 2.0 * unit.diurnal_strength) *
                   (1.0 + unit.diurnal_strength * (diurnal - 1.0));
  return util::chance_threshold(p);
}

bool WildIspSim::device_active(LineId line, std::uint32_t device_index,
                               util::HourBin hour) const {
  const auto devices = population_.devices_of(line);
  if (device_index >= devices.size()) return false;
  // One word of the device-hour's own stream against the threshold: the
  // outcome of chance(p) also where chance draws nothing.
  return active_rng_.at(util::hash_combine(line, device_index), hour)() <
         usage_gate(devices[device_index].unit, hour,
                    config_.base_active_prob);
}

bool WildIspSim::device_heavy(LineId line, std::uint32_t device_index,
                              util::HourBin hour) const {
  const auto devices = population_.devices_of(line);
  if (device_index >= devices.size()) return false;
  return heavy_rng_.at(util::hash_combine(line, device_index), hour)() <
         usage_gate(devices[device_index].unit, hour,
                    config_.heavy_session_prob);
}

// The draw kernel. It draws the words, in the order, that calling chance,
// sampled_count and bounded on each domain in turn would draw (DESIGN.md
// §12 gives the exactness arguments):
//   - an idle device's duty draw and the count's first word come from one
//     gated_pair, so the only data-dependent branch is "this domain
//     emits";
//   - the count's first word decides Bernoulli and Knuth's zero by one
//     integer compare, and Knuth continues from that word;
//   - usage thresholds come per unit from the Hour, and the three
//     device-hour streams share their seed mixing and entity hash.
template <typename Emit>
void WildIspSim::line_draws(const Hour& h, const LineId line,
                            const std::uint16_t identity,
                            const std::span<const OwnedDevice> devices,
                            Emit&& emit) const {
  const std::uint32_t subscriber =
      population_.address_of(line, h.day, identity).v4_value();
  const bool v6_capable = (identity & 1U) != 0;

  Draw d{};
  d.line = line;
  d.subscriber = subscriber;
  for (std::uint32_t di = 0; di < devices.size(); ++di) {
    const UnitId unit = devices[di].unit;
    const std::uint64_t entity = util::hash_combine(line, di);
    const bool heavy = heavy_rng_.at(entity, h.hour)() < h.heavy_gate[unit];
    const bool active =
        heavy || active_rng_.at(entity, h.hour)() < h.active_gate[unit];
    const Mode mode = heavy ? kHeavy : active ? kActive : kIdle;

    util::Pcg32 rng = flow_rng_.at(entity, h.hour);
    for (const UnitId uid : chains_[unit]) {
      const UnitPlan& up = units_[uid];
      // Duty cycle: not every domain is contacted every hour. chance(duty)
      // draws nothing outside (0, 1): duty ≤ 0 skips every domain.
      const bool duty_draw = !active && up.duty < 1.0;
      if (duty_draw && up.duty <= 0.0) continue;
      const std::vector<CountGate>& counts = up.counts[mode];
      for (std::size_t k = 0; k < counts.size(); ++k) {
        const CountGate& c = counts[k];
        const SampledRate& rate = up.domains[k].rates[mode];
        std::uint64_t sampled = 0;
        if (!c.exact) [[unlikely]] {
          if (duty_draw && !rng.chance(up.duty)) continue;
          sampled = sampled_count(rng, rate);
          if (sampled == 0) continue;
        } else {
          bool open = true;
          std::uint32_t word = 0;
          if (duty_draw) {
            std::tie(open, word) = rng.gated_pair(up.duty_gate);
          } else {
            word = rng();
          }
          if (!(open & ((word ^ c.flip) < c.gate))) [[likely]] continue;
          sampled = c.flip == 0 ? 1 : rng.poisson_after(word, rate.limit);
        }

        const DomainPlan& plan = up.domains[k];
        const HostedDomain& hosting = *plan.hosting;
        const UnitDomain* dom = hosting.domain;
        const bool use_v6 =
            v6_capable && !hosting.v6_ips.empty() && rng() < kPreferV6;
        const net::IpAddress* ips = use_v6
                                        ? hosting.v6_ips.data()
                                        : hosting.daily_ips[h.ips_day].data();
        d.dst = ips + rng.bounded(use_v6 ? plan.v6 : plan.daily[h.ips_day]);
        d.packets = sampled;
        d.domain_index = dom->index;
        d.unit = uid;
        d.dst_port = dom->port;
        d.proto = dom->port == 123 ? 17 : 6;
        d.v6 = use_v6;
        d.src_port =
            static_cast<std::uint16_t>(32768 + rng.bounded(kSourcePorts));
        d.bytes_per_packet =
            static_cast<std::uint16_t>(200 + rng.bounded(kBytesPerPacket));
        d.start_offset = rng.bounded(kStartOffsets);
        d.duration = static_cast<std::uint16_t>(rng.bounded(kDurations));
        emit(d);
      }
    }
  }
}

template <typename Emit>
void WildIspSim::block_draws(const Hour& h, const std::uint32_t block,
                             Emit&& emit) const {
  const std::span<const std::uint16_t> identities =
      population_.identities_in_block(block);
  std::size_t i = 0;
  population_.for_each_active_line_in_block(
      block,
      [&](const LineId line, const std::span<const OwnedDevice> devices) {
        line_draws(h, line, identities[i++], devices, emit);
      });
}

void WildIspSim::build(const Hour& h, const Draw& d, WildObs& obs) const {
  static_assert(sizeof(Draw) <= 48);
  obs.line = d.line;
  obs.subscriber = net::IpAddress::v4(d.subscriber);
  obs.unit = d.unit;
  obs.domain_index = d.domain_index;
  flow::FlowRecord& rec = obs.flow;
  rec.key.src = d.v6 ? population_.address6_of(d.line) : obs.subscriber;
  rec.key.dst = *d.dst;
  rec.key.src_port = d.src_port;
  rec.key.dst_port = d.dst_port;
  rec.key.proto = d.proto;
  rec.tcp_flags = flow::tcpflags::kAck | flow::tcpflags::kPsh;
  rec.packets = d.packets;
  rec.bytes = d.packets * d.bytes_per_packet;
  rec.start_ms = h.hour_ms + d.start_offset;
  rec.end_ms = rec.start_ms + d.duration;
  rec.sampling = config_.sampling;
}

void WildIspSim::hour_observations(util::HourBin hour,
                                   const Sink& sink) const {
  hour_observations(hour, sink, util::usable_cpus() - 1);
}

void WildIspSim::hour_observations(util::HourBin hour, const Sink& sink,
                                   unsigned workers) const {
  const util::DayBin day = util::day_of(hour);
  Hour h{hour, day, std::min<util::DayBin>(day, util::kStudyDays - 1),
         static_cast<std::uint64_t>(hour) * 3'600'000, {}, {}};
  for (std::size_t u = 0; u < units_.size(); ++u) {
    const auto unit = static_cast<UnitId>(u);
    h.heavy_gate.push_back(usage_gate(unit, hour, config_.heavy_session_prob));
    h.active_gate.push_back(usage_gate(unit, hour, config_.base_active_prob));
  }
  const std::uint32_t blocks = population_.block_count();
  WildObs obs;
  if (workers == 0 || blocks < 2) {
    for (std::uint32_t b = 0; b < blocks; ++b) {
      block_draws(h, b, [&](const Draw& d) {
        build(h, d, obs);
        sink(obs);
      });
    }
    return;
  }
  ordered_blocks<Draw>(
      blocks, std::min(workers, blocks),
      [&](const std::uint32_t block, std::vector<Draw>& records) {
        block_draws(h, block,
                    [&records](const Draw& d) { records.push_back(d); });
      },
      [&](const std::vector<Draw>& records) {
        for (const Draw& d : records) {
          build(h, d, obs);
          sink(obs);
        }
      });
}

}  // namespace haystack::simnet
