#include "simnet/wild_isp.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/cpus.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace haystack::simnet {

namespace {

constexpr std::uint64_t kActiveSalt = 0xac71f17e;
constexpr std::uint64_t kHeavySalt = 0x6ea57e55;

// Observations reserved per block buffer by the calling thread. A default
// block yields ~9–20 k observations an hour, so workers almost never grow
// a buffer (growth would allocate from the workers' own malloc arenas,
// which keep freed memory per thread); untouched reserved pages cost no
// RSS.
constexpr std::size_t kBufferReserve = 8 * Population::kBlockLines;

/// Draws a sampled packet count with mean `lambda`, using a one-uniform
/// Bernoulli fast path for tiny rates (the overwhelmingly common case at
/// 1-in-1000 sampling).
std::uint64_t sampled_count(util::Pcg32& rng, double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda < 0.05) {
    // P(N>=1) = 1-e^-l ~= l - l^2/2; P(N>=2 | N>=1) < l/2, negligible.
    return rng.chance(lambda * (1.0 - 0.5 * lambda)) ? 1 : 0;
  }
  return rng.poisson(lambda);
}

/// Runs fill(b, buffer) for blocks b = 0 .. count − 1 on `workers` threads
/// and deliver(buffer) on the calling thread in ascending b. workers + 1
/// buffers, allocated here, circulate: block b uses buffer b % (workers+1),
/// and its worker sleeps until the caller has delivered the block that last
/// used it. If fill or deliver throws, the workers stop at their next
/// block and are joined before the first exception propagates.
template <typename Fill, typename Deliver>
void ordered_blocks(std::uint32_t count, unsigned workers, const Fill& fill,
                    const Deliver& deliver) {
  const std::uint32_t slots = workers + 1;
  std::vector<std::vector<WildObs>> buffers(slots);
  for (std::vector<WildObs>& buffer : buffers) {
    buffer.reserve(kBufferReserve);
  }

  std::mutex mutex;
  std::condition_variable filled;  // a buffer became ready (caller waits)
  std::condition_variable freed;   // a buffer was delivered (workers wait)
  std::vector<char> ready(slots, 0);
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
      try {
        fill(b, buffers[b % slots]);
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
        ready[b % slots] = 1;
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
      std::vector<WildObs>& buffer = buffers[b % slots];
      {
        std::unique_lock<std::mutex> lock(mutex);
        filled.wait(lock, [&] { return ready[b % slots] || failure; });
        if (failure) break;
      }
      deliver(buffer);
      buffer.clear();
      {
        std::lock_guard<std::mutex> lock(mutex);
        ready[b % slots] = 0;
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
  double inv_n;
  std::uint64_t hour_ms;
};

WildIspSim::WildIspSim(const Backend& backend, const Population& population,
                       const DomainRateModel& rates,
                       const WildIspConfig& config)
    : backend_{backend},
      population_{population},
      rates_{rates},
      config_{config} {
  const auto& units = backend.catalog().units();
  chains_.resize(units.size());
  for (const DetectionUnit& u : units) {
    UnitId cur = u.id;
    for (;;) {
      chains_[u.id].push_back(cur);
      const auto& parent = units[cur].parent;
      if (!parent) break;
      cur = *parent;
    }
  }
}

bool WildIspSim::usage_draw(LineId line, std::uint32_t device_index,
                            UnitId unit_id, util::HourBin hour,
                            double base_prob, std::uint64_t salt) const {
  const DetectionUnit& unit = backend_.catalog().units()[unit_id];
  const double diurnal = util::diurnal_weight(util::hour_of_day(hour));
  // Entertainment-class devices (high diurnal strength) are simply used
  // more hours per day than sensors and plugs; scale the base probability
  // accordingly before applying the hour-of-day shape.
  const double p = base_prob * (1.0 + 2.0 * unit.diurnal_strength) *
                   (1.0 + unit.diurnal_strength * (diurnal - 1.0));
  util::Pcg32 rng = util::derive_rng(
      config_.seed ^ salt, util::hash_combine(line, device_index), hour);
  return rng.chance(p);
}

bool WildIspSim::device_active(LineId line, std::uint32_t device_index,
                               util::HourBin hour) const {
  const auto devices = population_.devices_of(line);
  if (device_index >= devices.size()) return false;
  return usage_draw(line, device_index, devices[device_index].unit, hour,
                    config_.base_active_prob, kActiveSalt);
}

bool WildIspSim::device_heavy(LineId line, std::uint32_t device_index,
                              util::HourBin hour) const {
  const auto devices = population_.devices_of(line);
  if (device_index >= devices.size()) return false;
  return usage_draw(line, device_index, devices[device_index].unit, hour,
                    config_.heavy_session_prob, kHeavySalt);
}

template <typename Emit>
void WildIspSim::line_observations(const Hour& h, const LineId line,
                                   const std::span<const OwnedDevice> devices,
                                   Emit&& emit) const {
  const Catalog& catalog = backend_.catalog();
  const net::IpAddress subscriber = population_.address_of(line, h.day);
  const bool v6_capable = population_.dual_stack(line);
  const net::IpAddress subscriber6 =
      v6_capable ? population_.address6_of(line) : net::IpAddress{};

  WildObs obs;
  for (std::uint32_t di = 0; di < devices.size(); ++di) {
    const OwnedDevice& dev = devices[di];
    const bool heavy = usage_draw(line, di, dev.unit, h.hour,
                                  config_.heavy_session_prob, kHeavySalt);
    const bool active =
        heavy || usage_draw(line, di, dev.unit, h.hour,
                            config_.base_active_prob, kActiveSalt);

    util::Pcg32 rng = util::derive_rng(
        config_.seed ^ 0x3f10b5, util::hash_combine(line, di), h.hour);

    for (const UnitId uid : chains_[dev.unit]) {
      const DetectionUnit& unit = catalog.units()[uid];
      double effective_mult = 1.0;
      if (heavy) {
        effective_mult = unit.active_multiplier * config_.heavy_session_factor;
      } else if (active) {
        effective_mult = unit.active_multiplier;
      }
      for (const UnitDomain* dom : catalog.domains_of(uid)) {
        // Duty cycle: not every domain is contacted every hour.
        if (unit.idle_domain_duty < 1.0 && !active &&
            !rng.chance(unit.idle_domain_duty)) {
          continue;
        }
        const double lambda =
            rates_.idle_rate(uid, dom->index) * effective_mult * h.inv_n;
        const std::uint64_t sampled = sampled_count(rng, lambda);
        if (sampled == 0) continue;

        // Happy eyeballs: dual-stack lines prefer v6 when the backend
        // publishes AAAA records.
        const auto& ips6 = backend_.ips6_of(uid, dom->index);
        const bool use_v6 = v6_capable && !ips6.empty() && rng.chance(0.6);
        const auto& ips =
            use_v6 ? ips6 : backend_.ips_of(uid, dom->index, h.day);
        obs.line = line;
        obs.subscriber = subscriber;
        obs.unit = uid;
        obs.domain_index = dom->index;
        flow::FlowRecord& rec = obs.flow;
        rec.key.src = use_v6 ? subscriber6 : subscriber;
        rec.key.dst = ips[rng.bounded(static_cast<std::uint32_t>(ips.size()))];
        rec.key.src_port =
            static_cast<std::uint16_t>(32768 + rng.bounded(28000));
        rec.key.dst_port = dom->port;
        rec.key.proto = dom->port == 123 ? 17 : 6;
        rec.tcp_flags = flow::tcpflags::kAck | flow::tcpflags::kPsh;
        rec.packets = sampled;
        rec.bytes = sampled * (200 + rng.bounded(900));
        rec.start_ms = h.hour_ms + rng.bounded(3'500'000);
        rec.end_ms = rec.start_ms + rng.bounded(60'000);
        rec.sampling = config_.sampling;
        emit(obs);
      }
    }
  }
}

void WildIspSim::hour_observations(util::HourBin hour,
                                   const Sink& sink) const {
  hour_observations(hour, sink, util::usable_cpus() - 1);
}

void WildIspSim::hour_observations(util::HourBin hour, const Sink& sink,
                                   unsigned workers) const {
  const Hour h{hour, util::day_of(hour),
               1.0 / static_cast<double>(config_.sampling),
               static_cast<std::uint64_t>(hour) * 3'600'000};
  const std::uint32_t blocks = population_.block_count();
  if (workers == 0 || blocks < 2) {
    population_.for_each_active_line(
        [&](const LineId line, const std::span<const OwnedDevice> devices) {
          line_observations(h, line, devices, sink);
        });
    return;
  }
  ordered_blocks(
      blocks, std::min(workers, blocks),
      [&](const std::uint32_t block, std::vector<WildObs>& buffer) {
        population_.for_each_active_line_in_block(
            block, [&](const LineId line,
                       const std::span<const OwnedDevice> devices) {
              line_observations(h, line, devices, [&](const WildObs& obs) {
                buffer.push_back(obs);
              });
            });
      },
      [&](const std::vector<WildObs>& buffer) {
        for (const WildObs& obs : buffer) sink(obs);
      });
}

}  // namespace haystack::simnet
