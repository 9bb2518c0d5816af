#include "flow/ipfix.hpp"

#include <algorithm>
#include <array>
#include <type_traits>

namespace haystack::flow::ipfix {

namespace {

struct FieldSpec {
  Ie ie;
  std::uint16_t length;
};

constexpr std::array<FieldSpec, 11> kV4Fields = {{
    {Ie::kSourceIpv4Address, 4},
    {Ie::kDestinationIpv4Address, 4},
    {Ie::kSourceTransportPort, 2},
    {Ie::kDestinationTransportPort, 2},
    {Ie::kProtocolIdentifier, 1},
    {Ie::kTcpControlBits, 1},
    {Ie::kPacketDeltaCount, 8},
    {Ie::kOctetDeltaCount, 8},
    {Ie::kFlowStartMilliseconds, 8},
    {Ie::kFlowEndMilliseconds, 8},
    {Ie::kSamplingInterval, 4},
}};

constexpr std::array<FieldSpec, 11> kV6Fields = {{
    {Ie::kSourceIpv6Address, 16},
    {Ie::kDestinationIpv6Address, 16},
    {Ie::kSourceTransportPort, 2},
    {Ie::kDestinationTransportPort, 2},
    {Ie::kProtocolIdentifier, 1},
    {Ie::kTcpControlBits, 1},
    {Ie::kPacketDeltaCount, 8},
    {Ie::kOctetDeltaCount, 8},
    {Ie::kFlowStartMilliseconds, 8},
    {Ie::kFlowEndMilliseconds, 8},
    {Ie::kSamplingInterval, 4},
}};

void write_record(ByteWriter& w, const FlowRecord& rec) {
  const auto src = rec.key.src.bytes();
  const auto dst = rec.key.dst.bytes();
  if (rec.key.src.is_v4()) {
    w.bytes(std::span{src}.subspan(12));
    w.bytes(std::span{dst}.subspan(12));
  } else {
    w.bytes(src);
    w.bytes(dst);
  }
  w.u16(rec.key.src_port);
  w.u16(rec.key.dst_port);
  w.u8(rec.key.proto);
  w.u8(rec.tcp_flags);
  w.u64(rec.packets);
  w.u64(rec.bytes);
  w.u64(rec.start_ms);
  w.u64(rec.end_ms);
  w.u32(rec.sampling);
}

// Record sinks for the shared protocol implementation (see netflow_v9.cpp).
struct RecordSink {
  std::vector<FlowRecord>* out;
};

struct JobSink {
  std::vector<plan::BodyJob>* jobs;
};

}  // namespace

std::vector<std::uint8_t> encode_sampling_options(
    std::uint32_t observation_domain, std::uint32_t interval,
    std::uint32_t export_time, std::uint32_t sequence) {
  ByteWriter w;
  w.u16(10);
  const std::size_t total_off = w.size();
  w.u16(0);
  w.u32(export_time);
  w.u32(sequence);
  w.u32(observation_domain);

  // Options template set (id 3): template id, field count, scope field
  // count, then scope fields followed by option fields (RFC 7011 §3.4.2.2).
  {
    const std::size_t len_off = w.size() + 2;
    w.u16(kOptionsTemplateSetId);
    w.u16(0);
    w.u16(kSamplingOptionsTemplateId);
    w.u16(3);  // total fields: 1 scope + 2 options
    w.u16(1);  // scope field count
    w.u16(149);  // observationDomainId as scope
    w.u16(4);
    w.u16(static_cast<std::uint16_t>(Ie::kSamplingInterval));
    w.u16(4);
    w.u16(kIeSamplingAlgorithm);
    w.u16(1);
    const std::size_t unpadded = w.size() - (len_off - 2);
    w.pad((4 - unpadded % 4) % 4);
    w.patch_u16(len_off,
                static_cast<std::uint16_t>(w.size() - (len_off - 2)));
  }
  // Options data set.
  {
    const std::size_t len_off = w.size() + 2;
    w.u16(kSamplingOptionsTemplateId);
    w.u16(0);
    w.u32(observation_domain);  // scope value
    w.u32(interval);
    w.u8(2);  // random sampling
    const std::size_t unpadded = w.size() - (len_off - 2);
    w.pad((4 - unpadded % 4) % 4);
    w.patch_u16(len_off,
                static_cast<std::uint16_t>(w.size() - (len_off - 2)));
  }
  w.patch_u16(total_off, static_cast<std::uint16_t>(w.size()));
  return w.take();
}

void Exporter::write_templates(ByteWriter& w) const {
  const std::size_t length_offset = w.size() + 2;
  w.u16(kTemplateSetId);
  w.u16(0);  // length placeholder
  auto emit = [&w](std::uint16_t id, std::span<const FieldSpec> fields) {
    w.u16(id);
    w.u16(static_cast<std::uint16_t>(fields.size()));
    for (const auto& f : fields) {
      w.u16(static_cast<std::uint16_t>(f.ie));
      w.u16(f.length);
    }
  };
  emit(kTemplateV4, kV4Fields);
  emit(kTemplateV6, kV6Fields);
  w.patch_u16(length_offset,
              static_cast<std::uint16_t>(w.size() - (length_offset - 2)));
}

std::vector<std::vector<std::uint8_t>> Exporter::export_flows(
    std::span<const FlowRecord> records, std::uint32_t export_time) {
  std::vector<std::vector<std::uint8_t>> messages;
  std::size_t index = 0;
  while (index < records.size() || messages.empty()) {
    ByteWriter w;
    w.u16(10);  // version
    const std::size_t length_offset = w.size();
    w.u16(0);  // total length placeholder
    w.u32(export_time);
    w.u32(records_sent_);  // sequence: cumulative data records (RFC 7011)
    w.u32(config_.observation_domain);

    const bool with_templates =
        messages_sent_ % std::max<std::uint32_t>(
                             1, config_.template_refresh_messages) ==
        0;
    if (with_templates) write_templates(w);

    const std::size_t batch_end =
        std::min(records.size(), index + config_.max_records_per_message);
    std::uint32_t emitted = 0;
    for (const bool v4 : {true, false}) {
      std::size_t n_here = 0;
      for (std::size_t i = index; i < batch_end; ++i) {
        if (records[i].key.src.is_v4() == v4) ++n_here;
      }
      if (n_here == 0) continue;
      const std::size_t set_length_offset = w.size() + 2;
      w.u16(v4 ? kTemplateV4 : kTemplateV6);
      w.u16(0);
      for (std::size_t i = index; i < batch_end; ++i) {
        if (records[i].key.src.is_v4() == v4) {
          write_record(w, records[i]);
          ++emitted;
        }
      }
      const std::size_t unpadded = w.size() - (set_length_offset - 2);
      const std::size_t padding = (4 - unpadded % 4) % 4;
      w.pad(padding);
      w.patch_u16(set_length_offset,
                  static_cast<std::uint16_t>(unpadded + padding));
    }

    w.patch_u16(length_offset, static_cast<std::uint16_t>(w.size()));
    index = batch_end;
    records_sent_ += emitted;
    ++messages_sent_;
    messages.push_back(w.take());
    if (index >= records.size()) break;
  }
  return messages;
}

bool Collector::ingest(std::span<const std::uint8_t> message,
                       std::vector<FlowRecord>& out) {
  RecordSink sink{&out};
  return ingest_impl(message, sink);
}

bool Collector::ingest_batch(std::span<const std::uint8_t> message,
                             FlowBatch& out) {
  const bool ok = scan(message, batch_jobs_);
  for (const plan::BodyJob& job : batch_jobs_) plan::execute(job, out);
  batch_jobs_.clear();
  return ok;
}

bool Collector::scan(std::span<const std::uint8_t> message,
                     std::vector<plan::BodyJob>& jobs) {
  JobSink sink{&jobs};
  return ingest_impl(message, sink);
}

template <typename Sink>
bool Collector::ingest_impl(std::span<const std::uint8_t> message,
                            Sink& sink) {
  ByteReader whole{message};
  const std::uint16_t version = whole.u16();
  const std::uint16_t total_length = whole.u16();
  whole.u32();  // export time
  const std::uint32_t sequence = whole.u32();
  const std::uint32_t domain = whole.u32();
  if (!whole.ok() || version != 10 || total_length != message.size() ||
      total_length < 16) {
    ++stats_.malformed_messages;
    return false;
  }

  if (config_.dedup_window > 0 && deduper_.seen_before(message)) {
    ++stats_.duplicate_messages;
    return true;
  }

  // Sequence classification per observation domain. The IPFIX sequence
  // counts data records, so a forward jump after a message whose data set
  // could not be decoded (template still missing) is a *resync* over the
  // parked records, not loss.
  PerDomain& state = domains_[domain];
  auto outcome = state.tracker.classify(sequence);
  if (outcome.event == SequenceEvent::kRestart) {
    handle_restart(domain, state);
    outcome = state.tracker.classify(sequence);  // now kFirst
  }
  if (outcome.event == SequenceEvent::kGap) {
    if (state.sequence_indeterminate) {
      outcome = {SequenceEvent::kInOrder, 0};  // resync past parked records
    } else {
      ++stats_.sequence_gaps;
      stats_.estimated_lost_records += outcome.lost_units;
      if (config_.recorder != nullptr) {
        config_.recorder->record(obs::EventKind::kSequenceGap, domain,
                                 outcome.lost_units);
      }
    }
  } else if (outcome.event == SequenceEvent::kReplay) {
    ++stats_.reordered_messages;
    if (config_.recorder != nullptr) {
      config_.recorder->record(obs::EventKind::kSequenceReplay, domain, 1);
    }
  }

  const std::uint64_t records_before = stats_.records;
  const std::uint64_t recovered_before = stats_.recovered_records;
  const std::uint64_t buffered_before = stats_.buffered_sets;
  while (whole.ok() && whole.remaining() >= 4) {
    const std::uint16_t set_id = whole.u16();
    const std::uint16_t set_length = whole.u16();
    if (set_length < 4 || set_length - 4U > whole.remaining()) {
      ++stats_.malformed_messages;
      return false;
    }
    ByteReader body = whole.slice(set_length - 4U);
    if (set_id == kTemplateSetId) {
      if (!decode_template_set(body, domain, sink)) {
        ++stats_.malformed_messages;
        return false;
      }
    } else if (set_id == kOptionsTemplateSetId) {
      if (!decode_options_template_set(body, domain)) {
        ++stats_.malformed_messages;
        return false;
      }
    } else if (set_id >= 256) {
      if (options_templates_.contains({domain, set_id})) {
        if (!decode_options_data(body, set_id, domain)) {
          ++stats_.malformed_messages;
          return false;
        }
      } else {
        const auto it = templates_.find({domain, set_id});
        if (it == templates_.end()) {
          ++stats_.unknown_template_sets;
          park_set(domain, set_id, sequence, body);
        } else if (!decode_data(body, it->second, sink)) {
          ++stats_.malformed_messages;
          return false;
        }
      }
    }
  }
  if (!whole.ok()) {
    ++stats_.malformed_messages;
    return false;
  }
  // A malformed message returns above without committing: its records then
  // surface as a sequence gap (loss) on the next message, which is exactly
  // what happened to them. Recovered records were credited separately.
  const auto units = static_cast<std::uint32_t>(
      (stats_.records - records_before) -
      (stats_.recovered_records - recovered_before));
  state.tracker.commit(sequence, units, outcome);
  state.sequence_indeterminate = stats_.buffered_sets != buffered_before;
  ++stats_.messages;
  return true;
}

void Collector::handle_restart(std::uint32_t domain, PerDomain& state) {
  ++stats_.exporter_restarts;
  ++state.restarts;
  if (config_.recorder != nullptr) {
    config_.recorder->record(obs::EventKind::kExporterRestart, domain,
                             state.restarts);
  }
  state.tracker.reset();
  state.sequence_indeterminate = false;
  templates_.erase(templates_.lower_bound({domain, 0}),
                   templates_.upper_bound({domain, 0xffffU}));
  options_templates_.erase(options_templates_.lower_bound({domain, 0}),
                           options_templates_.upper_bound({domain, 0xffffU}));
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->domain == domain) {
      ++stats_.evicted_sets;
      if (config_.recorder != nullptr) {
        config_.recorder->record(obs::EventKind::kTemplateEvicted, domain,
                                 it->template_id);
      }
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void Collector::park_set(std::uint32_t domain, std::uint16_t template_id,
                         std::uint32_t sequence, ByteReader& body) {
  if (config_.max_pending_sets == 0) return;
  if (pending_.size() >= config_.max_pending_sets) {
    ++stats_.evicted_sets;
    if (config_.recorder != nullptr) {
      config_.recorder->record(obs::EventKind::kTemplateEvicted,
                               pending_.front().domain,
                               pending_.front().template_id);
    }
    pending_.pop_front();
  }
  PendingSet parked;
  parked.domain = domain;
  parked.template_id = template_id;
  parked.sequence = sequence;
  parked.body.resize(body.remaining());
  body.bytes(parked.body);
  pending_.push_back(std::move(parked));
  ++stats_.buffered_sets;
  if (config_.recorder != nullptr) {
    config_.recorder->record(obs::EventKind::kTemplateParked, domain,
                             template_id);
  }
}

template <typename Sink>
void Collector::recover_pending(std::uint32_t domain,
                                std::uint16_t template_id, Sink& sink) {
  const auto it_tmpl = templates_.find({domain, template_id});
  if (it_tmpl == templates_.end()) return;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->domain != domain || it->template_id != template_id) {
      ++it;
      continue;
    }
    ByteReader body{it->body};
    const std::uint64_t before = stats_.records;
    if (decode_data(body, it_tmpl->second, sink)) {
      if constexpr (std::is_same_v<Sink, JobSink>) {
        // The park entry is erased below; its job takes the bytes along.
        sink.jobs->back().parked = std::move(it->body);
      }
      const std::uint64_t recovered = stats_.records - before;
      ++stats_.recovered_sets;
      stats_.recovered_records += recovered;
      // These records were skipped by the sequence resync when they were
      // parked; they are received after all, and they occupy the record-
      // sequence space [parked.sequence, parked.sequence + recovered), so
      // jump the expectation past it or the next message would re-report
      // that space as a phantom gap. (A message whose sets park under
      // *different* templates still undercounts the jump by the smaller
      // set — the loss estimate stays conservative there.)
      auto& tracker = domains_[domain].tracker;
      tracker.credit_recovered(recovered);
      tracker.advance_past(it->sequence +
                           static_cast<std::uint32_t>(recovered));
      if (config_.recorder != nullptr) {
        config_.recorder->record(obs::EventKind::kTemplateRecovered, domain,
                                 recovered);
      }
    } else {
      ++stats_.evicted_sets;
      if (config_.recorder != nullptr) {
        config_.recorder->record(obs::EventKind::kTemplateEvicted, domain,
                                 template_id);
      }
    }
    it = pending_.erase(it);
  }
}

SourceHealth Collector::health(std::uint32_t observation_domain) const {
  const auto it = domains_.find(observation_domain);
  if (it == domains_.end()) return {};
  return {it->second.tracker.received(), it->second.tracker.lost(),
          it->second.restarts};
}

double Collector::estimated_loss() const {
  std::uint64_t received = 0;
  std::uint64_t lost = 0;
  for (const auto& [id, state] : domains_) {
    received += state.tracker.received();
    lost += state.tracker.lost();
  }
  const std::uint64_t total = received + lost;
  return total == 0 ? 0.0
                    : static_cast<double>(lost) / static_cast<double>(total);
}

std::size_t Collector::pending_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& p : pending_) bytes += p.body.size();
  return bytes;
}

template <typename Sink>
bool Collector::decode_template_set(ByteReader& r, std::uint32_t domain,
                                    Sink& sink) {
  while (r.ok() && r.remaining() >= 4) {
    const std::uint16_t template_id = r.u16();
    const std::uint16_t field_count = r.u16();
    if (template_id < 256) return false;
    // Each field spec is at least 4 bytes (8 with an enterprise number); a
    // count the set body cannot hold is a corrupted length field, rejected
    // before reserve() turns it into an allocation.
    if (std::size_t{field_count} * 4 > r.remaining()) return false;
    TemplateEntry entry;
    entry.fields.reserve(field_count);
    for (std::uint16_t i = 0; i < field_count; ++i) {
      std::uint16_t id = r.u16();
      const std::uint16_t length = r.u16();
      TemplateField field{};
      field.enterprise = (id & 0x8000U) != 0;
      field.id = id & 0x7fffU;
      field.length = length;
      if (field.enterprise) r.u32();  // enterprise number, skipped
      if (!r.ok()) return false;
      entry.fields.push_back(field);
    }
    // Compile the decode plan once per (re)announcement; variable-length
    // templates compile to a non-fast plan and use the reference walk.
    std::vector<plan::WireField> wire;
    wire.reserve(entry.fields.size());
    for (const auto& f : entry.fields) {
      wire.push_back({f.id, f.length, f.enterprise});
    }
    entry.plan =
        std::make_shared<const plan::CompiledPlan>(plan::compile_ipfix(wire));
    templates_[{domain, template_id}] = std::move(entry);
    ++stats_.templates_learned;
    recover_pending(domain, template_id, sink);
  }
  return r.ok();
}

template <typename Sink>
bool Collector::decode_data(ByteReader& r, const TemplateEntry& entry,
                            Sink& sink) {
  if constexpr (std::is_same_v<Sink, JobSink>) {
    // On success exactly one job is appended (recover_pending relies on
    // it).
    if (entry.plan->fast) {
      if (entry.plan->record_len == 0) return false;  // as the reference
      const std::span<const std::uint8_t> body = r.rest();
      // Exactly the rows plan::execute will append.
      stats_.records += body.size() / entry.plan->record_len;
      plan::BodyJob& job = sink.jobs->emplace_back();
      job.plan = entry.plan;
      job.body = body;
      return true;
    }
    // Variable-length template: the reference walk runs now, into the
    // job's own rows, preserving partial-decode behavior on malformed
    // var-length framing.
    plan::BodyJob& job = sink.jobs->emplace_back();
    return decode_data_set(r, entry.fields, job.records);
  } else {
    return decode_data_set(r, entry.fields, *sink.out);
  }
}

bool Collector::decode_options_template_set(ByteReader& r,
                                            std::uint32_t domain) {
  while (r.ok() && r.remaining() >= 6) {
    const std::uint16_t template_id = r.u16();
    const std::uint16_t field_count = r.u16();
    const std::uint16_t scope_count = r.u16();
    if (template_id < 256 || scope_count > field_count) return false;
    if (std::size_t{field_count} * 4 > r.remaining()) return false;
    OptionsTemplate tmpl;
    for (std::uint16_t i = 0; i < field_count; ++i) {
      std::uint16_t id = r.u16();
      const std::uint16_t length = r.u16();
      TemplateField field{};
      field.enterprise = (id & 0x8000U) != 0;
      field.id = id & 0x7fffU;
      field.length = length;
      if (field.enterprise) r.u32();
      if (!r.ok()) return false;
      if (i < scope_count) {
        tmpl.scope_bytes += length;
      } else {
        tmpl.fields.push_back(field);
      }
    }
    options_templates_[{domain, template_id}] = std::move(tmpl);
    ++stats_.options_templates_learned;
    // Padding at set end: stop when too little remains for a header.
    if (r.remaining() < 6) break;
  }
  return r.ok();
}

bool Collector::decode_options_data(ByteReader& r, std::uint16_t set_id,
                                    std::uint32_t domain) {
  const auto it = options_templates_.find({domain, set_id});
  if (it == options_templates_.end()) return true;
  const OptionsTemplate& tmpl = it->second;
  std::size_t record_bytes = tmpl.scope_bytes;
  for (const auto& f : tmpl.fields) record_bytes += f.length;
  if (record_bytes == 0) return false;

  while (r.ok() && r.remaining() >= record_bytes) {
    r.skip(tmpl.scope_bytes);
    std::optional<std::uint32_t> interval;
    for (const auto& f : tmpl.fields) {
      if (!f.enterprise &&
          f.id == static_cast<std::uint16_t>(Ie::kSamplingInterval) &&
          f.length == 4) {
        interval = r.u32();
      } else {
        r.skip(f.length);
      }
    }
    if (!r.ok()) return false;
    if (interval) {
      // A zero announced interval would divide-by-zero every upscaling
      // consumer; clamp to 1 (no sampling) and count the anomaly.
      if (*interval == 0) {
        *interval = 1;
        ++stats_.zero_sampling_announcements;
      }
      announced_sampling_[domain] = *interval;
    }
  }
  return r.ok();
}

std::optional<std::uint32_t> Collector::announced_sampling(
    std::uint32_t observation_domain) const {
  const auto it = announced_sampling_.find(observation_domain);
  if (it == announced_sampling_.end()) return std::nullopt;
  return it->second;
}

bool Collector::decode_data_set(ByteReader& r, const Template& tmpl,
                                std::vector<FlowRecord>& out) {
  // Minimum fixed size of one record; variable-length fields contribute
  // their 1-byte length prefix.
  std::size_t min_len = 0;
  for (const auto& f : tmpl) {
    min_len += f.length == 0xffffU ? 1 : f.length;
  }
  if (min_len == 0) return false;

  while (r.ok() && r.remaining() >= min_len) {
    FlowRecord rec;
    for (const auto& f : tmpl) {
      std::uint16_t length = f.length;
      if (length == 0xffffU) {
        // RFC 7011 §7: variable length; 255 escapes to a 2-byte length.
        length = r.u8();
        if (length == 255) length = r.u16();
        r.skip(length);
        continue;
      }
      if (f.enterprise) {
        r.skip(length);
        continue;
      }
      // As in the NetFlow v9 decoder: the template's declared length
      // defines record framing, so a known IE with an unsupported declared
      // length is skipped at that length rather than decoded at the
      // "expected" size (which would desync every following field).
      const auto fixed = [&](std::uint16_t want) {
        if (length == want) return true;
        r.skip(length);
        return false;
      };
      switch (static_cast<Ie>(f.id)) {
        case Ie::kSourceIpv4Address:
          if (fixed(4)) rec.key.src = net::IpAddress::v4(r.u32());
          break;
        case Ie::kDestinationIpv4Address:
          if (fixed(4)) rec.key.dst = net::IpAddress::v4(r.u32());
          break;
        case Ie::kSourceIpv6Address:
          if (fixed(16)) {
            const std::uint64_t hi = r.u64();
            rec.key.src = net::IpAddress::v6(hi, r.u64());
          }
          break;
        case Ie::kDestinationIpv6Address:
          if (fixed(16)) {
            const std::uint64_t hi = r.u64();
            rec.key.dst = net::IpAddress::v6(hi, r.u64());
          }
          break;
        case Ie::kSourceTransportPort:
          if (fixed(2)) rec.key.src_port = r.u16();
          break;
        case Ie::kDestinationTransportPort:
          if (fixed(2)) rec.key.dst_port = r.u16();
          break;
        case Ie::kProtocolIdentifier:
          if (fixed(1)) rec.key.proto = r.u8();
          break;
        case Ie::kTcpControlBits:
          if (fixed(1)) rec.tcp_flags = r.u8();
          break;
        case Ie::kPacketDeltaCount:
          if (length == 8 || length == 4) {
            rec.packets = length == 8 ? r.u64() : r.u32();
          } else {
            r.skip(length);
          }
          break;
        case Ie::kOctetDeltaCount:
          if (length == 8 || length == 4) {
            rec.bytes = length == 8 ? r.u64() : r.u32();
          } else {
            r.skip(length);
          }
          break;
        case Ie::kFlowStartMilliseconds:
          if (fixed(8)) rec.start_ms = r.u64();
          break;
        case Ie::kFlowEndMilliseconds:
          if (fixed(8)) rec.end_ms = r.u64();
          break;
        case Ie::kSamplingInterval:
          if (fixed(4)) rec.sampling = r.u32();
          break;
        default:
          r.skip(length);
          break;
      }
    }
    if (!r.ok()) return false;
    out.push_back(rec);
    ++stats_.records;
  }
  return r.ok();
}

}  // namespace haystack::flow::ipfix
