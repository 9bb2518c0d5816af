#include "flow/netflow_v9.hpp"

#include <algorithm>
#include <array>
#include <type_traits>

namespace haystack::flow::nf9 {

namespace {

struct FieldSpec {
  FieldType type;
  std::uint16_t length;
};

// Record layouts. Field order matters on the wire; both templates put the
// addresses first, then ports/proto/flags, then counters and times.
constexpr std::array<FieldSpec, 11> kV4Fields = {{
    {FieldType::kIpv4SrcAddr, 4},
    {FieldType::kIpv4DstAddr, 4},
    {FieldType::kL4SrcPort, 2},
    {FieldType::kL4DstPort, 2},
    {FieldType::kProtocol, 1},
    {FieldType::kTcpFlags, 1},
    {FieldType::kInPkts, 8},
    {FieldType::kInBytes, 8},
    {FieldType::kFirstSwitched, 4},
    {FieldType::kLastSwitched, 4},
    {FieldType::kSamplingInterval, 4},
}};

constexpr std::array<FieldSpec, 11> kV6Fields = {{
    {FieldType::kIpv6SrcAddr, 16},
    {FieldType::kIpv6DstAddr, 16},
    {FieldType::kL4SrcPort, 2},
    {FieldType::kL4DstPort, 2},
    {FieldType::kProtocol, 1},
    {FieldType::kTcpFlags, 1},
    {FieldType::kInPkts, 8},
    {FieldType::kInBytes, 8},
    {FieldType::kFirstSwitched, 4},
    {FieldType::kLastSwitched, 4},
    {FieldType::kSamplingInterval, 4},
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
  w.u32(static_cast<std::uint32_t>(rec.start_ms));
  w.u32(static_cast<std::uint32_t>(rec.end_ms));
  w.u32(rec.sampling);
}

// Record sinks for the shared protocol implementation. The reference sink
// appends FlowRecords via the per-field template walk; the job sink defers
// each data flowset as a plan::BodyJob.
struct RecordSink {
  std::vector<FlowRecord>* out;
};

struct JobSink {
  std::vector<plan::BodyJob>* jobs;
};

}  // namespace

void Exporter::write_templates(ByteWriter& w) const {
  // Template flowset: id 0, then for each template: id, field count, fields.
  const std::size_t length_offset = w.size() + 2;
  w.u16(0);  // flowset id 0 = template
  w.u16(0);  // length placeholder
  auto emit = [&w](std::uint16_t id, std::span<const FieldSpec> fields) {
    w.u16(id);
    w.u16(static_cast<std::uint16_t>(fields.size()));
    for (const auto& f : fields) {
      w.u16(static_cast<std::uint16_t>(f.type));
      w.u16(f.length);
    }
  };
  emit(kTemplateV4, kV4Fields);
  emit(kTemplateV6, kV6Fields);
  w.patch_u16(length_offset,
              static_cast<std::uint16_t>(w.size() - (length_offset - 2)));
}

std::vector<std::vector<std::uint8_t>> Exporter::export_flows(
    std::span<const FlowRecord> records, std::uint32_t unix_secs) {
  std::vector<std::vector<std::uint8_t>> packets;
  std::size_t index = 0;
  while (index < records.size() || packets.empty()) {
    ByteWriter w;
    // Packet header (20 bytes). Count is patched once known.
    w.u16(9);
    const std::size_t count_offset = w.size();
    w.u16(0);
    w.u32((unix_secs - config_.boot_unix_secs) * 1000U);  // sysUptime (ms)
    w.u32(unix_secs);
    w.u32(packets_sent_);  // sequence = packets sent so far (RFC 3954)
    w.u32(config_.source_id);

    std::uint16_t flowset_count = 0;
    const bool with_templates =
        packets_sent_ % std::max<std::uint32_t>(
                            1, config_.template_refresh_packets) ==
        0;
    if (with_templates) {
      write_templates(w);
      ++flowset_count;
    }

    // Partition this packet's records by family, one data flowset each.
    const std::size_t batch_end =
        std::min(records.size(), index + config_.max_records_per_packet);
    for (const bool v4 : {true, false}) {
      std::size_t n_here = 0;
      for (std::size_t i = index; i < batch_end; ++i) {
        if (records[i].key.src.is_v4() == v4) ++n_here;
      }
      if (n_here == 0) continue;
      const std::size_t length_offset = w.size() + 2;
      w.u16(v4 ? kTemplateV4 : kTemplateV6);
      w.u16(0);  // length placeholder
      for (std::size_t i = index; i < batch_end; ++i) {
        if (records[i].key.src.is_v4() == v4) write_record(w, records[i]);
      }
      // Pad to 32-bit boundary.
      const std::size_t unpadded = w.size() - (length_offset - 2);
      const std::size_t padding = (4 - unpadded % 4) % 4;
      w.pad(padding);
      w.patch_u16(length_offset,
                  static_cast<std::uint16_t>(unpadded + padding));
      ++flowset_count;
    }

    w.patch_u16(count_offset, flowset_count);
    index = batch_end;
    ++packets_sent_;
    packets.push_back(w.take());
    if (index >= records.size()) break;
  }
  return packets;
}

bool Collector::ingest(std::span<const std::uint8_t> packet,
                       std::vector<FlowRecord>& out) {
  RecordSink sink{&out};
  return ingest_impl(packet, sink);
}

bool Collector::ingest_batch(std::span<const std::uint8_t> packet,
                             FlowBatch& out) {
  const bool ok = scan(packet, batch_jobs_);
  for (const plan::BodyJob& job : batch_jobs_) plan::execute(job, out);
  batch_jobs_.clear();
  return ok;
}

bool Collector::scan(std::span<const std::uint8_t> packet,
                     std::vector<plan::BodyJob>& jobs) {
  JobSink sink{&jobs};
  return ingest_impl(packet, sink);
}

template <typename Sink>
bool Collector::ingest_impl(std::span<const std::uint8_t> packet,
                            Sink& sink) {
  ByteReader r{packet};
  const std::uint16_t version = r.u16();
  const std::uint16_t count = r.u16();
  const std::uint32_t uptime = r.u32();
  r.u32();  // unix secs
  const std::uint32_t sequence = r.u32();
  const std::uint32_t source_id = r.u32();
  if (!r.ok() || version != 9) {
    ++stats_.malformed_packets;
    return false;
  }

  if (config_.dedup_window > 0 && deduper_.seen_before(packet)) {
    ++stats_.duplicate_packets;
    return true;
  }

  // Exporter-restart and loss detection. Two independent restart signals:
  // a sequence number far behind expectation, and a sysUptime regression
  // (a rebooted exporter's uptime restarts near zero even when its new
  // sequence happens to land inside the reorder window).
  PerSource& source = sources_[source_id];
  auto outcome = source.tracker.classify(sequence);
  const bool uptime_restarted =
      source.have_uptime &&
      static_cast<std::int32_t>(uptime - source.last_uptime) <
          -static_cast<std::int64_t>(config_.uptime_restart_slack_ms);
  if (outcome.event == SequenceEvent::kRestart || uptime_restarted) {
    handle_restart(source_id, source);
    outcome = source.tracker.classify(sequence);  // now kFirst
  }
  switch (outcome.event) {
    case SequenceEvent::kGap:
      ++stats_.sequence_gaps;
      stats_.estimated_lost_packets += outcome.lost_units;
      if (config_.recorder != nullptr) {
        config_.recorder->record(obs::EventKind::kSequenceGap, source_id,
                                 outcome.lost_units);
      }
      break;
    case SequenceEvent::kReplay:
      ++stats_.reordered_packets;
      if (config_.recorder != nullptr) {
        config_.recorder->record(obs::EventKind::kSequenceReplay, source_id,
                                 1);
      }
      break;
    default:
      break;
  }
  source.tracker.commit(sequence, 1, outcome);
  if (outcome.event != SequenceEvent::kReplay) {
    source.have_uptime = true;
    source.last_uptime = uptime;
  }

  // `count` in v9 counts *records plus templates*; implementations disagree,
  // so we use it only as a sanity bound and otherwise walk flowsets until
  // the packet is exhausted.
  (void)count;
  while (r.ok() && r.remaining() >= 4) {
    const std::uint16_t flowset_id = r.u16();
    const std::uint16_t length = r.u16();
    if (length < 4 || static_cast<std::size_t>(length - 4) > r.remaining()) {
      ++stats_.malformed_packets;
      return false;
    }
    ByteReader body = r.slice(length - 4U);
    if (flowset_id == 0) {
      if (!decode_template_flowset(body, source_id, sink)) {
        ++stats_.malformed_packets;
        return false;
      }
    } else if (flowset_id >= 256) {
      const auto it = templates_.find({source_id, flowset_id});
      if (it == templates_.end()) {
        // Not an error: the template may arrive later. Park the flowset
        // body so it can be decoded retroactively.
        ++stats_.unknown_template_flowsets;
        park_flowset(source_id, flowset_id, body);
      } else if (!decode_data(body, it->second, sink)) {
        ++stats_.malformed_packets;
        return false;
      }
    }
    // Options templates (id 1) and anything in 2..255: skipped.
  }
  if (!r.ok()) {
    ++stats_.malformed_packets;
    return false;
  }
  ++stats_.packets;
  return true;
}

void Collector::handle_restart(std::uint32_t source_id, PerSource& source) {
  ++stats_.exporter_restarts;
  ++source.restarts;
  if (config_.recorder != nullptr) {
    config_.recorder->record(obs::EventKind::kExporterRestart, source_id,
                             source.restarts);
  }
  source.tracker.reset();
  source.have_uptime = false;
  // The old incarnation's templates no longer describe the new stream.
  templates_.erase(
      templates_.lower_bound({source_id, 0}),
      templates_.upper_bound({source_id, 0xffffU}));
  // Parked flowsets from the dead incarnation can never be decoded.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->source_id == source_id) {
      ++stats_.evicted_flowsets;
      if (config_.recorder != nullptr) {
        config_.recorder->record(obs::EventKind::kTemplateEvicted, source_id,
                                 it->template_id);
      }
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void Collector::park_flowset(std::uint32_t source_id,
                             std::uint16_t template_id, ByteReader& body) {
  if (config_.max_pending_flowsets == 0) return;
  if (pending_.size() >= config_.max_pending_flowsets) {
    ++stats_.evicted_flowsets;
    if (config_.recorder != nullptr) {
      config_.recorder->record(obs::EventKind::kTemplateEvicted,
                               pending_.front().source_id,
                               pending_.front().template_id);
    }
    pending_.pop_front();
  }
  PendingFlowset parked;
  parked.source_id = source_id;
  parked.template_id = template_id;
  parked.body.resize(body.remaining());
  body.bytes(parked.body);
  pending_.push_back(std::move(parked));
  ++stats_.buffered_flowsets;
  if (config_.recorder != nullptr) {
    config_.recorder->record(obs::EventKind::kTemplateParked, source_id,
                             template_id);
  }
}

template <typename Sink>
void Collector::recover_pending(std::uint32_t source_id,
                                std::uint16_t template_id, Sink& sink) {
  const auto it_tmpl = templates_.find({source_id, template_id});
  if (it_tmpl == templates_.end()) return;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->source_id != source_id || it->template_id != template_id) {
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
      ++stats_.recovered_flowsets;
      stats_.recovered_records += stats_.records - before;
      if (config_.recorder != nullptr) {
        config_.recorder->record(obs::EventKind::kTemplateRecovered,
                                 source_id, stats_.records - before);
      }
    } else {
      // The parked bytes do not parse under the learned template.
      ++stats_.evicted_flowsets;
      if (config_.recorder != nullptr) {
        config_.recorder->record(obs::EventKind::kTemplateEvicted, source_id,
                                 template_id);
      }
    }
    it = pending_.erase(it);
  }
}

SourceHealth Collector::health(std::uint32_t source_id) const {
  const auto it = sources_.find(source_id);
  if (it == sources_.end()) return {};
  return {it->second.tracker.received(), it->second.tracker.lost(),
          it->second.restarts};
}

double Collector::estimated_loss() const {
  std::uint64_t received = 0;
  std::uint64_t lost = 0;
  for (const auto& [id, source] : sources_) {
    received += source.tracker.received();
    lost += source.tracker.lost();
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
bool Collector::decode_template_flowset(ByteReader& r,
                                        std::uint32_t source_id,
                                        Sink& sink) {
  while (r.ok() && r.remaining() >= 4) {
    const std::uint16_t template_id = r.u16();
    const std::uint16_t field_count = r.u16();
    if (template_id < 256) return false;
    // Each field spec is 4 bytes; a count the body cannot hold is a
    // corrupted length field, not a template (and must be rejected before
    // reserve() turns it into an allocation).
    if (std::size_t{field_count} * 4 > r.remaining()) return false;
    TemplateEntry entry;
    entry.fields.reserve(field_count);
    for (std::uint16_t i = 0; i < field_count; ++i) {
      const std::uint16_t type = r.u16();
      const std::uint16_t length = r.u16();
      if (!r.ok()) return false;
      entry.fields.push_back({type, length});
    }
    // Compile the decode plan once per (re)announcement: a redefined
    // template id gets a fresh plan along with its fresh field list.
    std::vector<plan::WireField> wire;
    wire.reserve(entry.fields.size());
    for (const auto& f : entry.fields) {
      wire.push_back({f.type, f.length, false});
    }
    entry.plan = std::make_shared<const plan::CompiledPlan>(
        plan::compile_netflow_v9(wire));
    templates_[{source_id, template_id}] = std::move(entry);
    ++stats_.templates_learned;
    recover_pending(source_id, template_id, sink);
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
    // Plan cannot represent the template (never for v9 in practice, but
    // kept for symmetry with IPFIX): the reference walk runs now, into
    // the job's own rows, preserving partial-decode behavior.
    plan::BodyJob& job = sink.jobs->emplace_back();
    return decode_data_flowset(r, entry.fields, job.records);
  } else {
    return decode_data_flowset(r, entry.fields, *sink.out);
  }
}

bool Collector::decode_data_flowset(ByteReader& r, const Template& tmpl,
                                    std::vector<FlowRecord>& out) {
  std::size_t rec_len = 0;
  for (const auto& f : tmpl) rec_len += f.length;
  if (rec_len == 0) return false;

  while (r.ok() && r.remaining() >= rec_len) {
    FlowRecord rec;
    bool v6_src = false;
    for (const auto& f : tmpl) {
      // Record framing is defined by the template's *declared* lengths. A
      // known field type whose declared length is not a supported encoding
      // must be skipped at the declared length — decoding it at the
      // "expected" size would shift every subsequent field of every record
      // in the flowset, silently producing garbage records.
      const auto fixed = [&](std::uint16_t want) {
        if (f.length == want) return true;
        r.skip(f.length);
        return false;
      };
      switch (static_cast<FieldType>(f.type)) {
        case FieldType::kIpv4SrcAddr:
          if (fixed(4)) rec.key.src = net::IpAddress::v4(r.u32());
          break;
        case FieldType::kIpv4DstAddr:
          if (fixed(4)) rec.key.dst = net::IpAddress::v4(r.u32());
          break;
        case FieldType::kIpv6SrcAddr:
          if (fixed(16)) {
            const std::uint64_t hi = r.u64();
            const std::uint64_t lo = r.u64();
            rec.key.src = net::IpAddress::v6(hi, lo);
            v6_src = true;
          }
          break;
        case FieldType::kIpv6DstAddr:
          if (fixed(16)) {
            const std::uint64_t hi = r.u64();
            const std::uint64_t lo = r.u64();
            rec.key.dst = net::IpAddress::v6(hi, lo);
          }
          break;
        case FieldType::kL4SrcPort:
          if (fixed(2)) rec.key.src_port = r.u16();
          break;
        case FieldType::kL4DstPort:
          if (fixed(2)) rec.key.dst_port = r.u16();
          break;
        case FieldType::kProtocol:
          if (fixed(1)) rec.key.proto = r.u8();
          break;
        case FieldType::kTcpFlags:
          if (fixed(1)) rec.tcp_flags = r.u8();
          break;
        case FieldType::kInPkts:
          if (f.length == 8 || f.length == 4) {
            rec.packets = f.length == 8 ? r.u64() : r.u32();
          } else {
            r.skip(f.length);
          }
          break;
        case FieldType::kInBytes:
          if (f.length == 8 || f.length == 4) {
            rec.bytes = f.length == 8 ? r.u64() : r.u32();
          } else {
            r.skip(f.length);
          }
          break;
        case FieldType::kFirstSwitched:
          if (fixed(4)) rec.start_ms = r.u32();
          break;
        case FieldType::kLastSwitched:
          if (fixed(4)) rec.end_ms = r.u32();
          break;
        case FieldType::kSamplingInterval:
          if (fixed(4)) rec.sampling = r.u32();
          break;
        default:
          r.skip(f.length);
          break;
      }
    }
    (void)v6_src;
    if (!r.ok()) return false;
    out.push_back(rec);
    ++stats_.records;
  }
  // Remaining bytes are padding (< rec_len); accept.
  return r.ok();
}

}  // namespace haystack::flow::nf9
