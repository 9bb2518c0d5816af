// NetFlow v9 export packet codec (RFC 3954).
//
// The ISP vantage point in the paper collects NetFlow v9 from all border
// routers. This codec implements the real wire format: the 20-byte packet
// header, template flowsets (id 0) describing record layouts as
// (field type, length) pairs, and data flowsets carrying back-to-back
// records padded to 32-bit alignment.
//
// The encoder emits one template per address family (IPv4 template 256,
// IPv6 template 257) followed by data flowsets. The decoder is
// template-driven and stateful across packets, exactly as a production
// collector must be: templates learned from earlier packets decode data
// flowsets of later ones; data flowsets whose template is unknown are
// counted and skipped, not errors.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "flow/flow_batch.hpp"
#include "flow/gap_tracker.hpp"
#include "flow/record.hpp"
#include "flow/template_plan.hpp"
#include "flow/wire.hpp"
#include "obs/flight_recorder.hpp"

namespace haystack::flow::nf9 {

/// NetFlow v9 field type numbers used by this implementation (RFC 3954 §8).
enum class FieldType : std::uint16_t {
  kInBytes = 1,
  kInPkts = 2,
  kProtocol = 4,
  kTcpFlags = 6,
  kL4SrcPort = 7,
  kIpv4SrcAddr = 8,
  kL4DstPort = 11,
  kIpv4DstAddr = 12,
  kLastSwitched = 21,
  kFirstSwitched = 22,
  kIpv6SrcAddr = 27,
  kIpv6DstAddr = 28,
  kSamplingInterval = 34,
};

/// Template ids chosen by the exporter (must be >= 256).
inline constexpr std::uint16_t kTemplateV4 = 256;
inline constexpr std::uint16_t kTemplateV6 = 257;

/// Exporter configuration.
struct ExporterConfig {
  std::uint32_t source_id = 1;        ///< engine id in the packet header
  std::size_t max_records_per_packet = 24;
  /// Emit template flowsets every `template_refresh_packets` packets
  /// (and always in the first packet), as real exporters do.
  std::uint32_t template_refresh_packets = 20;
  /// Unix time the exporter process booted; sysUptime in the packet
  /// header is `(unix_secs - boot_unix_secs) * 1000`. A restarted
  /// exporter gets a recent boot time, so its uptime regresses toward
  /// zero — the second restart signal collectors key on.
  std::uint32_t boot_unix_secs = 0;
};

/// Stateful NetFlow v9 exporter: turns FlowRecords into export packets.
class Exporter {
 public:
  explicit Exporter(ExporterConfig config) noexcept : config_{config} {}

  /// Encodes `records` into one or more export packets. Each call advances
  /// the sequence number by the number of records emitted (per RFC 3954 the
  /// v9 sequence counts *packets*, but several major implementations count
  /// records; we follow the RFC and count packets).
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> export_flows(
      std::span<const FlowRecord> records, std::uint32_t unix_secs);

  [[nodiscard]] std::uint32_t packets_sent() const noexcept {
    return packets_sent_;
  }

 private:
  void write_templates(ByteWriter& w) const;

  ExporterConfig config_;
  std::uint32_t packets_sent_ = 0;
};

/// Collector resilience knobs (ISSUE 2). The defaults keep a bare
/// collector byte-compatible with a plain decoder except that data
/// flowsets arriving before their template are parked and recovered.
struct CollectorConfig {
  /// Bound on parked data flowsets awaiting their template; the oldest is
  /// evicted (and counted) when the bound is hit. 0 disables buffering.
  std::size_t max_pending_flowsets = 64;
  /// Backward sequence distance (in packets) still treated as a reordered
  /// or replayed datagram; anything further back is an exporter restart.
  std::uint32_t reorder_window = 64;
  /// Duplicate-datagram suppression window (datagrams); 0 disables.
  std::size_t dedup_window = 0;
  /// sysUptime regression (ms) beyond which the exporter is considered
  /// restarted even when the sequence number happens to line up.
  std::uint32_t uptime_restart_slack_ms = 60'000;
  /// Optional flight recorder: restart/gap/replay/park/recover/evict
  /// events are recorded with source = the export source id (ISSUE 5).
  obs::FlightRecorder* recorder = nullptr;
};

/// Decoder statistics, exposed for monitoring and tests. Every ingested
/// datagram lands in exactly one of {packets, malformed_packets,
/// duplicate_packets}.
struct CollectorStats {
  std::uint64_t packets = 0;          ///< datagrams fully decoded
  std::uint64_t records = 0;
  std::uint64_t templates_learned = 0;
  std::uint64_t unknown_template_flowsets = 0;
  std::uint64_t malformed_packets = 0;
  std::uint64_t duplicate_packets = 0;     ///< suppressed UDP duplicates
  std::uint64_t sequence_gaps = 0;         ///< gap events observed
  std::uint64_t estimated_lost_packets = 0;  ///< packets presumed lost
  std::uint64_t reordered_packets = 0;     ///< late (replayed) datagrams
  std::uint64_t exporter_restarts = 0;     ///< sequence/uptime resets seen
  std::uint64_t buffered_flowsets = 0;     ///< data flowsets ever parked
  std::uint64_t recovered_flowsets = 0;    ///< parked, then decoded
  std::uint64_t recovered_records = 0;     ///< records from recovery
  std::uint64_t evicted_flowsets = 0;      ///< parked, then discarded
};

/// Stateful NetFlow v9 collector: learns templates, decodes data flowsets,
/// and tolerates the UDP failure modes of real export paths — data before
/// template (parked + recovered), duplicates (suppressed), reordering and
/// loss (classified via the sequence), and exporter restarts (template
/// state reset).
class Collector {
 public:
  Collector() : Collector(CollectorConfig{}) {}
  explicit Collector(const CollectorConfig& config)
      : config_{config}, deduper_{config.dedup_window} {}

  /// Decodes one export packet, appending decoded records to `out`.
  /// Returns false when the packet was malformed (partial decode results
  /// may still have been appended). This is the record-at-a-time
  /// reference walk the differential tier pins `ingest_batch` against.
  bool ingest(std::span<const std::uint8_t> packet,
              std::vector<FlowRecord>& out);

  /// Batch decode: `scan`, then the jobs executed in order straight into
  /// `out`'s columns. For any packet and collector state, appends exactly
  /// the rows `ingest` would have appended, bit for bit.
  bool ingest_batch(std::span<const std::uint8_t> packet, FlowBatch& out);

  /// The stateful half of `ingest_batch`: header, duplicate check,
  /// sequence and restart handling, template learning, parking and
  /// recovery, with every statistic and flight event exactly as `ingest`.
  /// Each data flowset with a known template appends one job to `jobs`
  /// instead of being decoded; its records are counted as the job will
  /// yield them. Executing the appended jobs in order (plan::execute)
  /// yields `ingest`'s rows. A job's body may point into `packet`, which
  /// must outlive it.
  bool scan(std::span<const std::uint8_t> packet,
            std::vector<plan::BodyJob>& jobs);

  [[nodiscard]] const CollectorStats& stats() const noexcept { return stats_; }

  /// Per-source stream health (loss estimate, restarts). Zeroes when the
  /// source was never seen.
  [[nodiscard]] SourceHealth health(std::uint32_t source_id) const;

  /// Aggregate estimated datagram loss fraction across all sources.
  [[nodiscard]] double estimated_loss() const;

  /// Data flowsets currently parked awaiting their template, and the bytes
  /// they hold (each parked record body byte can release at most one
  /// record later — the fuzzers use this as a decode bound).
  [[nodiscard]] std::size_t pending_flowsets() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] std::size_t pending_bytes() const noexcept;

 private:
  struct TemplateField {
    std::uint16_t type;
    std::uint16_t length;
  };
  using Template = std::vector<TemplateField>;

  /// A learned template plus its decode plan, compiled once at learn time
  /// (templates are learned off the hot path; data flowsets are not). Jobs
  /// share the plan, so a redefinition never reaches an earlier job.
  struct TemplateEntry {
    Template fields;
    std::shared_ptr<const plan::CompiledPlan> plan;
  };

  struct PendingFlowset {
    std::uint32_t source_id = 0;
    std::uint16_t template_id = 0;
    std::vector<std::uint8_t> body;
  };

  struct PerSource {
    SequenceTracker tracker;
    bool have_uptime = false;
    std::uint32_t last_uptime = 0;
    std::uint32_t restarts = 0;
  };

  // `ingest` and `scan` share one protocol implementation, parameterized
  // over the record sink (RecordSink appends FlowRecords via the
  // reference walk; JobSink defers each body as a plan::BodyJob). Defined
  // in the .cpp; both instantiations live there.
  template <typename Sink>
  bool ingest_impl(std::span<const std::uint8_t> packet, Sink& sink);
  template <typename Sink>
  bool decode_template_flowset(ByteReader& r, std::uint32_t source_id,
                               Sink& sink);
  template <typename Sink>
  bool decode_data(ByteReader& r, const TemplateEntry& entry, Sink& sink);
  template <typename Sink>
  void recover_pending(std::uint32_t source_id, std::uint16_t template_id,
                       Sink& sink);
  bool decode_data_flowset(ByteReader& r, const Template& tmpl,
                           std::vector<FlowRecord>& out);
  void park_flowset(std::uint32_t source_id, std::uint16_t template_id,
                    ByteReader& body);
  void handle_restart(std::uint32_t source_id, PerSource& source);

  CollectorConfig config_;
  // Templates are scoped by (source id, template id) per RFC 3954 §5.
  std::map<std::pair<std::uint32_t, std::uint16_t>, TemplateEntry>
      templates_;
  std::map<std::uint32_t, PerSource> sources_;
  std::deque<PendingFlowset> pending_;
  DatagramDeduper deduper_;
  CollectorStats stats_;
  std::vector<plan::BodyJob> batch_jobs_;  // reused by ingest_batch
};

}  // namespace haystack::flow::nf9
