// IPFIX message codec (RFC 7011).
//
// The IXP vantage point collects IPFIX across its switching fabric. This
// codec implements the real message format: the 16-byte message header
// (version 10, total length, export time, sequence number counting data
// records, observation domain), template sets (set id 2) and data sets
// (set id >= 256). The decoder additionally understands enterprise-numbered
// fields (high bit of the IE id, RFC 7011 §3.2) and variable-length fields
// (field length 65535, §7), skipping their content, so it survives
// real-world exporters that interleave vendor IEs with the standard ones.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "flow/flow_batch.hpp"
#include "flow/gap_tracker.hpp"
#include "flow/record.hpp"
#include "flow/template_plan.hpp"
#include "flow/wire.hpp"
#include "obs/flight_recorder.hpp"

namespace haystack::flow::ipfix {

/// IANA information element ids used by this implementation.
enum class Ie : std::uint16_t {
  kOctetDeltaCount = 1,
  kPacketDeltaCount = 2,
  kProtocolIdentifier = 4,
  kTcpControlBits = 6,
  kSourceTransportPort = 7,
  kSourceIpv4Address = 8,
  kDestinationTransportPort = 11,
  kDestinationIpv4Address = 12,
  kSourceIpv6Address = 27,
  kDestinationIpv6Address = 28,
  kSamplingInterval = 34,
  kFlowStartMilliseconds = 152,
  kFlowEndMilliseconds = 153,
};

inline constexpr std::uint16_t kTemplateSetId = 2;
inline constexpr std::uint16_t kOptionsTemplateSetId = 3;
inline constexpr std::uint16_t kTemplateV4 = 300;
inline constexpr std::uint16_t kTemplateV6 = 301;
inline constexpr std::uint16_t kSamplingOptionsTemplateId = 400;
/// samplingAlgorithm IE (deprecated in favour of selector IEs, but still
/// what fielded exporters emit alongside samplingInterval).
inline constexpr std::uint16_t kIeSamplingAlgorithm = 35;

/// Encodes a stand-alone IPFIX message announcing the observation domain's
/// sampling configuration through an options template (set id 3, RFC 7011
/// §3.4.2.2) plus one options data record.
[[nodiscard]] std::vector<std::uint8_t> encode_sampling_options(
    std::uint32_t observation_domain, std::uint32_t interval,
    std::uint32_t export_time, std::uint32_t sequence);

/// Exporter configuration.
struct ExporterConfig {
  std::uint32_t observation_domain = 1;
  std::size_t max_records_per_message = 24;
  std::uint32_t template_refresh_messages = 20;
};

/// Stateful IPFIX exporter.
class Exporter {
 public:
  explicit Exporter(ExporterConfig config) noexcept : config_{config} {}

  /// Encodes `records` into one or more IPFIX messages. The message
  /// sequence number counts cumulative data records per RFC 7011 §3.1.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> export_flows(
      std::span<const FlowRecord> records, std::uint32_t export_time);

  [[nodiscard]] std::uint32_t messages_sent() const noexcept {
    return messages_sent_;
  }
  [[nodiscard]] std::uint32_t records_sent() const noexcept {
    return records_sent_;
  }

 private:
  void write_templates(ByteWriter& w) const;

  ExporterConfig config_;
  std::uint32_t messages_sent_ = 0;
  std::uint32_t records_sent_ = 0;
};

/// Collector resilience knobs (ISSUE 2), mirroring the NetFlow v9 ones.
/// The IPFIX sequence counts *data records*, so the reorder window is in
/// record units.
struct CollectorConfig {
  /// Bound on parked data sets awaiting their template. 0 disables.
  std::size_t max_pending_sets = 64;
  /// Backward sequence distance (records) still treated as reordering.
  std::uint32_t reorder_window = 2048;
  /// Duplicate-datagram suppression window (datagrams); 0 disables.
  std::size_t dedup_window = 0;
  /// Optional flight recorder: restart/gap/replay/park/recover/evict
  /// events are recorded with source = the observation domain (ISSUE 5).
  obs::FlightRecorder* recorder = nullptr;
};

/// Decoder statistics. Every ingested datagram lands in exactly one of
/// {messages, malformed_messages, duplicate_messages}.
struct CollectorStats {
  std::uint64_t messages = 0;  ///< messages fully decoded
  std::uint64_t records = 0;
  std::uint64_t templates_learned = 0;
  std::uint64_t options_templates_learned = 0;
  std::uint64_t unknown_template_sets = 0;
  std::uint64_t malformed_messages = 0;
  std::uint64_t sequence_gaps = 0;  ///< gap events observed
  std::uint64_t estimated_lost_records = 0;  ///< records presumed lost
  std::uint64_t duplicate_messages = 0;      ///< suppressed UDP duplicates
  std::uint64_t reordered_messages = 0;      ///< late (replayed) messages
  std::uint64_t exporter_restarts = 0;       ///< sequence resets detected
  std::uint64_t buffered_sets = 0;           ///< data sets ever parked
  std::uint64_t recovered_sets = 0;          ///< parked, then decoded
  std::uint64_t recovered_records = 0;       ///< records from recovery
  std::uint64_t evicted_sets = 0;            ///< parked, then discarded
  std::uint64_t zero_sampling_announcements = 0;  ///< clamped to 1
};

/// Stateful IPFIX collector with template-loss recovery, duplicate
/// suppression, restart detection, and record-level loss estimation.
class Collector {
 public:
  Collector() : Collector(CollectorConfig{}) {}
  explicit Collector(const CollectorConfig& config)
      : config_{config}, deduper_{config.dedup_window} {}

  /// Decodes one IPFIX message, appending records to `out`. Returns false
  /// on malformed input. This is the record-at-a-time reference walk the
  /// differential tier pins `ingest_batch` against.
  bool ingest(std::span<const std::uint8_t> message,
              std::vector<FlowRecord>& out);

  /// Batch decode: `scan`, then the jobs executed in order straight into
  /// `out`'s columns. Output is bit-identical to `ingest`.
  bool ingest_batch(std::span<const std::uint8_t> message, FlowBatch& out);

  /// The stateful half of `ingest_batch` (see nf9::Collector::scan): one
  /// job per data set with a known template. Fixed-layout sets defer to
  /// their compiled plan; templates with variable-length fields run the
  /// reference walk here, into the job's own rows. Records are counted at
  /// scan time, so the record-sequence commit is unchanged. A job's body
  /// may point into `message`, which must outlive it.
  bool scan(std::span<const std::uint8_t> message,
            std::vector<plan::BodyJob>& jobs);

  [[nodiscard]] const CollectorStats& stats() const noexcept { return stats_; }

  /// Sampling interval announced by an observation domain via options data,
  /// or nullopt when none was seen. A zero announcement is clamped to 1
  /// and counted in zero_sampling_announcements.
  [[nodiscard]] std::optional<std::uint32_t> announced_sampling(
      std::uint32_t observation_domain) const;

  /// Per-domain stream health (record-level loss estimate, restarts).
  [[nodiscard]] SourceHealth health(std::uint32_t observation_domain) const;

  /// Aggregate estimated data-record loss fraction across all domains.
  [[nodiscard]] double estimated_loss() const;

  [[nodiscard]] std::size_t pending_sets() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] std::size_t pending_bytes() const noexcept;

 private:
  struct TemplateField {
    std::uint16_t id;          ///< IE id without the enterprise bit
    std::uint16_t length;      ///< 65535 = variable length
    bool enterprise = false;
  };
  using Template = std::vector<TemplateField>;

  /// A learned template plus its decode plan, compiled at learn time and
  /// shared with the jobs scanned under it. `plan->fast` is false for
  /// templates with variable-length fields.
  struct TemplateEntry {
    Template fields;
    std::shared_ptr<const plan::CompiledPlan> plan;
  };

  struct PendingSet {
    std::uint32_t domain = 0;
    std::uint16_t template_id = 0;
    /// Sequence of the message that carried the set: the records inside
    /// start at this position in the domain's record-sequence space.
    std::uint32_t sequence = 0;
    std::vector<std::uint8_t> body;
  };

  struct PerDomain {
    SequenceTracker tracker;
    std::uint32_t restarts = 0;
    /// True when the previous message parked an undecodable data set, so
    /// its record count is unknown and the next forward sequence jump is
    /// a resync (parked records), not loss.
    bool sequence_indeterminate = false;
  };

  // `ingest` and `scan` share one protocol implementation, parameterized
  // over the record sink (see netflow_v9). Defined in the .cpp; both
  // instantiations live there.
  template <typename Sink>
  bool ingest_impl(std::span<const std::uint8_t> message, Sink& sink);
  template <typename Sink>
  bool decode_template_set(ByteReader& r, std::uint32_t domain, Sink& sink);
  template <typename Sink>
  bool decode_data(ByteReader& r, const TemplateEntry& entry, Sink& sink);
  template <typename Sink>
  void recover_pending(std::uint32_t domain, std::uint16_t template_id,
                       Sink& sink);
  bool decode_options_template_set(ByteReader& r, std::uint32_t domain);
  bool decode_data_set(ByteReader& r, const Template& tmpl,
                       std::vector<FlowRecord>& out);
  bool decode_options_data(ByteReader& r, std::uint16_t set_id,
                           std::uint32_t domain);
  void park_set(std::uint32_t domain, std::uint16_t template_id,
                std::uint32_t sequence, ByteReader& body);
  void handle_restart(std::uint32_t domain, PerDomain& state);

  struct OptionsTemplate {
    std::uint16_t scope_bytes = 0;
    std::vector<TemplateField> fields;
  };
  CollectorConfig config_;
  std::map<std::pair<std::uint32_t, std::uint16_t>, TemplateEntry>
      templates_;
  std::map<std::pair<std::uint32_t, std::uint16_t>, OptionsTemplate>
      options_templates_;
  std::map<std::uint32_t, std::uint32_t> announced_sampling_;
  std::map<std::uint32_t, PerDomain> domains_;
  std::deque<PendingSet> pending_;
  DatagramDeduper deduper_;
  CollectorStats stats_;
  std::vector<plan::BodyJob> batch_jobs_;  // reused by ingest_batch
};

}  // namespace haystack::flow::ipfix
