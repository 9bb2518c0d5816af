// Structure-of-arrays flow batches.
//
// A `FlowBatch` holds the decoded fields of N flow records as parallel
// columns instead of a vector of fat `FlowRecord` structs. Batch decode
// (`Collector::ingest_batch`) appends straight off the datagram into the
// columns via a compiled per-template field-offset plan, and the pipeline
// normalizer reads only the columns it needs (dst IP, dst port, packets),
// never materializing a `FlowRecord` on the fast path.
//
// Column defaults reproduce `FlowRecord`'s member initializers exactly
// (proto = 6, sampling = 1, everything else zero / unspecified address),
// so a batch row round-trips bit-for-bit through `record(i)` against the
// record-at-a-time reference decoder. The differential tier enforces this.
//
// The batch owns its columns by value, so its rows never alias the
// datagram they were decoded from. Each pipeline body worker keeps one
// batch and clears it per datagram, reusing its capacity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "flow/record.hpp"
#include "net/ip_address.hpp"

namespace haystack::flow {

/// Decoded flow records in structure-of-arrays layout. All columns have
/// identical length (`size()`); row `i` across the columns reconstructs
/// one `FlowRecord`.
class FlowBatch {
 public:
  // Columns are public by design: decode plans and the pipeline
  // normalizer index them directly.
  std::vector<net::IpAddress> src;
  std::vector<net::IpAddress> dst;
  std::vector<std::uint16_t> src_port;
  std::vector<std::uint16_t> dst_port;
  std::vector<std::uint8_t> proto;
  std::vector<std::uint8_t> tcp_flags;
  std::vector<std::uint64_t> packets;
  std::vector<std::uint64_t> bytes;
  std::vector<std::uint64_t> start_ms;
  std::vector<std::uint64_t> end_ms;
  std::vector<std::uint32_t> sampling;

  [[nodiscard]] std::size_t size() const { return src.size(); }
  [[nodiscard]] bool empty() const { return src.empty(); }

  /// Clears all columns; capacity is retained for reuse.
  void clear();

  /// Reserves room for `rows` records in every column.
  void reserve(std::size_t rows);

  /// Appends one row with `FlowRecord` defaults (proto 6, sampling 1,
  /// zeros elsewhere) and returns its index. Decode plans fill in the
  /// fields the template actually carries.
  std::size_t append_defaults();

  /// Appends a fully materialized record (push_flows / test convenience).
  void push(const FlowRecord& rec);

  /// Reconstructs row `i` as a `FlowRecord`. Bit-identical to what the
  /// record-at-a-time reference decoder would have produced.
  [[nodiscard]] FlowRecord record(std::size_t i) const;
};

}  // namespace haystack::flow
