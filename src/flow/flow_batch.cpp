#include "flow/flow_batch.hpp"

namespace haystack::flow {

void FlowBatch::clear() {
  src.clear();
  dst.clear();
  src_port.clear();
  dst_port.clear();
  proto.clear();
  tcp_flags.clear();
  packets.clear();
  bytes.clear();
  start_ms.clear();
  end_ms.clear();
  sampling.clear();
}

void FlowBatch::reserve(std::size_t rows) {
  src.reserve(rows);
  dst.reserve(rows);
  src_port.reserve(rows);
  dst_port.reserve(rows);
  proto.reserve(rows);
  tcp_flags.reserve(rows);
  packets.reserve(rows);
  bytes.reserve(rows);
  start_ms.reserve(rows);
  end_ms.reserve(rows);
  sampling.reserve(rows);
}

std::size_t FlowBatch::append_defaults() {
  const std::size_t row = src.size();
  src.emplace_back();
  dst.emplace_back();
  src_port.push_back(0);
  dst_port.push_back(0);
  proto.push_back(6);
  tcp_flags.push_back(0);
  packets.push_back(0);
  bytes.push_back(0);
  start_ms.push_back(0);
  end_ms.push_back(0);
  sampling.push_back(1);
  return row;
}

void FlowBatch::push(const FlowRecord& rec) {
  src.push_back(rec.key.src);
  dst.push_back(rec.key.dst);
  src_port.push_back(rec.key.src_port);
  dst_port.push_back(rec.key.dst_port);
  proto.push_back(rec.key.proto);
  tcp_flags.push_back(rec.tcp_flags);
  packets.push_back(rec.packets);
  bytes.push_back(rec.bytes);
  start_ms.push_back(rec.start_ms);
  end_ms.push_back(rec.end_ms);
  sampling.push_back(rec.sampling);
}

FlowRecord FlowBatch::record(std::size_t i) const {
  FlowRecord rec;
  rec.key.src = src[i];
  rec.key.dst = dst[i];
  rec.key.src_port = src_port[i];
  rec.key.dst_port = dst_port[i];
  rec.key.proto = proto[i];
  rec.tcp_flags = tcp_flags[i];
  rec.packets = packets[i];
  rec.bytes = bytes[i];
  rec.start_ms = start_ms[i];
  rec.end_ms = end_ms[i];
  rec.sampling = sampling[i];
  return rec;
}

}  // namespace haystack::flow
