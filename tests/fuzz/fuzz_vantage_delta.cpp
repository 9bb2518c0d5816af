// Structure-aware fuzzer for the HSVD evidence-delta decoder (ISSUE 7).
//
// Corpus: real encode_delta output — empty heartbeat deltas, multi-row
// deltas with shared labels, and a snapshot-kind delta. Structure-aware
// mutations target the HSVD framing: the kind byte, the label count and
// label length prefixes, the first row's label index, the 64-bit row
// count (including values around 2^64 / the minimum row size, where a
// count * size product would wrap), and truncation/extension around the
// strict row-section boundary.
//
// Properties checked per input:
//   - decode_delta() returns (no crash, no OOB — sanitizers enforce);
//   - an accepted parse is CANONICAL: re-encoding it reproduces the input
//     byte-for-byte (the decoder admits exactly the encoder's image);
//   - every accepted row's label index is within the label table;
//   - accept/reject is deterministic (a second decode agrees).
#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "flow/delta_wire.hpp"
#include "fuzz_harness.hpp"

namespace {

using haystack::fuzz::Bytes;
using namespace haystack::flow;

EvidenceDelta sample_delta(std::uint32_t rows, DeltaKind kind) {
  EvidenceDelta delta;
  delta.collector = 3;
  delta.seq = 17;
  delta.epoch = 41;
  delta.kind = kind;
  delta.threshold_bits = 0x3fd999999999999aULL;  // 0.4
  delta.flows = 100000;
  delta.matched = 4242;
  delta.labels = {"echo-dot", "ring-doorbell", "chromecast"};
  for (std::uint32_t i = 0; i < rows; ++i) {
    DeltaRow row;
    row.subscriber = 0x1000 + i * 7;
    row.label = i % static_cast<std::uint32_t>(delta.labels.size());
    row.mask0 = (1ULL << (i % 64)) | 1U;
    row.mask1 = i % 5 == 0 ? (1ULL << 63) : 0;
    row.packets = i % 3 == 0 ? 0x1'0000'0000ULL + i : 10 + i;
    row.first_seen = i % 48;
    delta.rows.push_back(row);
  }
  return delta;
}

std::vector<Bytes> build_corpus() {
  std::vector<Bytes> corpus;
  corpus.push_back(encode_delta(sample_delta(0, DeltaKind::kDelta)));
  corpus.push_back(encode_delta(sample_delta(5, DeltaKind::kDelta)));
  corpus.push_back(encode_delta(sample_delta(64, DeltaKind::kDelta)));
  corpus.push_back(encode_delta(sample_delta(9, DeltaKind::kSnapshot)));
  EvidenceDelta empty;
  corpus.push_back(encode_delta(empty));
  return corpus;
}

// HSVD offsets: magic u32 @0, version u32 @4, collector u32 @8, seq u32
// @12, epoch u32 @16, kind u8 @20, threshold u64 @21, flows u64 @29,
// matched u64 @37, label count u32 @45, then labels (u16 length + bytes),
// then row count u64, then rows (u64 subscriber, u32 label index, ...).

// Offset of the u64 row count, found by walking the label table; 0 when
// the table runs past the end of `data`.
std::size_t row_count_at(const Bytes& data) {
  std::uint32_t labels = 0;
  for (unsigned i = 0; i < 4; ++i) labels = (labels << 8) | data[45 + i];
  std::size_t pos = 49;
  for (std::uint32_t i = 0; i < labels; ++i) {
    if (pos + 2 > data.size()) return 0;
    pos += 2 + ((std::size_t{data[pos]} << 8) | data[pos + 1]);
  }
  return pos + 8 <= data.size() ? pos : 0;
}

void structure_mutate(Bytes& data, haystack::util::Pcg32& rng) {
  if (data.size() < 57) return;
  switch (rng.bounded(6)) {
    case 0:  // kind byte: kSnapshot, or out-of-range values
      data[20] = static_cast<std::uint8_t>(rng.bounded(8));
      break;
    case 1: {  // label count corruption (tiny, huge, off-by-one)
      constexpr std::uint32_t kCounts[] = {0, 1, 2, 4, 0xffff, 0xffffffff};
      const std::uint32_t v = kCounts[rng.bounded(6)];
      for (unsigned i = 0; i < 4; ++i) {
        data[45 + i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
      }
      break;
    }
    case 2: {  // first label's length prefix lies
      constexpr std::uint16_t kLens[] = {0, 1, 7, 0x00ff, 0xfffe, 0xffff};
      const std::uint16_t v = kLens[rng.bounded(6)];
      data[49] = static_cast<std::uint8_t>(v >> 8);
      data[50] = static_cast<std::uint8_t>(v);
      break;
    }
    case 3: {  // row count: huge values, including multiplication-overflow
               // bait around 2^64 / 29 (the smallest row)
      const std::size_t pos = row_count_at(data);
      constexpr std::uint64_t kCounts[] = {
          0, 1, 0xffffffffULL, 0x08d3dcb08d3dcb08ULL /* ~2^64/29 */,
          0x08d3dcb08d3dcb09ULL, 0xffffffffffffffffULL};
      const std::uint64_t v = kCounts[rng.bounded(6)];
      if (pos != 0) {
        for (unsigned i = 0; i < 8; ++i) {
          data[pos + i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
        }
      }
      break;
    }
    case 4: {  // the first row's label index (bytes 8..11 of the row)
      const std::size_t pos = row_count_at(data);
      const std::size_t base = pos + 8 + 8;
      if (pos == 0 || base + 4 > data.size()) break;
      const std::uint32_t v = rng.bounded(16);
      for (unsigned i = 0; i < 4; ++i) {
        data[base + i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
      }
      break;
    }
    default:  // truncate or extend around the strict row boundary
      if (rng.chance(0.5)) {
        data.resize(data.size() -
                    1 - rng.bounded(static_cast<std::uint32_t>(
                            std::min<std::size_t>(data.size() - 1, 41))));
      } else {
        const std::uint32_t extra = 1 + rng.bounded(41);
        for (std::uint32_t i = 0; i < extra; ++i) data.push_back(0);
      }
      break;
  }
}

bool check(std::span<const std::uint8_t> input) {
  EvidenceDelta first;
  std::string error;
  const bool accepted = decode_delta(input, first, &error);
  if (accepted) {
    if (!error.empty()) return false;  // success must clear the error
    for (const DeltaRow& row : first.rows) {
      if (row.label >= first.labels.size()) return false;
    }
    // Canonical round-trip: the decoder admits exactly the encoder image.
    const Bytes reencoded = encode_delta(first);
    if (reencoded.size() != input.size() ||
        !std::equal(reencoded.begin(), reencoded.end(), input.begin())) {
      return false;
    }
  } else if (error.empty()) {
    return false;  // rejection must carry a reason
  }
  // Determinism: a second decode of the same bytes agrees.
  EvidenceDelta second;
  return decode_delta(input, second, nullptr) == accepted;
}

}  // namespace

#ifdef HAYSTACK_LIBFUZZER
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  (void)check({data, size});
  return 0;
}
#else
int main(int argc, char** argv) {
  const auto config = haystack::fuzz::parse_args(argc, argv);
  return haystack::fuzz::run_fuzz("fuzz_vantage_delta", config,
                                  build_corpus(), structure_mutate, check);
}
#endif
