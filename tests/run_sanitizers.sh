#!/usr/bin/env bash
# Builds and runs the test suite under the sanitizers (ISSUE 1).
#
#   tests/run_sanitizers.sh            # ASan+UBSan full suite, then TSan
#   tests/run_sanitizers.sh asan       # ASan+UBSan only
#   tests/run_sanitizers.sh tsan       # TSan only
#
# ASan+UBSan runs the entire suite (unit + differential + fuzz smoke +
# fault matrix); the fuzz targets additionally get a longer 10k-iteration
# pass per codec, and the fault-injection matrix (ctest label `fault`,
# which includes the issue's seeded compound-impairment fleet run) gets an
# explicit second pass so the acceptance workload is visible in the log
# even when the full suite is trimmed. TSan runs the threaded workloads:
# the differential sweep (whose per-scenario shard sweep hammers
# ShardedDetector worker threads and the streaming IngestPipeline's two
# intake stages, the header pass and the body workers), the concurrency
# stress/soak suite (ctest label `stress`: backpressure, shutdown
# mid-stream, stop-then-refuse, the body workers' ordered commit, and
# concurrent push_flows callers, which run the normalizer on their own
# threads), the observability suite
# (ctest label `obs`: concurrent scrape-while-ingesting under load,
# ISSUE 5), the multi-vantage suite (ctest label `vantage`: concurrent
# aggregator offer/query, ISSUE 7), the live control plane suite (ctest
# label `serve`: snapshot queries, hot-reloads, and alerts against full
# ingest, ISSUE 8), the paper-scale suite (ctest label `scale`: the
# population's one build per block under racing devices_of and block
# walks, the block-parallel generator's hand-off of worker-filled ring
# slots to the calling thread under a throwing sink, a stalling sink at
# 1, 3 and 7 workers and two concurrent callers, and the
# million-entry evidence-map rehash storm, ISSUE 9), and the sharded
# detector and streaming-pipeline unit tests.
set -euo pipefail

cd "$(dirname "$0")/.."
mode="${1:-all}"
jobs="$(nproc)"

run_asan() {
  echo "== ASan+UBSan =="
  cmake -B build-asan -S . -DHAYSTACK_SANITIZE=address,undefined
  cmake --build build-asan -j "${jobs}"
  (cd build-asan && ctest --output-on-failure -j "${jobs}")
  (cd build-asan && ctest --output-on-failure -j "${jobs}" -L fault)
  for codec in netflow_v9 ipfix dns_wire vantage_delta checkpoint; do
    "./build-asan/tests/fuzz/fuzz_${codec}" --iterations 10000 --seed 1
  done
}

run_tsan() {
  echo "== TSan =="
  cmake -B build-tsan -S . -DHAYSTACK_SANITIZE=thread
  cmake --build build-tsan -j "${jobs}"
  (cd build-tsan && ctest --output-on-failure -j "${jobs}" -L differential)
  (cd build-tsan && ctest --output-on-failure -j "${jobs}" -L stress)
  (cd build-tsan && ctest --output-on-failure -j "${jobs}" -L obs)
  (cd build-tsan && ctest --output-on-failure -j "${jobs}" -L vantage)
  (cd build-tsan && ctest --output-on-failure -j "${jobs}" -L serve)
  (cd build-tsan && ctest --output-on-failure -j "${jobs}" -L scale)
  (cd build-tsan && ctest --output-on-failure -j "${jobs}" \
    -R "Sharded|Queue|Ingest|Streaming")
}

case "${mode}" in
  asan) run_asan ;;
  tsan) run_tsan ;;
  all)  run_asan; run_tsan ;;
  *)    echo "usage: $0 [asan|tsan|all]" >&2; exit 2 ;;
esac
echo "sanitizer runs passed"
