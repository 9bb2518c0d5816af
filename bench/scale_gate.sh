#!/usr/bin/env bash
# Paper-scale regression gate (ISSUE 9).
#
# Builds bench/scale_bench at -O2 and runs the full two-week wild-ISP
# study once per population size in HAYSTACK_SCALE_SET (one process per
# size, so peak RSS is attributable). Each run's flows/sec and peak RSS
# are compared against the matching row of the committed
# BENCH_scale.json: a >5% throughput drop or a >10% peak-RSS growth
# fails the gate.
#
#   bench/scale_gate.sh                      # gate the default 1M point
#   HAYSTACK_SCALE_SET="1000000 5000000 15000000" \
#     BENCH_UPDATE=1 bench/scale_gate.sh     # re-measure all paper rows
#   HAYSTACK_SCALE_HOURS=48 bench/scale_gate.sh  # shorter study (not
#                                            # comparable to the baseline)
#
# BENCH_UPDATE=1 merges the fresh rows into BENCH_scale.json, keeping
# committed rows for sizes not re-measured — so the CI-speed 1M refresh
# never drops the expensive 5M/15M rows.
set -euo pipefail
cd "$(dirname "$0")/.."
jobs="$(nproc)"
hours="${HAYSTACK_SCALE_HOURS:-336}"
sizes="${HAYSTACK_SCALE_SET:-1000000}"

cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-bench -j "${jobs}" --target scale_bench >/dev/null

mkdir -p build-bench/scale
for n in ${sizes}; do
  echo "scale_bench: ${n} lines x ${hours} hours ..."
  HAYSTACK_LINES="${n}" HAYSTACK_SCALE_HOURS="${hours}" \
    ./build-bench/bench/scale_bench > "build-bench/scale/row_${n}.json"
done

BENCH_UPDATE="${BENCH_UPDATE:-0}" HAYSTACK_SCALE_SET="${sizes}" \
  HAYSTACK_SCALE_HOURS="${hours}" python3 - <<'PY'
import json
import os

sizes = os.environ["HAYSTACK_SCALE_SET"].split()
hours = int(os.environ["HAYSTACK_SCALE_HOURS"])
update = os.environ.get("BENCH_UPDATE", "0") == "1"

fresh = {}
for n in sizes:
    with open(f"build-bench/scale/row_{n}.json") as f:
        fresh[n] = json.load(f)

for n in sizes:
    row = fresh[n]
    print(f"  {int(n):>9,} lines: {row['flows_per_sec'] / 1e6:6.2f} M flows/s, "
          f"peak RSS {row['peak_rss_bytes'] / 2**20:8.1f} MiB, "
          f"evidence {row['evidence_entries']:,} entries "
          f"({row['evidence_bytes'] / 2**20:.1f} MiB), "
          f"median TTD {row['median_ttd_hours']} h")

path = "BENCH_scale.json"
baseline = {}
if os.path.exists(path):
    with open(path) as f:
        baseline = {str(r["lines"]): r for r in json.load(f)["rows"]}

failures = []
if baseline and not update:
    for n in sizes:
        base = baseline.get(n)
        if base is None or base.get("hours") != hours:
            print(f"  {int(n):>9,} lines: no comparable committed row, skipped")
            continue
        cur = fresh[n]
        dthr = (cur["flows_per_sec"] - base["flows_per_sec"]) \
            / base["flows_per_sec"]
        drss = (cur["peak_rss_bytes"] - base["peak_rss_bytes"]) \
            / base["peak_rss_bytes"]
        print(f"  vs committed /{n}: flows/s {dthr * 100:+.2f}%, "
              f"peak RSS {drss * 100:+.2f}%")
        if dthr < -0.05:
            failures.append(
                f"{n} lines: {cur['flows_per_sec'] / 1e6:.2f} M flows/s is "
                f"{-dthr * 100:.2f}% below the committed "
                f"{base['flows_per_sec'] / 1e6:.2f} M flows/s")
        if drss > 0.10:
            failures.append(
                f"{n} lines: peak RSS {cur['peak_rss_bytes'] / 2**20:.1f} MiB "
                f"is {drss * 100:.2f}% above the committed "
                f"{base['peak_rss_bytes'] / 2**20:.1f} MiB")

if update or not baseline:
    merged = dict(baseline)
    merged.update(fresh)
    out = {
        "schema": "haystack-scale-bench-v1",
        "metric": ("full wild-ISP study, one process per population size "
                   "at -O2; flows/sec over the detection loop, peak RSS "
                   "via getrusage"),
        "gate": ("scale_gate.sh fails on >5% flows/sec drop or >10% "
                 "peak-RSS growth vs these rows"),
        "rows": [merged[k] for k in sorted(merged, key=int)],
    }
    with open(path, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"wrote {path}")

if failures:
    raise SystemExit("FAIL: " + "; ".join(failures))
print("scale study within budget of the committed baseline")
PY
