#!/usr/bin/env python3
"""End-to-end benchmark runner for the haystack detection pipeline.

Builds the benchmark program (perfbench/haystack_bench.cpp) in Release under
.bench_build/, runs workloads, prints every metric with its unit, checks
correctness, and compares two sets of runs. Run from the repository root:

  python3 perfbench/benchmark.py                      # all workloads, seed 42
  python3 perfbench/benchmark.py --workload wire --seed 7 --seconds 20
  python3 perfbench/benchmark.py --trace              # per-layer table too
  python3 perfbench/benchmark.py --seeds 1-10 --out runs/a
  python3 perfbench/benchmark.py compare runs/a runs/b
  python3 perfbench/benchmark.py smoke [--binary PATH]

The last line of standard output is one JSON object: for a single run,
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(or, with --trace 1, the per-layer metrics) of BENCHMARK.json. The exit
status is non-zero when a run is incorrect (digest mismatch, a failed
operation, a failed check) and, in compare mode, on any regression.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "haystack_bench"
WORKLOADS = ("study", "wire", "serve")
DEFAULT_SEED = 42
RUN_TIMEOUT_S = 175
# Largest share of the serial replay's wall time its layer spans may leave
# unattributed ("the layers add up"). Below MIN_SERIAL_S of replay the
# share is dominated by timer granularity and is only reported.
MAX_UNATTRIBUTED = 0.05
MIN_SERIAL_S = 0.5
# Stamp fields that must agree before two run sets are compared: the
# hardware and build across all runs, and the run settings per workload.
STAMP_KEYS = ("nproc", "cpu_model", "caches", "compiler", "build_type")
SETTING_KEYS = ("seconds", "lines", "hours")


def fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    return spec, expected


# --- build ----------------------------------------------------------------


def build():
    """Configures (once) and builds haystack_bench in Release; output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "haystack_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


# --- hardware and build stamp ----------------------------------------------


def read(path, default=""):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def stamp(out):
    """Hardware, build and run settings of one haystack_bench output."""
    cpu_model = platform.processor() or "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append("L{}{}:{}".format(read(index / "level"),
                                        read(index / "type")[:1].lower(),
                                        read(index / "size")))
    commit = "none"
    if (ROOT / ".git").exists():
        git = lambda *a: subprocess.run(["git", "-C", str(ROOT), *a],
                                        capture_output=True, text=True).stdout
        commit = git("rev-parse", "HEAD").strip() or "none"
        if git("status", "--porcelain", "--untracked-files=no").strip():
            commit += "+dirty"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": " ".join(caches),
        "compiler": out["build"]["compiler"],
        "build_type": out["build"]["build_type"],
        "commit": commit,
        "seed": out["seed"],
        **{k: out[k] for k in SETTING_KEYS},
    }


# --- trace analysis ---------------------------------------------------------


def analyze_trace(path):
    """Self time per (layer, run) and the span-derived per-layer metrics."""
    trace = json.loads(Path(path).read_text())
    layers, runs, spans = trace["layers"], trace["runs"], trace["spans"]
    child_time = [0] * len(spans)
    for layer, run, parent, start, end, items in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by = defaultdict(lambda: {"calls": 0, "dur": 0, "self": 0, "items": 0,
                              "durs": []})
    for i, (layer, run, parent, start, end, items) in enumerate(spans):
        row = by[(layers[layer], runs[run])]
        row["calls"] += 1
        row["dur"] += end - start
        row["self"] += end - start - child_time[i]
        row["items"] += items
        row["durs"].append(end - start)

    def rows(layer, run_filter):
        return [v for (l, r), v in by.items() if l == layer and run_filter(r)]

    def total(layer, key, run_filter=lambda r: True):
        return sum(v[key] for v in rows(layer, run_filter))

    def per_flow_ns(layer, run_filter=lambda r: True):
        items = total(layer, "items", run_filter)
        return total(layer, "self", run_filter) / items if items else 0.0

    def median_ns(layer):
        durs = [d for v in rows(layer, lambda r: r == "pipelined") for d in v["durs"]]
        return statistics.median(durs) if durs else 0.0

    not_serial = lambda r: r != "serial"
    serial = lambda r: r == "serial"
    pipelined = lambda r: r == "pipelined"
    pass_ns = total("pipeline.pass", "dur", pipelined)
    passes = max(1, total("pipeline.pass", "calls", pipelined))
    root_dur = total("serial", "dur")
    root_self = total("serial", "self")
    metrics = {
        # One set-up (wire, serve) or one timed pass (study).
        "simnet.generate_self_s":
            (total("simnet.generate", "self", lambda r: r == "setup")
             + total("simnet.generate", "self", pipelined) / passes) / 1e9,
        "simnet.generate_ns_per_flow": per_flow_ns("simnet.generate", not_serial),
        "telemetry.export_ns_per_flow": per_flow_ns("telemetry.export"),
        "flow.decode_ns_per_flow": per_flow_ns("flow.decode", serial),
        "pipeline.normalize_ns_per_flow": per_flow_ns("pipeline.normalize", serial),
        "core.sig_of_ns_per_flow": per_flow_ns("core.sig_of", serial),
        "core.detect_ns_per_flow": per_flow_ns("core.detect", serial),
        "pipeline.push_blocked_share":
            total("pipeline.push", "dur", pipelined) / pass_ns if pass_ns else 0.0,
        "pipeline.drain_ms": median_ns("pipeline.drain") / 1e6,
        "core.checkpoint_save_ms": median_ns("core.checkpoint_save") / 1e6,
        "core.checkpoint_restore_ms": median_ns("core.checkpoint_restore") / 1e6,
        "serve.snapshot_call_us": median_ns("serve.snapshot") / 1e3,
        "serve.fresh_snapshot_ms": median_ns("serve.fresh_snapshot") / 1e6,
        "serve.service_counts_ms": median_ns("serve.service_counts") / 1e6,
        "trace.unattributed_share": root_self / root_dur if root_dur else 0.0,
    }
    run_wall = {"setup": total("setup", "dur"),
                "pipelined": total("pipelined", "dur"), "serial": root_dur}
    table = []
    for (layer, run), v in sorted(by.items(), key=lambda kv: (kv[0][1], -kv[1]["self"])):
        wall = run_wall.get(run) or 0
        table.append((run, layer, v["calls"], v["self"] / 1e9,
                      v["self"] / wall if wall else 0.0, v["items"]))
    return metrics, table, root_dur / 1e9


# --- one run ----------------------------------------------------------------


def run_bench(binary, workload, seed, seconds, trace_path=None, extra=()):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), *extra]
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} seed {seed}: haystack_bench exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(spec, expected, workload, seed, seconds, trace):
    """Runs one workload once; returns the run record."""
    trace_path = BUILD / f"trace_{workload}.json" if trace else None
    out = run_bench(BINARY, workload, seed, seconds, trace_path)
    checks = dict(out["checks"])
    if seed == expected["seed"]:
        # The default seed's digest must be pinned, at these sizes.
        pinned = expected["digests"].get(workload, {})
        checks["digest_pinned"] = pinned == {
            "lines": out["lines"], "hours": out["hours"], "digest": out["digest"]}
    source = dict(out["metrics"])
    table = []
    if trace:
        span_metrics, table, serial_s = analyze_trace(trace_path)
        source = dict(out["layers"], **span_metrics)
        if serial_s >= MIN_SERIAL_S:
            checks["layers_add_up"] = (
                span_metrics["trace.unattributed_share"] <= MAX_UNATTRIBUTED)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        fail(f"{workload}: haystack_bench reported no {', '.join(missing)}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = out["correct"] and all(checks.values()) and out["failed"] == 0
    return {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "stamp": stamp(out),
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "checks": checks,
        "metrics": metrics,
        "bench": out,
        "self_time": table,
    }


def print_run(record):
    d = record["bench"]
    m = d["metrics"]
    print(f"{record['workload']}  seed {record['seed']}  "
          f"({d['lines']:,} lines x {d['hours']} h, "
          f"{d['flows_per_pass']:,} flows/pass, {d['passes']} timed passes, "
          f"{int(m['setups'])} set-ups)  digest {d['digest']}  "
          f"{'correct' if record['correct'] else 'INCORRECT'}")
    for name, v in record["metrics"].items():
        extra = ""
        if name == "flows_per_s":
            extra = f"   (passes q1 {m['flows_per_s_q1']:.6g}, q3 {m['flows_per_s_q3']:.6g})"
        print(f"  {name:36s} {v['value']:>16.6g} {v['unit']}{extra}")
    if "live_queries" in m and not record["trace"]:
        # serve's query latencies are per-layer metrics (README.md); shown
        # here because the untraced run measures them too.
        layers = d["layers"]
        print(f"  queries: {int(m['live_queries']):,} live, "
              f"{int(m['fresh_queries']):,} fresh; live p50/p99 "
              f"{layers['serve.live_query_p50_us']:.4g}/"
              f"{layers['serve.live_query_p99_us']:.4g} us, fresh p50/p99 "
              f"{layers['serve.fresh_query_p50_ms']:.4g}/"
              f"{layers['serve.fresh_query_p99_ms']:.4g} ms, staleness p99 "
              f"{layers['serve.live_staleness_p99_ms']:.4g} ms")
    bad = [k for k, ok in record["checks"].items() if not ok]
    if bad or record["failed"]:
        print(f"  FAILED checks: {', '.join(bad) or '-'}; failed operations: "
              f"{record['failed']} of {record['attempted']}")
    if record["self_time"]:
        print(f"  {'run':10s} {'layer':26s} {'calls':>8s} {'self s':>9s} "
              f"{'of run':>7s} {'items':>12s}")
        for run, layer, calls, self_s, share, items in record["self_time"]:
            print(f"  {run:10s} {layer:26s} {calls:8d} {self_s:9.3f} "
                  f"{share:7.1%} {items:12d}")
    print(flush=True)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_run(argv):
    spec, expected = load_spec()
    p = argparse.ArgumentParser(prog="benchmark.py")
    p.add_argument("--workload", default=",".join(WORKLOADS),
                   help="comma-separated subset of " + ", ".join(WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seeds", help="list or ranges, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1))
    p.add_argument("--out", type=Path, help="directory for run records")
    p.add_argument("--reverse", action="store_true",
                   help="start the alternating workload order reversed")
    args = p.parse_args(argv)
    workloads = args.workload.split(",")
    if any(w not in WORKLOADS for w in workloads):
        fail(f"unknown workload in {args.workload!r}")
    seeds = (parse_seeds(args.seeds) if args.seeds
             else [args.seed if args.seed is not None else DEFAULT_SEED])
    build()
    records = []
    for i, seed in enumerate(seeds):
        # Alternate the workload order from seed to seed, so no workload
        # always runs first (or right after the same neighbour).
        order = workloads[::-1] if (i % 2 == 1) != args.reverse else workloads
        for workload in order:
            record = measure(spec, expected, workload, seed, args.seconds,
                             args.trace)
            print_run(record)
            records.append(record)
            if args.out:
                args.out.mkdir(parents=True, exist_ok=True)
                name = f"{workload}-seed{seed}{'-trace' if args.trace else ''}.json"
                (args.out / name).write_text(json.dumps(record, indent=1) + "\n")
    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.seed{r['seed']}.{k}": v
                   for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


# --- compare ----------------------------------------------------------------


def load_records(path):
    """Run records from a --out directory, or a JSON list of them."""
    if path.is_dir():
        records = [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))]
    else:
        records = json.loads(path.read_text())
    records = [r for r in records if not r.get("trace")]
    if not records:
        fail(f"no untraced run records in {path}")
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, base, cand):
    """ok / regressed / improved / unresolved for one workload x metric."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b = [r["value"] for r in base]
    c = [r["value"] for r in cand]
    bq1, bmed, bq3 = quartiles(b)
    cq1, cmed, cq3 = quartiles(c)
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    worse_by = ((cmed - bmed) if lower else (bmed - cmed)) / bmed if bmed else 0.0
    spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                 (cq3 - cq1) / cmed if cmed else 0.0)
    every_better = all(better(x, y) for x in c for y in b)
    # Paired wins: runs of the same seed (else the same position) compared;
    # ties count for neither side.
    pairs = [(x["value"], y["value"]) for x, y in zip(base, cand)]
    wins = sum(1 for x, y in pairs if better(y, x))
    if spread > bound and not every_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "regressed"
    elif (pairs and wins >= 0.9 * len(pairs) and better(cmed, bmed)
          and abs(cmed - bmed) > (bq3 - bq1)):
        result = "improved"
    else:
        result = "ok"
    return result, (bq1, bmed, bq3), (cq1, cmed, cq3), worse_by, spread, wins, len(pairs)


def cmd_compare(argv):
    spec, _ = load_spec()
    p = argparse.ArgumentParser(prog="benchmark.py compare")
    p.add_argument("base", type=Path)
    p.add_argument("cand", type=Path)
    args = p.parse_args(argv)
    base, cand = load_records(args.base), load_records(args.cand)
    # One hardware and build stamp for all runs, and one set of run
    # settings per workload: runs of different sizes or lengths measure
    # different things.
    must_agree = [(STAMP_KEYS, base + cand)] + [
        (SETTING_KEYS, [r for r in base + cand if r["workload"] == w])
        for w in WORKLOADS]
    for keys, runs in must_agree:
        stamps = {tuple((k, r["stamp"].get(k)) for k in keys) for r in runs}
        if len(stamps) > 1:
            print("refusing to compare: run stamps differ", file=sys.stderr)
            for s in sorted(stamps, key=str):
                print("  " + ", ".join(f"{k}={v}" for k, v in s), file=sys.stderr)
            return 2
    incorrect = [f"{r['workload']} seed {r['seed']}" for r in base + cand
                 if not r["correct"] or r["failed"]]
    regressed = False
    print(f"{'workload':8s} {'metric':22s} {'base q1/med/q3':>32s} "
          f"{'cand q1/med/q3':>32s} {'worse':>7s} {'spread':>7s} {'bound':>6s} "
          f"{'wins':>6s}  verdict")
    for workload in WORKLOADS:
        b_runs = sorted((r for r in base if r["workload"] == workload),
                        key=lambda r: r["seed"])
        c_runs = sorted((r for r in cand if r["workload"] == workload),
                        key=lambda r: r["seed"])
        if not b_runs or not c_runs:
            continue
        if [r["seed"] for r in b_runs] != [r["seed"] for r in c_runs]:
            print(f"note: {workload} seeds differ between sets; pairing by position")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            result, bq, cq, worse_by, spread, wins, pairs = verdict(
                metric, [r["metrics"][name] for r in b_runs],
                [r["metrics"][name] for r in c_runs])
            regressed = regressed or result == "regressed"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:8s} {name:22s} {fmt(bq):>32s} {fmt(cq):>32s} "
                  f"{worse_by:+7.1%} {spread:7.1%} {metric['bound']:6.0%} "
                  f"{wins:>3d}/{pairs:<2d}  {result}")
    if incorrect:
        print("incorrect runs: " + ", ".join(incorrect))
    return 1 if regressed or incorrect else 0


# --- smoke ------------------------------------------------------------------


def cmd_smoke(argv):
    """Toy-sized traced run of every workload: zero failures, every check
    holds, and the final evidence equals a single-threaded replay's."""
    p = argparse.ArgumentParser(prog="benchmark.py smoke")
    p.add_argument("--binary", type=Path)
    args = p.parse_args(argv)
    binary = args.binary
    if binary is None:
        build()
        binary = BINARY
    toy = ["--lines", "2000", "--hours", "4"]
    ok = True
    started = time.monotonic()
    with tempfile.TemporaryDirectory(dir=binary.parent) as tmp:
        for workload in WORKLOADS:
            trace = Path(tmp) / f"trace_{workload}.json"
            # 0.1 s: the traced half of serve sends about 50 queries.
            out = run_bench(binary, workload, 1, 0.1, trace, toy)
            analyze_trace(trace)  # the trace must parse and nest
            problems = [k for k, v in out["checks"].items() if not v]
            if "digest_matches_serial" not in out["checks"]:
                problems.append("digest_matches_serial missing")
            if out["failed"] or not out["correct"] or problems:
                ok = False
            print(f"{workload}: attempted {out['attempted']}, failed "
                  f"{out['failed']}, digest {out['digest']}, "
                  f"{'ok' if not problems else 'FAILED ' + ', '.join(problems)}")
    print(f"smoke {'passed' if ok else 'FAILED'} in {time.monotonic() - started:.1f} s")
    return 0 if ok else 1


def main(argv):
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    if argv and argv[0] == "smoke":
        return cmd_smoke(argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
