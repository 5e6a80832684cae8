#!/usr/bin/env python3
"""Repository benchmark: build smrp_perf from source, run one workload, check it.

Usage (from the repository root):

    python3 perf/run.py --workload smrp_join --seed 1 --seconds 25 --trace 0

--trace 0 runs the workload once and reports every end-to-end metric that
BENCHMARK.json lists. --trace 1 runs it twice in fresh processes, untraced
and then under the span tracer, for half of --seconds each, prints both
runs' end-to-end metrics side by side (the difference is the tracing
overhead) and reports every per-layer metric. Per-layer metrics of a layer
the workload does not exercise read 0.

The last stdout line is one JSON object:
    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
A run whose correctness gate fails exits non-zero without printing it.
Each run also writes a stamped result file under .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perf"
BINARY = BUILD / "smrp_perf"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("smrp_join", "smrp_repair", "spf_scale", "chaos_soak")
MAX_WORKERS = 4

# Digests of the default seed. A change that alters any selection, repair
# or protocol outcome changes the digest and fails the run; regenerate these
# only when such a change is intended (perf/README.md says how).
DEFAULT_SEED = 1
EXPECTED_DIGESTS = {
    "full": {
        "smrp_join": "c4e43c64a67b0661",
        "smrp_repair": "2341f9cc1c8a7b97",
        "spf_scale": "013a8fd5cdeda61f",
        "chaos_soak": "c9ed8f0df015ad02",
    },
    "tiny": {
        "smrp_join": "4d7db660e48acb90",
        "smrp_repair": "7d6303a80ef51ee3",
        "spf_scale": "4188deddb8595d81",
        "chaos_soak": "f47d32b7b57ba8c9",
    },
}

# Each workload's end-to-end metrics under the names perf/README.md gives
# them (alias: metric smrp_perf emits), printed in the summary next to the
# workload-neutral names BENCHMARK.json gates.
ALIASES = {
    "smrp_join": {"join_per_s": "ops_per_s", "join_p50_us": "op_p50_us",
                  "join_p99_us": "op_p99_us", "failed_share": "failed_share"},
    "smrp_repair": {"repair_p50_us": "op_p50_us", "repair_p99_us": "op_p99_us",
                    "failed_share": "failed_share"},
    "spf_scale": {"join_per_s": "ops_per_s", "op_p99_us": "op_p99_us",
                  "failed_share": "failed_share"},
    "chaos_soak": {"sim_x_realtime": "sim_x_realtime", "op_p99_us": "op_p99_us",
                   "failed_share": "failed_share"},
}


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perf] {msg}", file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure (once) and build smrp_perf in the checkout."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no program sources under {ROOT / 'src'}")
    jobs = str(min(MAX_WORKERS, nproc()))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perf"), "-B", str(BUILD),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    if not BINARY.is_file():
        raise BenchError(f"build produced no {BINARY}")


def cache_value(key):
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def source_digest():
    """SHA-256 over the program and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perf"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(args, workers, load_1m):
    commit = None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=10)
        compiler = out.stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError, TypeError):
        pass
    return {
        "commit": commit,
        "source_digest": source_digest(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "compiler": compiler,
        "nproc": nproc(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "workers": workers,
        "loadavg_1m_at_start": load_1m,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_binary(args, workers, trace, trace_out=None):
    # A traced run splits its budget between the untraced and traced twins.
    seconds = args.seconds / 2 if args.trace else args.seconds
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", args.size, "--workers", str(workers)]
    if args.trace:
        # The traced run drives the workload from one thread, and so does
        # its untraced twin, so the two differ by the tracing alone.
        cmd += ["--op-workers", "1"]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"smrp_perf exited with {proc.returncode}")
    return json.loads(lines[-1])


def check(result, args):
    """The correctness gate beyond what smrp_perf checks itself (every final
    tree validated): the first round's digest for the default seed."""
    if result["attempted"] < 1:
        raise BenchError("no operation was attempted")
    if args.seed == DEFAULT_SEED:
        want = EXPECTED_DIGESTS[args.size][args.workload]
        if result["digest"] != want:
            raise BenchError(
                f"digest {result['digest']} != recorded {want} for seed "
                f"{DEFAULT_SEED} ({args.size}): outputs changed; fields "
                f"{json.dumps(result['digest_fields'])}")


def select(values, specs, fill_missing):
    out = {}
    for spec in specs:
        name = spec["name"]
        if name in values:
            out[name] = {"value": values[name]["value"], "unit": spec["unit"]}
            if values[name]["unit"] != spec["unit"]:
                raise BenchError(f"{name}: unit {values[name]['unit']} "
                                 f"!= {spec['unit']}")
        elif fill_missing:
            out[name] = {"value": 0.0, "unit": spec["unit"]}
        else:
            raise BenchError(f"workload emitted no {name}")
    return out


def fmt(v):
    return f"{v:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test size, seconds to run")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_1m = os.getloadavg()[0]
    build()
    workers = min(MAX_WORKERS, nproc())
    info = stamp(args, workers, load_1m)

    plain = run_binary(args, workers, 0)
    check(plain, args)
    runs = {"untraced": plain}
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        span_file = traces / f"{args.workload}-seed{args.seed}.spans.tsv"
        traced = run_binary(args, workers, 1, span_file)
        check(traced, args)
        if traced["digest"] != plain["digest"]:
            raise BenchError("traced run produced a different digest")
        runs["traced"] = traced
        info["span_file"] = str(span_file.relative_to(ROOT))

    # Human-readable summary: end-to-end metrics (issue names too), and for
    # a traced run the untraced and traced values side by side.
    names = {m["name"]: m["name"] for m in spec["end_to_end"]}
    names.update(ALIASES[args.workload])
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"workers {workers} rounds {plain['rounds']} digest {plain['digest']}")
    for label, name in names.items():
        row = [f"  {label:<16}"]
        for kind, res in runs.items():
            m = res["metrics"][name]
            row.append(f"{kind} {fmt(m['value'])} {m['unit']}")
        print("  ".join(row))

    if args.trace:
        traced = runs["traced"]
        metrics = dict(traced["metrics"])
        # Oracle counters come from the untraced run: the traced run's extra
        # select_join_path calls add lookups of their own.
        for name, m in plain["metrics"].items():
            if name.startswith("net.oracle."):
                metrics[name] = m
        base = plain["metrics"]["ops_per_s"]["value"]
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (1.0 - traced["metrics"]["ops_per_s"]["value"] / base)
            if base > 0 else 0.0, "unit": "%"}
        chosen = select(metrics, spec["per_layer"], fill_missing=True)
        for name, m in chosen.items():
            mark = "" if name in metrics else "  (layer not exercised)"
            print(f"  {name:<36} {fmt(m['value'])} {m['unit']}{mark}")
        result = traced
    else:
        chosen = select(plain["metrics"], spec["end_to_end"], fill_missing=False)
        result = plain

    results = ROOT / ".bench_build" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(info, correct=True, attempted=result["attempted"],
                  failed=result["failed"], metrics=chosen, runs=runs)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  result file {out.relative_to(ROOT)}  load(1m) at start {load_1m:.2f}")
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": chosen}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)
