#!/usr/bin/env python3
"""Self-test of the repository benchmark; runs in well under a minute.

    python3 perf/selftest.py

Runs every workload at the tiny size through perf/run.py, untraced and
traced, and checks that
  * the last stdout line has exactly the keys correct/attempted/failed/metrics,
  * every end-to-end metric of BENCHMARK.json is emitted with its unit, and
    every per-layer metric is emitted, with its unit, by each workload that
    perf/metrics.json says exercises its layer,
  * the digests match the recorded ones (run.py fails the run otherwise),
  * no digest depends on the worker count,
  * run.py fails without a result where the program sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perf/run.py"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perf" / "metrics.json").read_text())


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(workload, trace):
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(last)}")
    if last["correct"] is not True or last["attempted"] < 1:
        fail(f"{workload}: correct={last['correct']} attempted={last['attempted']}")
    return last


def check_units(workload, metrics, specs):
    for spec in specs:
        got = metrics.get(spec["name"])
        if got is None:
            fail(f"{workload}: missing {spec['name']}")
        if got["unit"] != spec["unit"]:
            fail(f"{workload}: {spec['name']} unit {got['unit']} != {spec['unit']}")
    if len(metrics) != len(specs):
        fail(f"{workload}: {len(metrics)} metrics, BENCHMARK.json lists {len(specs)}")


def main():
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain = run(workload, 0)
        check_units(workload, plain["metrics"], SPEC["end_to_end"])
        traced = run(workload, 1)
        check_units(workload, traced["metrics"], SPEC["per_layer"])
        # run.py zero-fills layers a workload does not exercise; the layers
        # it does exercise must come from the workload itself.
        record = json.loads((ROOT / ".bench_build" / "results" /
                             f"{workload}-seed1-trace1.json").read_text())
        emitted = dict(record["runs"]["traced"]["metrics"])
        emitted.update(record["runs"]["untraced"]["metrics"])
        emitted["trace.overhead_pct"] = {"unit": "%"}
        for m in LAYERS["per_layer"]:
            if workload in m["workloads"]:
                got = emitted.get(m["name"])
                if got is None or got["unit"] != units[m["name"]]:
                    fail(f"{workload}: per-layer {m['name']} not emitted")
        print(f"ok  {workload}: {len(plain['metrics'])} end-to-end, "
              f"{len(traced['metrics'])} per-layer metrics, digest matches")

    binary = ROOT / ".bench_build" / "perf" / "smrp_perf"
    for workload in (w["name"] for w in SPEC["workloads"]):
        digests = set()
        for workers in (1, 3):
            out = subprocess.run(
                [str(binary), "--workload", workload, "--seed", "7",
                 "--seconds", "0.2", "--size", "tiny", "--workers",
                 str(workers)], capture_output=True, text=True, check=True)
            digests.add(json.loads(out.stdout.splitlines()[-1])["digest"])
        if len(digests) != 1:
            fail(f"{workload} digest depends on the worker count: {digests}")
    print("ok  every digest is the same on 1 and 3 workers")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perf", bare / "perf")
    proc = subprocess.run(RUN + ["--workload", "smrp_join", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py without program sources did not fail cleanly")
    print("ok  without program sources run.py exits "
          f"{proc.returncode} and prints nothing")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
