#!/usr/bin/env bash
# Check every pinned outcome in one pass: regenerate every committed
# BENCH_*.json at the arguments it was recorded with and bench_diff each
# against the committed file, at the threshold its gate has always used;
# then run the repository benchmark's digest self-test and the pinned
# telemetry-export hash test. Every check runs, each under its own "=="
# header, so one pass shows everything that moved; the script exits 1 if
# any baseline drifted, a digest or the export hash moved, or a bench
# failed, and 0 when every pinned outcome holds.
#
#   tools/check_baselines.sh <build-dir> [out-dir]
#
# <build-dir> holds the built benches (bench/), tools/bench_diff and
# tests/test_obs; the regenerated reports go to [out-dir] (default
# <build-dir>/bench-regen) as <name>-regen.json. What is held, and how
# tightly:
#   - the paper figures (fig7–10), the two DES baselines (restoration
#     time, chaos recovery) and the ten extension benches: seeded and
#     thread-count deterministic, so any drift past 1% means the model
#     changed, not the machine;
#   - sim_core: only the wheel/reference speedup ratios, which are
#     machine-independent but noisy, within a 50% band;
#   - the scale smoke: every det_* series exactly, at 1 worker against
#     BENCH_scale-smoke.json and at 4 workers against the 1-worker run;
#   - perf/run.py's EXPECTED_DIGESTS, through python3 perf/selftest.py
#     (every workload at tiny size, on 1 and 3 workers; it builds its own
#     binary into .bench_build/);
#   - the chaos soak's telemetry export, whose line count and FNV-1a hash
#     TelemetrySoak.AttachedSoakExportIsPinned holds.
set -u

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <build-dir> [out-dir]" >&2
  exit 2
fi
build=$1
out=${2:-$build/bench-regen}
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$out"

failed=0

# regen <name> <bench> [args...]: run bench/<bench> into <name>-regen.json.
regen() {
  local name=$1 bench=$2
  shift 2
  if ! "$build/bench/$bench" "$@" --json "$out/$name-regen.json" > /dev/null
  then
    echo "check_baselines: $bench $* failed" >&2
    failed=1
    return 1
  fi
}

# check <baseline.json> <candidate.json> [bench_diff flags...]
check() {
  local base=$1 cand=$2
  shift 2
  echo "== $(basename "$cand") vs $(basename "$base")"
  "$build/tools/bench_diff" "$@" "$base" "$cand" || failed=1
}

regen fig7 bench_fig7_local_vs_global --seed 20050628 &&
  check "$root/BENCH_fig7.json" "$out/fig7-regen.json" --threshold 0.01
for fig in fig8:bench_fig8_dthresh fig9:bench_fig9_alpha \
           fig10:bench_fig10_group_size; do
  name=${fig%%:*}
  regen "$name" "${fig#*:}" --trials 100 --seed 20050628 &&
    check "$root/BENCH_$name.json" "$out/$name-regen.json" --threshold 0.01
done

for name in restoration-time chaos-recovery hier-recovery node-failure \
            failure-sequence redundant-trees topology-models \
            ablation-graft-mode ablation-local-on-spf ablation-query \
            ablation-reshaping ablation-steiner; do
  regen "$name" "bench_${name//-/_}" &&
    check "$root/BENCH_$name.json" "$out/$name-regen.json" --threshold 0.01
done

regen sim_core bench_sim_core --trials 3 --threads 1 &&
  check "$root/BENCH_sim_core.json" "$out/sim_core-regen.json" \
    --threshold 0.5 --series '*/speedup'

regen scale-smoke bench_scale --smoke &&
  check "$root/BENCH_scale-smoke.json" "$out/scale-smoke-regen.json" \
    --threshold 0.01 --series '*/det_*'
regen scale-smoke-workers4 bench_scale --smoke --workers 4 &&
  check "$out/scale-smoke-regen.json" "$out/scale-smoke-workers4-regen.json" \
    --threshold 0.000001 --series '*/det_*'

echo "== perf/selftest.py (benchmark outcome digests)"
python3 "$root/perf/selftest.py" || failed=1

echo "== TelemetrySoak.AttachedSoakExportIsPinned (soak export hash)"
"$build/tests/test_obs" \
  --gtest_filter=TelemetrySoak.AttachedSoakExportIsPinned || failed=1

if [ "$failed" -ne 0 ]; then
  echo "check_baselines: drift (see the DRIFT tables and failures above)" >&2
  exit 1
fi
echo "check_baselines: every pinned outcome holds"
