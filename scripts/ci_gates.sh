#!/usr/bin/env bash
# Consolidated CI gate harness — every gate the workflow runs, runnable
# locally against any build directory:
#
#     scripts/ci_gates.sh [gate...]          # default: all gates, in order
#     BUILD_DIR=build-asan scripts/ci_gates.sh tier1 golden
#
# Gates:
#   tier1     ctest suite minus the golden label
#   golden    golden-reference fixtures (fig5/fig7 + ablation smoke)
#   ablation  topology-aware ablation smoke sweep produces a sane summary,
#             builds each of its traces exactly once and simulates each
#             distinct (trace, sim key) once
#   smoke     cold sweep simulates everything; warm re-run is 100% cache hits;
#             both write results JSON byte-identical to an uncached --jobs 1
#             run; a warm pruned re-run reads both stages from the cache and
#             counts each point once; a garbage --seed or --jobs value is a
#             usage error
#   service   the sweep service, the one way to spread a sweep over
#             processes: two concurrent --connect clients leasing fig7 smoke
#             jobs from one vcsteer-sweepd must emit results JSON
#             byte-identical to a --jobs 1 local run; a client SIGKILLed
#             mid-lease (VCSTEER_TEST_CRASH_AFTER) must have its expired
#             lease re-granted to another; a server SIGKILLed mid-sweep (via
#             its deterministic --crash-after-leases knob) then restarted
#             must still yield identical bytes, with the client's summary
#             recording the reconnect; and the daemon rejects garbage flag
#             values (scripts/service_crash_test.sh)
#   model     analytical estimator + pruned search: fig5/fig7 smoke with
#             --prune-model 999 must write results JSON byte-identical to
#             the plain runs (the model only reorders work), with model
#             rank agreement Spearman >= 0.9 and top-3 overlap >= 2 on
#             both grids; autotune_search --smoke must cover a >= 5520
#             point grid while simulating at most 20% of it and walking
#             the model for at most a ninth of it
#   observe   observer layer: a fig7 smoke sweep's --summary-json carries
#             per-phase timing spans and event counts, and the
#             pipeline_viewer's event counts reconcile exactly with the
#             simulator's own SimStats counters
#
# Performance is measured by perfbench (perfbench/README.md), not here.
#
# Assertions run against the benches' --summary-json documents (via
# scripts/assert_summary.py) rather than grepping stderr text, so a wording
# change can't silently turn a gate into a no-op.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
CTEST_JOBS="${CTEST_JOBS:-2}"

# Gate artifacts (summary/sweep JSON) land here; CI sets GATE_OUT to a
# workspace path so they can be uploaded when a gate fails.
if [[ -n "${GATE_OUT:-}" ]]; then
  mkdir -p "$GATE_OUT"
else
  GATE_OUT="$(mktemp -d)"
  trap 'rm -rf "$GATE_OUT"' EXIT
fi

assert_summary() {
  python3 "$ROOT/scripts/assert_summary.py" "$@"
}

build_type() {
  sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" \
      2>/dev/null || true
}

# Bench-running gates call this: debug asserts slow the sweeps several-fold.
warn_if_not_release() {
  local bt
  bt="$(build_type)"
  if [[ "$bt" != "Release" ]]; then
    echo "ci_gates: WARNING: benches running from a" \
         "'${bt:-unknown}' build dir ($BUILD_DIR), not Release;" \
         "sweeps run slower (use: cmake --preset release)" >&2
  fi
}

gate_tier1() {
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$CTEST_JOBS" -LE golden
}

gate_golden() {
  # Diffs the fig5/fig7 + ablation smoke sweeps against tests/golden
  # fixtures (VCSTEER_REGEN_GOLDEN=1 regenerates them; see README). The
  # produced JSON lands in $BUILD_DIR/golden_out/.
  ctest --test-dir "$BUILD_DIR" -L golden --output-on-failure
}

gate_observe() {
  warn_if_not_release
  # The summary of any sweep must break its wall clock into per-phase spans
  # and carry the event counters (experiments constructed, cycles simulated).
  "$BUILD_DIR/fig7_fourcluster" --smoke --jobs 2 \
    --summary-json "$GATE_OUT/observe_summary.json"
  assert_summary "$GATE_OUT/observe_summary.json" \
    'ok' 'events["experiments"] > 0' 'events["cycles"] > 0' \
    'phases["trace_build_s"] > 0' 'phases["simulate_s"] > 0' \
    'phases["warmup_s"] >= 0' 'phases["annotate_s"] >= 0' \
    'phases["cache_io_s"] >= 0'
  # The viewer runs a TimelineObserver core and exits non-zero when its
  # event counts disagree with SimStats; assert on the JSON too so the gate
  # does not depend on the exit-code plumbing alone.
  "$BUILD_DIR/pipeline_viewer" --trace 164.gzip-1 --scheme vc --clusters 4 \
    --uops 20000 --window 100:200 --quiet \
    --json "$GATE_OUT/observe_viewer.json"
  assert_summary "$GATE_OUT/observe_viewer.json" \
    'reconciled' 'dropped_events == 0' \
    'events["commits"] == stats["committed_uops"]' \
    'events["steers"] == stats["dispatched_uops"]' \
    'events["cycles"] == stats["cycles"]' \
    'events["copy_injects"] == stats["copies_routed"]' \
    'len(timeline) > 0'
}

gate_model() {
  warn_if_not_release
  # Two-stage pruned search must be invisible in the output: with a frontier
  # covering the whole grid (--prune-model 999) every point is simulated and
  # the results JSON must be byte-identical to the plain run — the model may
  # only ever *reorder* work, never change a simulated number. The same
  # summaries carry the model-vs-sim rank agreement over the simulated
  # frontier, the estimator's accuracy contract: Spearman >= 0.9 and at
  # least 2 of the top-3 configs shared on both figure grids.
  for fig in fig5_twocluster fig7_fourcluster; do
    "$BUILD_DIR/$fig" --smoke --jobs 2 \
      --json "$GATE_OUT/model_${fig}_plain.json"
    "$BUILD_DIR/$fig" --smoke --jobs 2 --prune-model 999 \
      --json "$GATE_OUT/model_${fig}_pruned.json" \
      --summary-json "$GATE_OUT/model_${fig}_summary.json"
    cmp "$GATE_OUT/model_${fig}_plain.json" \
        "$GATE_OUT/model_${fig}_pruned.json"
    assert_summary "$GATE_OUT/model_${fig}_summary.json" \
      'ok' 'sweep["simulated"] == sweep["points"]' \
      'model["estimated"] == sweep["points"]' \
      'model["spearman"] >= 0.9' 'model["top3_overlap"] >= 2'
  done
  # The autotune bench is the pruned search at its intended scale: a grid
  # an order of magnitude beyond any figure sweep (>= 5520 points, 10x the
  # 552-point ablation grid) of which the simulator sees at most 20%. Every
  # estimate either walked or reused an identical walk, and machines the
  # model cannot tell apart collapse: behind the 1-wide copy select no link
  # bandwidth binds, so at most a ninth of the points walk. Each trace runs
  # each distinct software-pass input once, for both stages: 2 traces x
  # (4 OB + 2 RHOP + 6 VC(2)) pass inputs (tests/harness_test.cpp
  # enumerates them over this grid), not one pass per grid point.
  "$BUILD_DIR/autotune_search" --smoke --jobs 2 \
    --summary-json "$GATE_OUT/model_autotune_summary.json"
  assert_summary "$GATE_OUT/model_autotune_summary.json" \
    'ok' 'sweep["points"] >= 5520' \
    'sweep["simulated"] * 5 <= sweep["points"]' \
    'model["estimated"] == sweep["points"]' \
    'model["pruned"] + sweep["simulated"] == sweep["points"]' \
    'model["walked"] + model["walks_reused"] == model["estimated"]' \
    'model["walked"] * 9 <= model["estimated"]' \
    'sweep["annotations"] == 24'
}

gate_ablation() {
  warn_if_not_release
  "$BUILD_DIR/ablation_interconnect" --smoke --jobs 2 \
    --json "$GATE_OUT/ablation_interconnect.json" \
    --summary-json "$GATE_OUT/ablation_summary.json"
  # Every machine of a sweep shares its traces: one build per grid trace.
  # Machines the simulator cannot tell apart share one simulation per
  # trace: the grid's 552 points hold 282 distinct (trace, sim key) pairs
  # (tests/harness_test.cpp enumerates them), so 270 points are served by
  # an identical simulation. They still count as simulated.
  assert_summary "$GATE_OUT/ablation_summary.json" \
    'ok' 'sweep["points"] == 552' 'sweep["simulated"] == sweep["points"]' \
    'sweep["sims_reused"] == sweep["points"] - 282' \
    'events["traces"] > 0' 'events["trace_builds"] == events["traces"]'
}

gate_smoke() {
  warn_if_not_release
  local cache="$GATE_OUT/smoke-cache"
  rm -rf "$cache"
  "$BUILD_DIR/fig5_twocluster" --smoke --jobs 2 --cache-dir "$cache" \
    --json "$GATE_OUT/smoke_cold_results.json" \
    --summary-json "$GATE_OUT/smoke_cold.json"
  assert_summary "$GATE_OUT/smoke_cold.json" \
    'ok' 'sweep["cache_hits"] == 0' 'sweep["simulated"] == sweep["points"]'
  # Warm re-run must serve every point from the cache.
  "$BUILD_DIR/fig5_twocluster" --smoke --jobs 2 --cache-dir "$cache" \
    --json "$GATE_OUT/smoke_warm_results.json" \
    --summary-json "$GATE_OUT/smoke_warm.json"
  assert_summary "$GATE_OUT/smoke_warm.json" \
    'ok' 'sweep["simulated"] == 0' \
    'sweep["cache_hits"] == sweep["points"]' \
    'sweep["corrupt_recovered"] == 0'
  # The results are a pure function of the grid: an uncached serial run,
  # the cold parallel run and the cache round trip write the same bytes.
  "$BUILD_DIR/fig5_twocluster" --smoke --jobs 1 \
    --json "$GATE_OUT/smoke_serial_results.json" > /dev/null
  cmp "$GATE_OUT/smoke_serial_results.json" "$GATE_OUT/smoke_cold_results.json"
  cmp "$GATE_OUT/smoke_serial_results.json" "$GATE_OUT/smoke_warm_results.json"
  # A pruned search caches both stages: the first pruned run adds the
  # model's estimates, the re-run reads both stages and walks nothing. Each
  # point counts once, as a simulation, a cache hit or a pruned point.
  local pruned
  for pruned in cold warm; do
    "$BUILD_DIR/fig5_twocluster" --smoke --jobs 2 --cache-dir "$cache" \
      --prune-model 3 --summary-json "$GATE_OUT/smoke_pruned_$pruned.json" \
      > /dev/null
    assert_summary "$GATE_OUT/smoke_pruned_$pruned.json" \
      'ok' 'sweep["simulated"] == 0' \
      'sweep["simulated"] + sweep["cache_hits"] + model["pruned"] == sweep["points"]'
  done
  assert_summary "$GATE_OUT/smoke_pruned_warm.json" 'model["walked"] == 0'
  # A garbage seed or job count must be a usage error (exit 2), not a
  # silent --seed 0 or serial run.
  local bad status
  for bad in "--seed abc" "--jobs abc" "--jobs 4x"; do
    status=0
    # shellcheck disable=SC2086  # $bad is a flag and its value
    "$BUILD_DIR/fig5_twocluster" --smoke $bad > /dev/null 2>&1 || status=$?
    if [[ "$status" -ne 2 ]]; then
      echo "fig5_twocluster $bad: expected exit 2, got $status" >&2
      return 1
    fi
  done
}

gate_service() {
  warn_if_not_release
  bash "$ROOT/scripts/service_crash_test.sh" \
    "$BUILD_DIR/fig7_fourcluster" "$BUILD_DIR/vcsteer-sweepd"
}

ALL_GATES=(tier1 golden ablation smoke service observe model)
if [[ $# -eq 0 ]]; then
  GATES=("${ALL_GATES[@]}")
else
  GATES=("$@")
fi
for gate in "${GATES[@]}"; do
  if ! declare -F "gate_$gate" > /dev/null; then
    echo "ci_gates: unknown gate '$gate' (known: ${ALL_GATES[*]})" >&2
    exit 2
  fi
done
for gate in "${GATES[@]}"; do
  echo "=== gate: $gate ==="
  "gate_$gate"
  echo "=== gate: $gate OK ==="
done
