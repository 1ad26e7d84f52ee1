#!/usr/bin/env bash
# bench_window.sh — partition-parallel Window operator scaling profile.
#
# Runs rfbench's window experiment (64 partitions x 500 rows, workers 1/2/4,
# medians over 5 trials, results cross-checked against the sequential run)
# and records the JSON report in BENCH_window.json next to this script's
# repo root. On a single-core host the report documents the serial cap
# instead of a speedup — see the "note" field.
#
# Usage: scripts/bench_window.sh [-quick]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

ARGS=()
if [[ "${1:-}" == "-quick" ]]; then
  ARGS+=(-quick)
fi

go run ./cmd/rfbench -exp window -json "${ARGS[@]}" > "$ROOT/BENCH_window.json"

echo "wrote $ROOT/BENCH_window.json" >&2
python3 - "$ROOT/BENCH_window.json" <<'PY' >&2
import json, sys
d = json.load(open(sys.argv[1]))
meds = {r["workers"]: r["median_ms"] for r in d["runs"]}
allocs = {r["workers"]: r.get("allocs_per_op") for r in d["runs"]}
print("median ms by workers:", meds,
      "| best:", d.get("best_workers"),
      "| speedup vs sequential:", d.get("speedup_best_vs_sequential"))
print("allocs/op by workers:", allocs,
      "| b/op by workers:", {r["workers"]: r.get("b_per_op") for r in d["runs"]})
if "spill" in d:
    s = d["spill"]
    print("spill (workers=1, tiny budget): median ms", s["median_ms"],
          "| runs", s["spill_runs"], "| bytes", s["spill_bytes"],
          "| slowdown vs in-memory:", s.get("slowdown_vs_in_memory"))
if "multi_function" in d:
    print("multi-function grid (shared vs unshared class sorts):")
    for r in d["multi_function"]["runs"]:
        print("  over=%-2d classes=%d | sorts performed=%d reused=%d | shared %sms unshared %sms | speedup %s" % (
            r["over_clauses"], r["classes"],
            r["sorts_performed"], r["sorts_shared"],
            r["shared_median_ms"], r["unshared_median_ms"],
            r.get("speedup_shared", "n/a")))
if "note" in d:
    print("note:", d["note"])
PY
