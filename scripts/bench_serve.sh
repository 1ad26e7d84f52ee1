#!/usr/bin/env bash
# bench_serve.sh — serving throughput profile for rfserverd.
#
# Builds rfserverd + rfload, loads a 200-row dense sequence with a (2,2)
# SUM view, and measures closed-loop qps of the derived (3,3) window query
# at 1, 4, and 16 client connections, plus a ping run at the same fan-outs
# as the protocol-only ceiling. Results land in BENCH_serve.json next to this
# script's repo root. (The read/write mix is measured by the serve_mixed
# workload of `go run ./benchmark`.)
#
# Usage: scripts/bench_serve.sh [duration-per-run, default 5s]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
DUR="${1:-5s}"
WORK="$(mktemp -d)"
trap 'kill "$SRV_PID" 2>/dev/null || true; wait "$SRV_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

cd "$ROOT"
go build -o "$WORK/rfserverd" ./cmd/rfserverd
go build -o "$WORK/rfload" ./cmd/rfload

cat > "$WORK/init.sql" <<'SQL'
CREATE TABLE seq (pos INTEGER, val INTEGER);
SQL
{
  printf 'INSERT INTO seq (pos, val) VALUES (1, 1)'
  for i in $(seq 2 200); do printf ', (%d, %d)' "$i" "$((i % 7 + 1))"; done
  printf ';\n'
  cat <<'SQL'
CREATE UNIQUE INDEX seq_pos ON seq (pos);
CREATE MATERIALIZED VIEW mv_seq AS
  SELECT pos, SUM(val) OVER (ORDER BY pos
    ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM seq;
SQL
} >> "$WORK/init.sql"

ADDR="127.0.0.1:7071"
"$WORK/rfserverd" -addr "$ADDR" -init "$WORK/init.sql" > "$WORK/server.log" 2>&1 &
SRV_PID=$!
for _ in $(seq 1 50); do
  "$WORK/rfload" -addr "$ADDR" -probe && break
  sleep 0.1
done

QUERY='SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING) AS s FROM seq'

run() { # run <clients> <extra rfload args...>
  local n="$1"; shift
  "$WORK/rfload" -addr "$ADDR" -clients "$n" -duration "$DUR" -warmup 100 -json "$@"
}

# Scheduler noise on small hosts swings single-client closed-loop numbers
# by tens of percent, so every configuration runs TRIALS times, interleaved
# to spread drift, and the summary uses per-configuration medians.
TRIALS="${TRIALS:-3}"
: > "$WORK/trials.jsonl"
for t in $(seq 1 "$TRIALS"); do
  echo "trial $t/$TRIALS: query at 1/4/16 clients, ping at 1/16 (${DUR} each)..." >&2
  run 1 -sql "$QUERY"  >> "$WORK/trials.jsonl"
  run 4 -sql "$QUERY"  >> "$WORK/trials.jsonl"
  run 16 -sql "$QUERY" >> "$WORK/trials.jsonl"
  run 1 -op ping       >> "$WORK/trials.jsonl"
  run 16 -op ping      >> "$WORK/trials.jsonl"
done

kill "$SRV_PID"; wait "$SRV_PID" 2>/dev/null || true

TRIALS_FILE="$WORK/trials.jsonl" QUERY="$QUERY" python3 - > "$ROOT/BENCH_serve.json" <<'PY'
import json, os, platform, statistics

trials = [json.loads(line) for line in open(os.environ["TRIALS_FILE"]) if line.strip()]
# rfload emits rows_per_result > 0 for query runs and 0 for ping runs.
query = [t for t in trials if t["rows_per_result"] > 0]
ping = [t for t in trials if t["rows_per_result"] == 0]

def summarize(runs, clients):
    rs = [r for r in runs if r["clients"] == clients]
    return {
        "clients": clients,
        "qps_median": round(statistics.median(r["qps"] for r in rs), 1),
        "p50_us_median": statistics.median(r["p50_us"] for r in rs),
        "trials": rs,
    }

q = {n: summarize(query, n) for n in (1, 4, 16)}
p = {n: summarize(ping, n) for n in (1, 16)}
out = {
    "benchmark": "rfserverd closed-loop serving throughput",
    "workload": {
        "sql": os.environ["QUERY"],
        "rows": 200,
        "view": "mv_seq (2 PRECEDING, 2 FOLLOWING) SUM",
        "note": "every query rides the MaxOA/MinOA derivation rewrite; "
                "steady state is served from the engine plan/result cache",
    },
    "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
    "runs": [q[1], q[4], q[16]],
    "speedup_16v1": round(q[16]["qps_median"] / q[1]["qps_median"], 3),
    "ping_ceiling": {
        "description": "same fan-out, op=ping: no SQL, no engine — an upper "
                       "bound on what concurrency can buy at the protocol level "
                       "on this host",
        "runs": [p[1], p[16]],
        "speedup_16v1": round(p[16]["qps_median"] / p[1]["qps_median"], 3),
    },
}
if (os.cpu_count() or 1) == 1:
    out["note"] = (
        "single-CPU host: server goroutines, client processes, and the kernel "
        "share one core, so added clients can only amortize scheduling gaps, "
        "not execute in parallel; the ping ceiling bounds the reachable speedup"
    )
print(json.dumps(out, indent=2))
PY

echo "wrote $ROOT/BENCH_serve.json" >&2
python3 -c 'import json;d=json.load(open("'"$ROOT"'/BENCH_serve.json"));print("qps:",[r["qps_median"] for r in d["runs"]],"speedup 16v1:",d["speedup_16v1"],"ping ceiling:",d["ping_ceiling"]["speedup_16v1"])' >&2
