#!/usr/bin/env bash
# Full CI gate: formatting, lints, tier-1 build+test, the workspace and
# wallbench test suites, and torture, lincheck and bench smokes.
# Everything runs offline against the in-workspace dependency shims.
set -euo pipefail
cd "$(dirname "$0")/.."

# Torture postmortems (oracle violations and non-linearizable histories)
# land in a known directory so CI can upload them as build artifacts on
# failure instead of losing them in the OS temp dir.
export TORTURE_DUMP_DIR="${TORTURE_DUMP_DIR:-$PWD/target/torture-dumps}"
mkdir -p "$TORTURE_DUMP_DIR"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> tier-1: cargo test -q"
cargo test -q --offline

echo "==> workspace tests (every crate: torture matrices, goldens, lincheck, engine)"
# Tier-1 runs only the root package's tests; the crates' own suites (and
# the simulator's allocation-count test) run here.
cargo test --workspace --release -q --offline

echo "==> wallbench tests (its own package: oracles, argument parsing, a smoke run per workload)"
cargo test --release --offline --manifest-path wallbench/Cargo.toml

echo "==> torture smoke (full matrix, reduced depth)"
cargo run -q --release --offline -p sprwl-torture -- --threads 2 --ops 100

echo "==> deterministic torture smoke (serialized scheduler, incl. mid-run thread churn cases)"
cargo run -q --release --offline -p sprwl-torture -- --det --threads 2 --ops 100

echo "==> lincheck smoke (checker accepts the committed cross-lock golden history)"
CROSS_GOLDEN=crates/torture/tests/golden/det_cross_smoke.trace.jsonl
cargo run -q --release --offline -p sprwl-lincheck -- "$CROSS_GOLDEN" > /dev/null
# An injected bug must flip the verdict to exactly exit 1 (non-linearizable).
# "Any non-zero" is not good enough: exit 2 means the checker gave up
# (budget/incomplete history), and a gate that confuses the two passes
# vacuously the day the budget is too small for the golden history.
rc=0
cargo run -q --release --offline -p sprwl-lincheck -- "$CROSS_GOLDEN" \
    --mutate drop-commit > /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "lincheck mutate smoke: expected exit 1 (violation), got $rc" >&2
    exit 1
fi
# And a starved budget must answer exit 2 (unknown), not a violation.
rc=0
cargo run -q --release --offline -p sprwl-lincheck -- "$CROSS_GOLDEN" \
    --max-nodes 1 > /dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "lincheck budget smoke: expected exit 2 (unknown), got $rc" >&2
    exit 1
fi

echo "==> explore smoke (injected bug found by schedule search, then replayed bit-exactly)"
# The weakened commit-time reader check must be caught within a bounded
# frontier; the violating decision trace lands in TORTURE_DUMP_DIR (so CI
# uploads it as an artifact) and must replay bit-exactly.
EXPLORE_OUT=$(cargo run -q --release --offline -p sprwl-torture -- explore \
    --inject-bug --budget 256 --seed 225 --expect-violation)
echo "$EXPLORE_OUT"
SCHEDULE=$(printf '%s\n' "$EXPLORE_OUT" | sed -n 's/^schedule: //p')
test -s "$SCHEDULE"
cargo run -q --release --offline -p sprwl-torture -- explore \
    --replay-schedule "$SCHEDULE"

echo "==> diff_traces smoke (identical -> 0, divergence -> 1)"
python3 scripts/diff_traces.py "$CROSS_GOLDEN" "$CROSS_GOLDEN" > /dev/null
head -n -1 "$CROSS_GOLDEN" > target/truncated-golden.jsonl
if python3 scripts/diff_traces.py "$CROSS_GOLDEN" target/truncated-golden.jsonl > /dev/null; then
    echo "diff_traces.py failed to flag a truncated trace" >&2
    exit 1
fi
rm -f target/truncated-golden.jsonl

echo "==> trace smoke (fig3 --trace produces a non-empty Chrome trace)"
# Benches run with cwd at the package root, so hand them an absolute path.
SPRWL_BENCH_SECS=0.05 SPRWL_BENCH_THREADS=2 \
    cargo bench -q -p sprwl-bench --bench fig3 --offline -- --trace "$PWD/target/trace-smoke.json" \
    > /dev/null
test -s target/trace-smoke.json
cargo test -q -p sprwl-trace --offline > /dev/null

echo "==> bench pipeline smoke (BENCH_*.json emit + compare exit-code contract)"
BENCH_SMOKE_DIR=target/bench-smoke
rm -rf "$BENCH_SMOKE_DIR"
mkdir -p "$BENCH_SMOKE_DIR"
bench_sweep() { cargo run -q --release --offline -p sprwl-bench --bin bench-sweep -- "$@"; }
bench_compare() { cargo run -q --release --offline -p sprwl-bench --bin bench-compare -- "$@"; }
# det_identical COMMITTED CURRENT: a det document regenerated with the
# committed document's flags must match it point for point. Only the
# provenance fields (date, git_commit, hardware) may differ. A change that
# alters det behaviour on purpose regenerates the committed document in
# the same change.
det_identical() {
    python3 - "$1" "$2" <<'EOF'
import json, sys
committed, current = sys.argv[1], sys.argv[2]
base, cur = json.load(open(committed)), json.load(open(current))
provenance = {"date", "git_commit", "hardware"}
for key in sorted((set(base) | set(cur)) - provenance - {"points"}):
    if base.get(key) != cur.get(key):
        sys.exit(f"det identity: {key} is {cur.get(key)!r}, committed {base.get(key)!r} ({committed})")
for i, (b, c) in enumerate(zip(base["points"], cur["points"])):
    if b != c:
        sys.exit(
            f"det identity: point {i} differs from {committed}\n"
            f"  committed {json.dumps(b, sort_keys=True)}\n"
            f"  current   {json.dumps(c, sort_keys=True)}"
        )
if len(base["points"]) != len(cur["points"]):
    sys.exit(f"det identity: {len(cur['points'])} points, committed {len(base['points'])} ({committed})")
print(f"det identity: {len(cur['points'])} points match {committed}")
EOF
}
# A small deterministic grid must emit a parsable, summarizable document.
bench_sweep --det --threads 1,2 --ops 400 --warmup-ops 50 --locks SpRWL,TLE \
    --workloads read-only,hot-key --category smoke --out "$BENCH_SMOKE_DIR" > /dev/null
SMOKE_JSON=$(ls "$BENCH_SMOKE_DIR"/BENCH_smoke_*.json)
python3 scripts/summarize_bench.py "$SMOKE_JSON" > /dev/null
# Self-diff is clean (exit 0)...
bench_compare "$SMOKE_JSON" "$SMOKE_JSON" > /dev/null
# ...and an injected throughput regression fails with exactly exit 1.
# "Any non-zero" is not good enough: exit 2 means the documents never got
# compared (parse/schema error) and exit 3 means nothing matched — a gate
# that confuses those with a regression verdict passes vacuously the day
# the schema drifts.
python3 - "$SMOKE_JSON" "$BENCH_SMOKE_DIR/regressed.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for p in doc["points"]:
    p["throughput"] *= 0.4
json.dump(doc, open(sys.argv[2], "w"))
EOF
rc=0
bench_compare "$SMOKE_JSON" "$BENCH_SMOKE_DIR/regressed.json" > /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "bench-compare regression smoke: expected exit 1, got $rc" >&2
    exit 1
fi

echo "==> trace-overhead smoke (sampled tracing within 3% of off) + analyzer contract"
# Two single-policy sweeps over an identical deterministic grid produce
# documents with identical point keys, so bench-compare can bound the
# sampled policy's throughput cost against tracing-off directly. The
# deterministic virtual clock makes the 3% bound tight-but-stable: any
# drift here is sampling bookkeeping on the hot path, not host noise.
bench_sweep --det --threads 2 --ops 600 --warmup-ops 50 --locks SpRWL \
    --workloads mixed-90-10,hot-key --trace off \
    --category traceoff --out "$BENCH_SMOKE_DIR" > /dev/null
bench_sweep --det --threads 2 --ops 600 --warmup-ops 50 --locks SpRWL \
    --workloads mixed-90-10,hot-key --trace sampled:64:4096 \
    --capture "$BENCH_SMOKE_DIR/capture.jsonl" \
    --category tracesampled --out "$BENCH_SMOKE_DIR" > /dev/null
bench_compare "$BENCH_SMOKE_DIR"/BENCH_traceoff_*.json \
    "$BENCH_SMOKE_DIR"/BENCH_tracesampled_*.json \
    --throughput-drop-pct 3 --abort-rise-pp 5 --p99-rise-pct 50
# sprwl-analyze exit contract: 0 = report with sections. The report is a
# workflow artifact; the summarizer renders its top-conflict table.
sprwl_analyze() { cargo run -q --release --offline -p sprwl-trace --bin sprwl-analyze -- "$@"; }
sprwl_analyze "$BENCH_SMOKE_DIR/capture.jsonl" --out "$BENCH_SMOKE_DIR/analyze-report.json"
python3 scripts/summarize_bench.py "$BENCH_SMOKE_DIR/analyze-report.json"
# ...1 = vacuous capture (parses, but no section lifecycles): the gate
# must distinguish "empty" from "broken" — a sampling or export bug that
# empties every capture would otherwise pass as a quiet success.
printf '{"tid":0,"ev":"trace-meta","dropped":0}\n' > "$BENCH_SMOKE_DIR/vacuous.jsonl"
rc=0
sprwl_analyze "$BENCH_SMOKE_DIR/vacuous.jsonl" > /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "sprwl-analyze vacuous smoke: expected exit 1, got $rc" >&2
    exit 1
fi
# ...and 2 = unusable input (missing file, malformed line).
rc=0
sprwl_analyze "$BENCH_SMOKE_DIR/no-such-capture.jsonl" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "sprwl-analyze IO smoke: expected exit 2, got $rc" >&2
    exit 1
fi

echo "==> bravo-vs-snzi bench smoke (biased admission holds the SNZI baseline)"
# Same deterministic grid under the two reader-tracking policies. BRAVO's
# committed claim is "never worse than plain SNZI": with the bias word in
# the SNZI root's tag bits the writer's commit check costs the same line,
# and the adaptive re-arm backoff keeps revocation thrash off the
# writer-pressure shapes. Rewriting the SNZI document's lock labels lets
# bench-compare pair the points, so the thresholds read "BRAVO may not
# collapse against SNZI" on both the read-dominated and contended shapes.
bench_sweep --det --threads 2,4 --ops 800 --warmup-ops 80 --locks SNZI \
    --workloads read-only,hot-key --category snzibase --out "$BENCH_SMOKE_DIR" > /dev/null
bench_sweep --det --threads 2,4 --ops 800 --warmup-ops 80 --locks BRAVO \
    --workloads read-only,hot-key --category bravocand --out "$BENCH_SMOKE_DIR" > /dev/null
python3 - "$BENCH_SMOKE_DIR"/BENCH_snzibase_*.json "$BENCH_SMOKE_DIR/snzi-as-bravo.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for p in doc["points"]:
    p["lock"] = "BRAVO"
json.dump(doc, open(sys.argv[2], "w"))
EOF
bench_compare "$BENCH_SMOKE_DIR/snzi-as-bravo.json" "$BENCH_SMOKE_DIR"/BENCH_bravocand_*.json \
    --throughput-drop-pct 10 --abort-rise-pp 10 --p99-rise-pct 100

echo "==> det server smoke (sharded async KV service: emit twice, byte-identical, self-compare clean)"
# The whole service — hashed routing, per-shard SpRWLs, async guard
# futures, redis-shaped traffic — must produce a byte-identical document
# for the same flags: that is the determinism contract the end-to-end
# test stack (tests/server_det.rs) asserts, re-checked here through the
# real binary.
bench_sweep --server --shards 2,4 --threads 2 --ops 200 --warmup-ops 16 \
    --category serversmoke --out "$BENCH_SMOKE_DIR/srv-a" > /dev/null
bench_sweep --server --shards 2,4 --threads 2 --ops 200 --warmup-ops 16 \
    --category serversmoke --out "$BENCH_SMOKE_DIR/srv-b" > /dev/null
cmp "$BENCH_SMOKE_DIR"/srv-a/BENCH_serversmoke_*.json \
    "$BENCH_SMOKE_DIR"/srv-b/BENCH_serversmoke_*.json
bench_compare "$BENCH_SMOKE_DIR"/srv-a/BENCH_serversmoke_*.json \
    "$BENCH_SMOKE_DIR"/srv-b/BENCH_serversmoke_*.json > /dev/null
python3 scripts/summarize_bench.py "$BENCH_SMOKE_DIR"/srv-a/BENCH_serversmoke_*.json > /dev/null

echo "==> server baseline gate (regenerate the committed service grid: point-identical, then loose thresholds)"
SERVER_BASELINE=$(ls results/BENCH_server_*.json | head -n 1)
bench_sweep --server --shards 2,4 --threads 2,4 --ops 400 --warmup-ops 40 \
    --schedule-seed 7 --seed 42 --out "$BENCH_SMOKE_DIR/server-current" > /dev/null
SERVER_CURRENT=$(ls "$BENCH_SMOKE_DIR"/server-current/BENCH_server_*.json)
det_identical "$SERVER_BASELINE" "$SERVER_CURRENT"
# A drifted point must fail the identity check, or it passes vacuously.
python3 - "$SERVER_CURRENT" "$BENCH_SMOKE_DIR/server-drifted.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["points"][-1]["commits"] += 1
json.dump(doc, open(sys.argv[2], "w"))
EOF
if det_identical "$SERVER_CURRENT" "$BENCH_SMOKE_DIR/server-drifted.json" > /dev/null 2>&1; then
    echo "det identity smoke: a drifted point passed the check" >&2
    exit 1
fi
bench_compare "$SERVER_BASELINE" "$SERVER_CURRENT" \
    --throughput-drop-pct 40 --abort-rise-pp 25 --p99-rise-pct 400
python3 scripts/summarize_bench.py "$SERVER_CURRENT" > /dev/null

echo "==> capacity baseline gate (point-identical regeneration; the stretching ladder must keep winning)"
# Regenerate the committed capacity document (deterministic: byte-identical
# for identical flags) and gate the stretching claim three ways.
CAP_BASELINE=$(ls results/BENCH_capacity_*.json | head -n 1)
bench_sweep --capacity --threads 2 --ops 240 --schedule-seed 7 --seed 42 \
    --out "$BENCH_SMOKE_DIR/capacity-current" > /dev/null
CAP_CURRENT=$(ls "$BENCH_SMOKE_DIR"/capacity-current/BENCH_capacity_*.json)
det_identical "$CAP_BASELINE" "$CAP_CURRENT"
# 1. Drift against the committed baseline (loose: catches collapses).
bench_compare "$CAP_BASELINE" "$CAP_CURRENT" \
    --throughput-drop-pct 40 --abort-rise-pp 25 --p99-rise-pct 400
# 2. Stretching-on vs stretching-off through bench-compare: relabel the
#    off arm's points so they pair with the stretch arm's, then require
#    the ladder not to cost throughput at loose thresholds. The abort
#    threshold stays loose on purpose — ROT retries trade cheap
#    speculative aborts for lock-serialized fallbacks, so total abort%
#    may rise while capacity aborts and throughput both improve.
python3 - "$CAP_CURRENT" "$BENCH_SMOKE_DIR/capacity-off-as-stretch.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["points"] = [p for p in doc["points"] if p["lock"] == "SpRWL"]
for p in doc["points"]:
    p["lock"] = "SpRWL+stretch"
json.dump(doc, open(sys.argv[2], "w"))
EOF
bench_compare "$BENCH_SMOKE_DIR/capacity-off-as-stretch.json" "$CAP_CURRENT" \
    --throughput-drop-pct 20 --abort-rise-pp 30 --p99-rise-pct 400
# 3. The strict claim the document is committed for: on every
#    (workload, profile) pair the stretch arm's writer capacity aborts
#    (plain + ROT) are strictly lower, and on the POWER8 points — the
#    profile whose ROT/suspend machinery the ladder targets — throughput
#    is no worse.
python3 - "$CAP_CURRENT" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
pts = {(p["workload"], p["lock"]): p for p in doc["points"]}
caps = lambda p: p["aborts"]["capacity"] + p["aborts"]["capacity-rot"]
bad = []
for (wl, lock), off in sorted(pts.items()):
    if lock != "SpRWL":
        continue
    on = pts.get((wl, "SpRWL+stretch"))
    if on is None:
        bad.append(f"{wl}: stretch arm missing")
    elif caps(on) >= caps(off):
        bad.append(f"{wl}: capacity aborts {caps(on)} !< {caps(off)}")
    elif "power8" in wl and on["throughput"] < off["throughput"]:
        bad.append(
            f"{wl}: stretch throughput {on['throughput']:.0f} < {off['throughput']:.0f}"
        )
if bad:
    sys.exit("capacity gate: " + "; ".join(bad))
print("capacity gate: stretching strictly cuts capacity aborts on every point")
EOF
python3 scripts/summarize_bench.py "$CAP_CURRENT" > /dev/null

echo "==> perf baseline gate (regenerate the committed grid, compare with loose thresholds)"
# The committed baseline is deterministic (virtual clock, fixed work), so
# point-for-point drift here is caused by code changes, not host speed.
# Thresholds are loose on purpose: the gate catches collapses (a lock
# serializing, speculation dying), not percent-level tuning.
BASELINE=$(ls results/BENCH_sweep_*.json | head -n 1)
bench_sweep --det --threads 1,2,4 --ops 1500 --warmup-ops 150 --schedule-seed 7 --seed 42 \
    --locks SpRWL,TLE,BRLock --workloads read-only,independent-write,hot-key,mixed-90-10 \
    --category sweep --out "$BENCH_SMOKE_DIR/current" > /dev/null
CURRENT=$(ls "$BENCH_SMOKE_DIR"/current/BENCH_sweep_*.json)
bench_compare "$BASELINE" "$CURRENT" \
    --throughput-drop-pct 40 --abort-rise-pp 25 --p99-rise-pct 400
python3 scripts/summarize_bench.py "$CURRENT" > /dev/null

echo "CI gate passed."
