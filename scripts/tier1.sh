#!/usr/bin/env bash
# Tier-1 gate: build, format check, test, lint, and smoke-test the parallel
# sweep executor. Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release =="
# The root manifest's default-members are the whole workspace, so the bare
# tier-1 commands build the `recn` binary and run every crate's suite.
cargo build --release
recn="$PWD/target/release/recn"
# One front door: the workspace links exactly one executable.
exes="$(cargo build --release --message-format=json 2> /dev/null | grep -o '"executable":"[^"]*"' | sed 's|.*/||; s|"||' | sort | xargs)"
test "$exes" = "recn" || { echo "unexpected executables: $exes" >&2; exit 1; }
# The engine reads no environment (a library destructor once printed
# stats on CAL_STATS).
if grep -rn "std::env" crates/simcore/src; then
  echo "simcore must not read the environment" >&2; exit 1
fi
# One port path (DESIGN §4): a packet enters and leaves a queue set in
# network/port.rs and nowhere else, and no file of the module grows back
# into a catch-all.
net=crates/fabric/src/network
for hook in on_enqueue on_dequeue; do
  n="$(cat $net/*.rs | grep -c "\.$hook(")"
  test "$n" = 1 || { echo "$net: $n .$hook( call sites, want 1 (port.rs)" >&2; exit 1; }
done
# A hook costs nothing unless someone listens (DESIGN §6c): network/ calls
# the observer through observe! (mod.rs), which checks the interest set
# first, and by no other path.
if grep -rn 'observer\.on_' $net; then
  echo "$net: an observer hook called past observe!'s interest check" >&2; exit 1
fi
# Same-time work never reaches the queue (DESIGN §6f): a handler schedules
# through Network::schedule and Network::kick (lazy.rs), so the queue's own
# schedule is called from lazy.rs's three sites and build.rs::prime's two.
n="$(cat $net/*.rs | grep -oE '[A-Za-z_][A-Za-z0-9_]*\.schedule\(' | grep -vc '^self\.' || true)"
test "$n" = 5 || { echo "$net: $n queue .schedule( call sites, want 5 (lazy.rs 3, build.rs::prime 2)" >&2; exit 1; }
for f in $net/*.rs; do
  test "$(wc -l < "$f")" -le 500 || { echo "$f is over 500 lines" >&2; exit 1; }
done
# State follows activity (DESIGN §4, §4b): per-flow state is one table
# keyed by the flows that exist, never an array over every host pair, and a
# crossbar output's busy bit lives in the arbiter summary's mask only.
if grep -rnE 'hosts *\* *hosts' crates/fabric/src; then
  echo "crates/fabric/src: a hosts² allocation is back" >&2; exit 1
fi
if grep -rnE 'out_busy: *Vec' crates/fabric/src; then
  echo "crates/fabric/src: out_busy is a Vec again beside the arbiter mask" >&2; exit 1
fi
# One record encoding (DESIGN §6c): a trace event is canonical bytes laid
# out by trace.rs's kind table, and simcore::canon holds the workspace's
# one hash loop. Outside test code the FNV offset basis appears once and
# the prime twice, both in canon.rs: the standard one and the trace
# digest's pinned variant (`Fnv1a64::trace_variant`).
nontest() { # lines matching $1 under crates/, unit-test modules and test files left out
  find crates -name '*.rs' -not -path '*/tests/*' -not -name tests.rs -print0 |
    while IFS= read -r -d '' f; do sed '/#\[cfg(test)\]/,$d' "$f" | grep -H --label="$f" -- "$1" || true; done
}
test "$(nontest 'cbf2_9ce4' | wc -l)" = 1 || { echo "a second FNV hasher:" >&2; nontest 'cbf2_9ce4' >&2; exit 1; }
test "$(nontest '01b3' | grep -c '^crates/simcore/src/canon.rs:')" = 2 && test "$(nontest '01b3' | wc -l)" = 2 ||
  { echo "FNV primes outside canon.rs's two:" >&2; nontest '01b3' >&2; exit 1; }
test "$(wc -l < crates/fabric/src/trace.rs)" -le 400 || { echo "trace.rs is over 400 lines" >&2; exit 1; }
# Said once (DESIGN §6b–§6d): the observer fan-out is generated from the
# hook list (one forwarding loop), a run's network is built in one place,
# and library code never ends the process.
n="$(grep -c 'for o in &mut self.observers' crates/fabric/src/observer.rs || true)"
test "$n" -le 1 || { echo "observer.rs: $n hand-written fan-out loops, want the generated one" >&2; exit 1; }
n="$(cat $(find crates/experiments/src -name '*.rs') | grep -c 'Network::new(')"
test "$n" = 1 || { echo "crates/experiments/src: $n Network::new( call sites, want 1 (RunSpec::network)" >&2; exit 1; }
n="$(cat examples/*.rs | grep -c 'Network::new(')"
test "$n" = 1 || { echo "examples: $n Network::new( call sites, want 1 (hotspot_storm.rs; the rest build a RunSpec)" >&2; exit 1; }
if grep -rn 'process::exit' crates/*/src --include='*.rs' | grep -v '/src/bin/'; then
  echo "library code exits the process (only bin/ may)" >&2; exit 1
fi
# One stdout writer: a command prints through out!/outln! (cli.rs), whose
# failure is the binary's error status, never println!'s panic.
if grep -rnE '(^|[^e])print(ln)?!\(' crates/experiments/src --include='*.rs'; then
  echo "crates/experiments/src prints past cli::write_stdout" >&2; exit 1
fi

echo "== tier1: cargo fmt --check =="
cargo fmt --check

echo "== tier1: cargo test -q =="
cargo test -q

echo "== tier1: cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "== tier1: rustdoc gate (RUSTDOCFLAGS=-D warnings) =="
# All seven crates warn on missing_docs (doc examples ran under cargo test).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "== tier1: CLI surface (every --help, usage errors and their exit status) =="
# The help texts and the one-line usage errors are pinned byte for byte in
# ci/recn_cli.txt; after a deliberate change, regenerate it with
# `scripts/cli_surface.sh target/release/recn > ci/recn_cli.txt`.
scripts/cli_surface.sh "$recn" | diff ci/recn_cli.txt -
echo "CLI surface passed: help texts, usage errors and exit statuses as pinned"

echo "== tier1: quick-mode sweep smoke test (recn fig 2, --jobs 4 vs --jobs 1) =="
# The parallel executor must return results in submission order, so the
# rendered tables are byte-identical at any parallelism; the JSON sweep
# summary must report per-run wall seconds and events/sec.
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
(cd "$smoke" && "$recn" fig 2 --quick --jobs 1 --json j1 > serial.txt 2> /dev/null)
(cd "$smoke" && "$recn" fig 2 --quick --jobs 4 --json j4 > parallel.txt 2> /dev/null)
cmp "$smoke/serial.txt" "$smoke/parallel.txt"
grep -q '"wall_secs"' "$smoke/j4/fig2.sweep.json"
grep -q '"events_per_sec"' "$smoke/j4/fig2.sweep.json"
echo "smoke test passed: parallel output byte-identical to serial, JSON summary written"

# A reader that went away is the binary's one error status and one line,
# like any other output that cannot be written — not a panic (101).
{ rc=0; "$recn" table1 2> "$smoke/pipe.err" || rc=$?; echo "$rc" > "$smoke/pipe.rc"; } | head -c0
test "$(cat "$smoke/pipe.rc")" = 2 || { echo "table1 into a closed pipe exited $(cat "$smoke/pipe.rc"), want 2" >&2; exit 1; }
test "$(wc -l < "$smoke/pipe.err")" = 1 && grep -q '^cannot write to stdout: ' "$smoke/pipe.err"
echo "closed-pipe smoke passed: table1 | head -c0 exits 2 with one line"

echo "== tier1: validation smoke test (every scheme, invariants on) =="
# One corner-case hotspot run per scheme with the ValidatingObserver fanned
# in: the command panics on the first invariant violation, and its digests
# must be identical at any parallelism (the golden-trace contract).
(cd "$smoke" && "$recn" validate --quick --jobs 1 > v1.txt 2> /dev/null)
(cd "$smoke" && "$recn" validate --quick --jobs 4 > v4.txt 2> /dev/null)
cmp "$smoke/v1.txt" "$smoke/v4.txt"
grep -q "zero invariant violations" "$smoke/v1.txt"
echo "validation smoke passed: zero violations, digests parallel-stable"

echo "== tier1: fat-tree smoke test (--topology fattree, validator on) =="
# The same scheme matrix on the 64-host 4-ary 3-tree: self-routing,
# variable-width turnpool digits, and the RECN glue must all hold up under
# the strided hotspot with the invariant checker fanned in.
(cd "$smoke" && "$recn" validate --quick --topology fattree --jobs 1 > ft1.txt 2> /dev/null)
(cd "$smoke" && "$recn" validate --quick --topology fattree --jobs 4 > ft4.txt 2> /dev/null)
cmp "$smoke/ft1.txt" "$smoke/ft4.txt"
grep -q "zero invariant violations" "$smoke/ft1.txt"
echo "fat-tree smoke passed: zero violations, digests parallel-stable"

echo "== tier1: ARN smoke test (--routing arn, validator on) =="
# Notification-driven adaptive routing on the same fat-tree matrix: ARN
# notifications ride modeled reverse channels and age out at read time, so
# the runs must stay exactly as deterministic as the other two policies —
# byte-identical digests at any parallelism, zero invariant violations.
(cd "$smoke" && "$recn" validate --quick --topology fattree --routing arn --jobs 1 > arn1.txt 2> /dev/null)
(cd "$smoke" && "$recn" validate --quick --topology fattree --routing arn --jobs 4 > arn4.txt 2> /dev/null)
cmp "$smoke/arn1.txt" "$smoke/arn4.txt"
grep -q "zero invariant violations" "$smoke/arn1.txt"
# ARN must actually change behaviour where notifications fire: the RECN
# row's digest differs from its plain-fat-tree (deterministic) twin.
if cmp -s "$smoke/arn1.txt" "$smoke/ft1.txt"; then
  echo "ARN smoke FAILED: arn output identical to deterministic routing" >&2
  exit 1
fi
echo "ARN smoke passed: zero violations, digests parallel-stable and distinct"

echo "== tier1: transport smoke test (incast64, every transport, --jobs 1 vs 4) =="
# The closed-loop transport layer must keep the determinism contract: the
# incast64 FCT table (five schemes, trace digests included) is
# byte-identical at any parallelism under every transport — open loop,
# go-back-N, NACK, and PFC pause/drop.
for transport in open gbn nack pfc; do
  (cd "$smoke" && "$recn" incast --quick --transport "$transport" --jobs 1 > "t1_$transport.txt" 2> /dev/null)
  (cd "$smoke" && "$recn" incast --quick --transport "$transport" --jobs 4 > "t4_$transport.txt" 2> /dev/null)
  cmp "$smoke/t1_$transport.txt" "$smoke/t4_$transport.txt"
  grep -q "RECN" "$smoke/t1_$transport.txt"
done
# Closed-loop machinery actually engaged: the PFC baseline must have
# retransmitted after drops somewhere in the table.
awk '$2 == "pfc" && $7 > 0 { found = 1 } END { exit !found }' "$smoke/t1_pfc.txt"
echo "transport smoke passed: all four transports parallel-stable, PFC recovered from loss"

echo "== tier1: scale smoke test (ft_4096 RECN under the memory budget) =="
# A short-horizon 4096-host hotspot: the 16-ary 3-tree must build, route,
# and absorb the one-attacker-per-leaf congestion tree, and the run's peak_bytes_estimate must stay under the
# checked-in ceiling (ci/scale_budget.txt).
"$recn" scale --net 4096 --time-div 256 --json "$smoke/scale_smoke.json" \
  --budget "$(cat ci/scale_budget.txt)" > "$smoke/scale.txt" 2> /dev/null
grep -q '"peak_bytes_estimate": [0-9]' "$smoke/scale_smoke.json"
grep -q 'SAQs/port pk' "$smoke/scale.txt"
# Over budget is the binary's one error status (2), after the table is out.
rc=0; "$recn" scale --net 64 --time-div 256 --budget 1 > "$smoke/over.txt" 2> "$smoke/over.err" || rc=$?
test "$rc" = 2 || { echo "scale over its budget exited $rc, want 2" >&2; exit 1; }
grep -q 'SAQs/port pk' "$smoke/over.txt" && test "$(grep -c 'memory budget exceeded' "$smoke/over.err")" = 1
echo "scale smoke passed: 4096-host run under budget, JSON summary written, over-budget run exits 2"

echo "== tier1: run-cache smoke test (recn fig 2 --cache twice, all hits; fig 4 with one entry corrupted) =="
# Second pass over a warm cache must serve every run from disk and render
# byte-identical output: stdout tables compare exactly, and the JSON
# summaries compare after masking the per-run cache status and the sweep's
# own wall time (the only fields allowed to differ on a replay). Figure 2
# replays throughput series, figure 4 the SAQ census series; each starts
# from its own empty cache (figure 2 also runs figure 4's two RECN specs).
# Between figure 4's passes one byte of one entry's body is flipped: the
# warm pass evicts that entry (one stderr line), re-runs it (one miss) and
# still prints the cold pass's tables.
for fig in 2 4; do
  (cd "$smoke" && "$recn" fig $fig --quick --jobs 2 --json c1 --cache rc$fig > cold.txt 2> /dev/null)
  mask='s/"cache": "[a-z]*"/"cache": "X"/; /"total_wall_secs"/d'
  want_misses=0
  if test $fig = 4; then
    entry="$(ls "$smoke"/rc4/*.run | head -n 1)"
    body="$(grep -b -m 1 '^bin_ps ' "$entry" | cut -d: -f1)"
    at="$(( body + ($(wc -c < "$entry") - body) / 2 ))"
    printf '\377' | dd of="$entry" bs=1 seek="$at" conv=notrunc status=none
    # The re-run measures its own wall time.
    mask="$mask"'; s/"wall_secs": [^,]*/"wall_secs": X/; s/"events_per_sec": [^,]*/"events_per_sec": X/'
    want_misses=1
  fi
  (cd "$smoke" && "$recn" fig $fig --quick --jobs 2 --json c2 --cache rc$fig > warm.txt 2> warm.err)
  cmp "$smoke/cold.txt" "$smoke/warm.txt"
  grep -q '"cache": "miss"' "$smoke/c1/fig$fig.sweep.json"
  grep -q '"cache": "hit"' "$smoke/c2/fig$fig.sweep.json"
  misses="$(grep -c '"cache": "miss"' "$smoke/c2/fig$fig.sweep.json" || true)"
  evicted="$(grep -c 'evicting corrupt cache entry' "$smoke/warm.err" || true)"
  test "$misses $evicted" = "$want_misses $want_misses" ||
    { echo "run-cache smoke FAILED: warm fig $fig: $misses misses, $evicted evictions; want $want_misses each" >&2; exit 1; }
  sed -e "$mask" "$smoke/c1/fig$fig.sweep.json" > "$smoke/c1.masked"
  sed -e "$mask" "$smoke/c2/fig$fig.sweep.json" > "$smoke/c2.masked"
  cmp "$smoke/c1.masked" "$smoke/c2.masked"
done
echo "run-cache smoke passed: warm passes byte-identical, the corrupted entry evicted and re-run once"

echo "== tier1: routing-matrix smoke (recn hotspot --routing arn from an empty cache) =="
# The routing x scheme matrix renders from the three hotspot figures the
# command runs, the printed ARN one included: from an empty cache each of
# the 15 runs is a miss, none is served a second time, and stderr shows one
# progress line per run.
(cd "$smoke" && "$recn" hotspot --quick --topology fattree --routing arn --jobs 2 \
  --cache rcm --json cm > matrix.txt 2> matrix.err)
count() { awk -v pat="$1" '{ n += gsub(pat, "") } END { print n + 0 }' "${@:2}"; }
misses="$(count '"cache": "miss"' "$smoke"/cm/*.sweep.json)"
hits="$(count '"cache": "hit"' "$smoke"/cm/*.sweep.json)"
progress="$(count '^[[][0-9]+/[0-9]+[]]' "$smoke/matrix.err")"
test "$misses $hits $progress" = "15 0 15" ||
  { echo "routing-matrix smoke: $misses misses, $hits hits, $progress runs; want 15 0 15" >&2; exit 1; }
grep -q 'routing × scheme matrix' "$smoke/matrix.txt"
echo "routing-matrix smoke passed: 15 runs, each policy once"

echo "== tier1: unwritable stdout (recn table1 > /dev/full) =="
# A command whose stdout cannot be written fails with the binary's one
# error status (2) and one line on stderr, never a panic (101).
rc=0; "$recn" table1 > /dev/full 2> "$smoke/full.err" || rc=$?
test "$rc" = 2 || { echo "table1 on a full stdout exited $rc, want 2" >&2; exit 1; }
test "$(wc -l < "$smoke/full.err")" = 1 && grep -q '^cannot write to stdout: ' "$smoke/full.err"
echo "unwritable-stdout smoke passed: one line, exit 2"

echo "== tier1: benchmark-harness guard (benchmark/ builds against the crates, digests hold) =="
# benchmark/ is a separate package that the pipeline builds from this
# checkout and gates every PR with. This only *reads* it: one short pass of
# each of two workloads must build against the current `fabric::{Event,
# PortRef, NetObserver, ..}` surface and reproduce benchmark/expected.json —
# hotspot256_recn for the RECN fabric, incast64_gbn for the flow sets, the
# go-back-N transport and the probe's FCTs. (Its lock file still lists the
# deleted serde stubs, which `--offline` prunes in place; put it back so the
# tree stays clean until a [benchmark] PR regenerates it.)
bench_workloads="hotspot256_recn incast64_gbn"
cp benchmark/Cargo.lock "$smoke/benchmark.lock"
for w in $bench_workloads; do
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$w" --seed 2005 --seconds 2 --trace 0 2> /dev/null \
    | tail -n 1 > "$smoke/bench-$w.json" || true
done
cp "$smoke/benchmark.lock" benchmark/Cargo.lock
for w in $bench_workloads; do
  grep -q '"correct": true' "$smoke/bench-$w.json" \
    || { echo "benchmark-harness guard: $w does not report correct" >&2; exit 1; }
done
echo "benchmark-harness guard passed: $bench_workloads build and report correct"

echo "== tier1: all checks passed =="
