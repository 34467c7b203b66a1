#!/usr/bin/env bash
# Parent-vs-change benchmark trajectory: BENCHMARK.json's command, every
# workload, end-to-end pass (--trace 0), in alternating parent/change pairs,
# then one traced pass (--trace 1) per side to locate a difference.
#
#   scripts/bench_pairs.sh <parent-ref> [pairs=10] [seconds=run_seconds] [seed=2005] [workload]
#
# Writes BENCH_<pr>.json at the repo root (<pr> from ISSUE.md's heading; a
# run on another seed or on one workload — the held-out-seed check of a
# claim — writes target/bench_pairs/BENCH_<pr>_seed<seed>.json instead):
# per workload × end-to-end metric — wall_s and peak_rss_mib alike, so a
# memory claim is read by the rule a time claim is — the parent's and the
# change's median and quartiles, the parent's interquartile range, and in
# how many pairs the change read better: the numbers the choosing-metrics
# rule needs (a gain counts when the change wins ≥ 9/10 pairs and the
# medians differ by more than the parent's IQR), plus a `per_layer` block:
# what the traced pass of each side counted and where it spent its time.
# The parent is `git archive`d into target/bench_pairs/ and built there;
# the change is the working tree. Only *reads* benchmark/ and
# BENCHMARK.json. Needs python3 for the JSON.
set -euo pipefail
cd "$(dirname "$0")/.."

parent_ref="${1:?usage: scripts/bench_pairs.sh <parent-ref> [pairs] [seconds] [seed] [workload]}"
pairs="${2:-10}"
seconds="${3:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
seed="${4:-2005}"
only="${5:-}"
pr="$(sed -n '1s/^# ISSUE \([0-9][0-9]*\).*/\1/p' ISSUE.md)"
test -n "$pr" || { echo "no '# ISSUE <n>' heading in ISSUE.md" >&2; exit 1; }
parent_sha="$(git rev-parse --verify "$parent_ref^{commit}")"

work="$PWD/target/bench_pairs"
rm -rf "$work/parent"
mkdir -p "$work/parent"
git archive "$parent_sha" | tar -x -C "$work/parent"
runs="$work/runs.jsonl"
: > "$runs"
# `cargo run --offline` rewrites benchmark/Cargo.lock in place when the
# crates' dependency edges moved; put the checked-in one back on exit.
cp benchmark/Cargo.lock "$work/benchmark.lock"
trap 'cp "$work/benchmark.lock" benchmark/Cargo.lock' EXIT

mapfile -t command < <(python3 -c 'import json; print(*json.load(open("BENCHMARK.json"))["command"], sep="\n")')
mapfile -t workloads < <(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]], sep="\n")')
out="BENCH_$pr.json"
if [ "$seed" != 2005 ] || [ -n "$only" ]; then
  out="$work/BENCH_${pr}_seed$seed.json"
  [ -n "$only" ] && workloads=("$only")
fi

# One pass of one workload on one side; appends its result line to $runs.
# Pair 0 is the traced pass.
pass() {
  local side="$1" pair="$2" workload="$3" dir="$PWD" trace=0
  [ "$side" = parent ] && dir="$work/parent"
  [ "$pair" = 0 ] && trace=1
  local line
  line="$(cd "$dir" && "${command[@]}" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" 2> /dev/null | tail -n 1)"
  echo "{\"side\": \"$side\", \"pair\": $pair, \"workload\": \"$workload\", \"result\": $line}" >> "$runs"
}

echo "== bench_pairs: building parent $parent_sha and the working tree =="
for side in parent change; do pass "$side" 1 "${workloads[0]}"; done
: > "$runs" # the build passes are not measurements

for pair in $(seq 1 "$pairs"); do
  # Alternate which side runs first, so drift on the host cancels.
  order=(parent change)
  [ $((pair % 2)) -eq 0 ] && order=(change parent)
  for workload in "${workloads[@]}"; do
    for side in "${order[@]}"; do pass "$side" "$pair" "$workload"; done
  done
  echo "pair $pair/$pairs done"
done
for workload in "${workloads[@]}"; do
  for side in parent change; do pass "$side" 0 "$workload"; done
done
echo "traced passes done"

python3 - "$runs" "$out" "$pr" "$parent_sha" "$pairs" "$seconds" "$seed" "$(nproc)" << 'EOF'
import json, statistics, sys

runs_path, out_path, pr, parent_sha, pairs, seconds, seed, cpus = sys.argv[1:]
bench = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(runs_path)]


def quartiles(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


# Where the work and the time went, from the one traced pass of each side:
# every count the benchmark makes (a change that claims the same work for
# less must show them equal between the sides), and the seconds of the
# heavy layers.
PER_LAYER = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "B")] + [
    "simcore.pop_s",
    "fabric.other_s",
    "fabric.deliver_s",
    "fabric.xbar_done_s",
    "fabric.output_arb_s",
    "simcore.hold_ns_1k",
    "simcore.hold_ns_10k",
    "simcore.hold_ns_100k",
    "fabric.queueset_ns_per_op",
    "recn.cam_lookup_ns",
    "recn.port_enq_deq_ns",
    "metrics.probe_ns_per_call",
    "experiments.cache_store_ms",
    "experiments.cache_load_ms",
]

workloads = {}
for w in sorted({r["workload"] for r in runs}, key=[w["name"] for w in bench["workloads"]].index):
    traced = {r["side"]: r["result"]["metrics"] for r in runs if r["workload"] == w and r["pair"] == 0}
    mine = [r for r in runs if r["workload"] == w and r["pair"] != 0]
    rows = {}
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        value = lambda r: r["result"]["metrics"][name]["value"]
        side = {s: {r["pair"]: value(r) for r in mine if r["side"] == s} for s in ("parent", "change")}
        parent, change = list(side["parent"].values()), list(side["change"].values())
        (q1, q3), (c1, c3) = quartiles(parent), quartiles(change)
        better = lambda c, p: c < p if lower else c > p
        pm, cm = statistics.median(parent), statistics.median(change)
        rows[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent_median": pm,
            "change_median": cm,
            "change_vs_parent_pct": round((cm / pm - 1) * 100, 2) if pm else None,
            "parent_quartiles": [q1, q3],
            "change_quartiles": [c1, c3],
            "parent_iqr": q3 - q1,
            "bound": m["bound"],
            # Spread wider than the bound: a within-bound reading is
            # "unresolved", not "unchanged" (simplicity-review guide).
            "spread_exceeds_bound": bool(pm) and (q3 - q1) / pm > m["bound"],
            "pairs_change_better": sum(better(side["change"][p], side["parent"][p]) for p in side["parent"]),
            "pairs_tied": sum(side["change"][p] == side["parent"][p] for p in side["parent"]),
        }
    workloads[w] = {
        "all_correct": all(r["result"]["correct"] for r in mine),
        "failed": sum(r["result"]["failed"] for r in mine),
        "metrics": rows,
        "per_layer": {
            name: {side: traced[side][name]["value"] for side in ("parent", "change")}
            for name in PER_LAYER
            if all(name in traced[side] for side in ("parent", "change"))
        },
    }

json.dump(
    {
        "pr": int(pr),
        "parent": parent_sha,
        "protocol": {
            "command": bench["command"] + ["--workload", "<name>", "--seed", seed, "--seconds", seconds, "--trace", "0"],
            "pairs": int(pairs),
            "host_cpus": int(cpus),
            "alternating": "odd pairs run the parent first, even pairs the change",
            "per_layer": "one --trace 1 pass per side and workload, after the pairs",
        },
        "workloads": workloads,
    },
    open(out_path, "w"),
    indent=2,
)
open(out_path, "a").write("\n")
print(f"wrote {out_path}")
EOF
