#!/usr/bin/env bash
# Builds the benchmark and runs the full set: every workload, the
# end-to-end pass and the traced pass, one child process each, one after
# the other. Every metric is printed by name with its unit.
#
#   benchmark/run.sh                    one full set
#   benchmark/run.sh --twice            two sets; fails unless every end-to-end
#                                       metric of the two agrees within its bound
#   benchmark/run.sh --seed 7919        another seed (7919 is the held-out one)
#   benchmark/run.sh --seconds 10       seconds measured per pass
#
# A single pass of a single workload, as BENCHMARK.json's command runs it:
#   cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
#       --workload hotspot256_recn --seed 2005 --seconds 10 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# What git sees outside the benchmark's own files. The benchmark may write
# under benchmark/ only, so this must read the same before and after.
outside() {
    git status --porcelain 2>/dev/null | grep -vE '^.. (BENCHMARK\.json$|benchmark/)' || true
}
before="$(outside)"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
status=0
"${CARGO_TARGET_DIR:-benchmark/target}/release/recn-benchmark" --suite "$@" || status=$?

if [ "$(outside)" != "$before" ]; then
    echo "the benchmark changed files outside BENCHMARK.json and benchmark/:" >&2
    diff <(echo "$before") <(outside) >&2 || true
    exit 1
fi
exit "$status"
