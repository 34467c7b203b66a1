#!/usr/bin/env bash
# Prints the `recn` command-line surface: `recn --help`, every command's
# `--help`, and the output plus exit status of command lines that fail
# while their flags are read (no simulation runs). tier1.sh diffs this
# against ci/recn_cli.txt.
#
#   scripts/cli_surface.sh target/release/recn > ci/recn_cli.txt
set -uo pipefail
recn="$(realpath "$1")"
tmp="$(mktemp -d)"
cd "$tmp" || exit 1
show() {
  echo "\$ recn $*"
  "$recn" "$@" 2>&1
  echo "exit $?"
}
show --help
for cmd in fig table1 hotspot incast ablations validate inspect scale; do
  show "$cmd" --help
done
show
show nosuch
show fig
show fig 7
show fig 2 --bogus
show fig 2 --jobs
show fig 2 --jobs 0
show fig 2 --pkt 100
show fig 2 --net 256
show fig 4 --stride -1
show table1 --quick
show hotspot --net 256
show hotspot --net 512
show incast --transport tcp
show validate --topology torus
show validate --transport pfc
show inspect --trace-last 0
show scale --net 100
show scale --time-div fast
show scale --budget lots
cd / && rm -rf "$tmp"
