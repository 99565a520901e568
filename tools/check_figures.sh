#!/bin/sh
# Rerun every simulated-cycle figure, table, ablation and extension
# program and diff its stdout against baselines/figures/<program>.txt.
# Their output is a pure function of the source (seeded, no host
# clocks), so any difference is a change in simulated results.
#
# Usage: tools/check_figures.sh BUILD_DIR [--update]
#   --update  rewrite the committed outputs instead of diffing them
set -eu

build=${1:?usage: tools/check_figures.sh BUILD_DIR [--update]}
update=${2:-}
dir=$(dirname "$0")/../baselines/figures
programs="fig03_breakdown fig04_hash_cache fig08_flow_register
fig09_single_lookup fig10_latency_breakdown fig11_tuple_space
fig12_collocation fig13_nf_speedup table1_instructions table4_power_area
abl_dispatch abl_hybrid abl_metadata_cache abl_scoreboard
ext_concurrency ext_tree_lookup"

out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
for p in $programs; do
    if ! "$build/bench/$p" > "$out"; then
        echo "FAILED: $p exited nonzero" >&2
        status=1
    elif [ "$update" = "--update" ]; then
        cp "$out" "$dir/$p.txt"
        echo "updated: $p"
    elif diff -u "$dir/$p.txt" "$out"; then
        echo "identical: $p"
    else
        echo "DIFFERS: $p" >&2
        status=1
    fi
done
exit $status
