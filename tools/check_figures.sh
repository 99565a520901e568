#!/bin/sh
# Rerun every simulated-cycle figure, table, ablation and extension
# program, and the quickstart example, and diff each one's stdout
# against baselines/figures/<program>.txt. Their output is a pure
# function of the source (seeded, no host clocks), so any difference is
# a change in simulated results.
#
# Usage: tools/check_figures.sh BUILD_DIR [--update]
#   --update  rewrite the committed outputs instead of diffing them
set -eu

build=${1:?usage: tools/check_figures.sh BUILD_DIR [--update]}
update=${2:-}
dir=$(dirname "$0")/../baselines/figures
programs="bench/fig03_breakdown bench/fig04_hash_cache
bench/fig08_flow_register bench/fig09_single_lookup
bench/fig10_latency_breakdown bench/fig11_tuple_space
bench/fig12_collocation bench/fig13_nf_speedup bench/table1_instructions
bench/table4_power_area bench/abl_dispatch bench/abl_hybrid
bench/abl_metadata_cache bench/abl_scoreboard bench/ext_concurrency
bench/ext_tree_lookup examples/quickstart"

out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
for path in $programs; do
    p=$(basename "$path")
    if ! "$build/$path" > "$out"; then
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
