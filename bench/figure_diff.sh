#!/usr/bin/env bash
# Runs the 15 figure/table reproductions and the 5 examples from two
# build trees and diffs their stdout, so a change that must leave the
# paper's outputs alone can be checked in one command:
#
#   bench/figure_diff.sh PARENT_BUILD CHANGE_BUILD
#
# Build both trees from the same CMake flags (build type and
# LAKE_NATIVE_ARCH change float codegen, which moves trained-model
# outputs). Each binary runs in its own scratch directory, both trees
# side by side; fig07 takes several minutes. Exits 0 only when every
# stdout is byte-identical and every binary exited 0.
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
    exit 2
fi
a=$(cd "$1" && pwd) || exit 2
b=$(cd "$2" && pwd) || exit 2

bins=(
    bench/fig01_contention_unmanaged bench/table2_channels
    bench/fig06_netlink_sizes bench/table3_crossover bench/table4_traces
    bench/fig07_linnos_e2e bench/fig08_io_inference bench/fig09_kleio
    bench/fig10_mllb bench/fig11_prefetch bench/fig12_malware_knn
    bench/fig13_contention_managed bench/fig14_ecryptfs
    bench/fig15_utilization bench/ablation_hardware
    examples/quickstart examples/io_latency_predictor
    examples/contention_policy examples/ecryptfs_demo
    examples/pagewarmth_demo
)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail=0
for bin in "${bins[@]}"; do
    name=$(basename "$bin")
    for side in a b; do
        mkdir -p "$work/$side/$name"
    done
    start=$SECONDS
    (cd "$work/a/$name" && "$a/$bin" > out.txt 2> err.txt) &
    pa=$!
    (cd "$work/b/$name" && "$b/$bin" > out.txt 2> err.txt) &
    pb=$!
    wait $pa; ra=$?
    wait $pb; rb=$?
    took=$((SECONDS - start))
    if [ $ra -ne 0 ] || [ $rb -ne 0 ]; then
        printf '%-28s FAIL  exit %d / %d (%ds)\n' "$name" $ra $rb $took
        fail=1
    elif cmp -s "$work/a/$name/out.txt" "$work/b/$name/out.txt"; then
        printf '%-28s same  %d lines (%ds)\n' "$name" \
            "$(wc -l < "$work/a/$name/out.txt")" $took
    else
        printf '%-28s DIFF  (%ds)\n' "$name" $took
        diff "$work/a/$name/out.txt" "$work/b/$name/out.txt" | head -20
        fail=1
    fi
done
exit $fail
