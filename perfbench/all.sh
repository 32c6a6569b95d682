#!/bin/sh
# Every workload, end to end and then per layer, one after another.
# Run from the root of a checkout:  sh perfbench/all.sh [seed] [seconds]
set -e
for workload in verify search oracle sums; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" \
            --seconds "${2:-28}" --trace "$trace"
    done
done
