#!/bin/sh
# Prints the perfbench fields that are exact for a seed: the simulated
# counts of a traced tpcd-modes run, and sim_ms_per_stmt of untraced
# tpcd-modes and sql-point-write runs. These are pure functions of the
# code, not of wall time or run length, so a change that is not meant to
# move plans or costs must leave the output byte-identical:
#
#     scripts/perfbench_sim.sh | diff -u docs/perfbench_sim.txt -
#
# Run from the repository root. tpcd-two-clients is left out: its
# per-statement averages depend on thread interleaving.
set -eu

pb() {
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --seed 41 --seconds 1 "$@"
}

echo "# perfbench --workload tpcd-modes --seed 41 --seconds 1 --trace 1"
pb --workload tpcd-modes --trace 1 |
    grep -E '^(optimizer\.opt_work|storage\.pages_(read|written)_per_stmt|exec\.[a-z_]+\.(rows|cpu_ops|io_pages)) '
for w in tpcd-modes sql-point-write; do
    echo "# perfbench --workload $w --seed 41 --seconds 1 --trace 0"
    pb --workload "$w" --trace 0 | grep -E '^sim_ms_per_stmt '
done
