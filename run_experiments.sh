#!/usr/bin/env bash
# Regenerate every table and figure of the paper (results land in results/).
#
# CONTRARC_TIME_LIMIT (seconds, default 120) caps each method per data point;
# cells that exceed it print as `timeout`. On slow
# machines run the chunked forms, e.g. `table2 5 10` or `fig5a 2 2`.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p results
cargo build --release -p contrarc-bench

: "${CONTRARC_TIME_LIMIT:=120}"
export CONTRARC_TIME_LIMIT

echo "== Table I ==" && target/release/table1 | tee results/table1.txt
echo "== Fig 5(a) ==" && target/release/fig5a 1 "${FIG5_MAX_N:-2}" | tee results/fig5a.txt
echo "== Fig 5(b) ==" && target/release/fig5b 1 "${FIG5_MAX_N:-4}" | tee results/fig5b.txt
echo "== Table II (rows 0..5) ==" && target/release/table2 0 5  | tee results/table2_a.txt
echo "== Table II (rows 5..10) ==" && target/release/table2 5 10 | tee results/table2_b.txt
