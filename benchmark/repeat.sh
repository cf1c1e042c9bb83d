#!/usr/bin/env bash
# Run the whole benchmark on this commit as two sets of five runs per
# workload (tracing off) and compare the sets with the benchmark's own
# bounds: the repeatability check. The sets are interleaved run by run, so
# that drift of the machine over the minutes this takes lands on both
# alike. The result files go to benchmark/results/ and are the baseline
# later performance claims start from.
#
#   bash benchmark/repeat.sh [seed]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
seed="${1:-1}"
mkdir -p "$here/results"
rm -f "$here/results/run_a.jsonl" "$here/results/run_b.jsonl"
for workload in hot_single hot_batch cold_batch churn_single sim_fig6; do
	for round in 1 2 3 4 5; do
		for set in a b; do
			bash "$here/run.sh" --workload "$workload" --seed "$seed" -out "results/run_$set.jsonl"
		done
	done
done
bash "$here/run.sh" -compare results/run_a.jsonl results/run_b.jsonl
