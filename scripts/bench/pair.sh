#!/usr/bin/env bash
# Alternating parent/change pairs of the repo's one benchmark, compared by
# its own bounds (benchmark/README.md): what a perf claim in CHANGES.md
# rests on (10 rounds × 12 s, ~35 min) and all that CI's perf job runs
# (3 × 3 s, ~5 min).
#
#   bash scripts/bench/pair.sh BASE [rounds] [seconds]
#
# BASE is built in a detached work tree under .bench_build/, the change is
# this tree as it stands. Each round runs every workload once a side at
# seed = round, the side that goes first alternating by round. Exit 1 on a
# "regressed" row, 2 when the harness itself differs from BASE (two
# yardsticks are not comparable). "unresolved" rows — the runs spread wider
# than the bound and their quartiles overlap — are printed and do not fail:
# a shared runner produces them, above all at few or short rounds; read
# them as "cannot tell", not as "unchanged". The runs are also summarized
# into .bench_build/pair/summary.json, the shape of a committed
# BENCH_<pr>.json (scripts/bench/summarize).
set -euo pipefail
cd "$(dirname "$0")/../.."
base="${1:?usage: pair.sh BASE [rounds] [seconds]}" rounds="${2:-10}" seconds="${3:-12}"
if ! git diff --quiet "$base" -- benchmark BENCHMARK.json; then
	echo "pair.sh: benchmark/ or BENCHMARK.json differs from $base: not comparable" >&2
	exit 2
fi
out="$PWD/.bench_build/pair"
rm -rf "$out" && mkdir -p "$out"
git worktree add --quiet --detach .bench_build/base "$base"
trap 'git worktree remove --force .bench_build/base' EXIT
for ((round = 1; round <= rounds; round++)); do
	sides=(base head)
	((round % 2)) || sides=(head base)
	for workload in hot_single hot_batch cold_batch churn_single sim_fig6; do
		for side in "${sides[@]}"; do
			tree=.
			[ "$side" = head ] || tree=.bench_build/base
			echo "round $round/$rounds $workload $side" >&2
			bash "$tree/benchmark/run.sh" --workload "$workload" --seed "$round" --seconds "$seconds" -out "$out/$side.jsonl" >/dev/null
		done
	done
done
go run ./scripts/bench/summarize "$out/base.jsonl" "$out/head.jsonl" >"$out/summary.json"
# -compare exits 1 on a row that is not "ok", either kind; 2 is an error.
status=0
bash benchmark/run.sh -compare "$out/base.jsonl" "$out/head.jsonl" | tee "$out/compare.txt" || status=$?
[ "$status" -le 1 ] || exit "$status"
! grep -q ' regressed$' "$out/compare.txt"
