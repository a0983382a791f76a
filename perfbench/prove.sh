#!/usr/bin/env bash
# Runs the benchmark untraced once per seed on each workload, appending
# one JSON line per run to a results file, then checks the set's spread
# against the bounds in BENCHMARK.json. Two sets of the same code can be
# compared with the built binary's -agree mode:
#   bash perfbench/prove.sh set1.jsonl "onchain channel city catchup" 1 2 3 4 5 6 7 8 9 10
#   .bench_build/perfbench/perfbench -agree set1.jsonl set2.jsonl
set -uo pipefail
out=$1
workloads=$2
shift 2
root=$(cd "$(dirname "$0")/.." && pwd)
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")
for w in $workloads; do
	for s in "$@"; do
		line=$(bash "$root/perfbench/run.sh" --workload "$w" --seed "$s" --seconds "$secs" --trace 0 | tail -n 1)
		status=$?
		[ "$status" -eq 0 ] || echo "prove: $w seed $s exited with $status" >&2
		printf '{"workload":"%s","seed":%s,"result":%s}\n' "$w" "$s" "$line" >>"$out"
	done
done
"$root/.bench_build/perfbench/perfbench" -bench "$root/BENCHMARK.json" -agree "$out" "$out"
