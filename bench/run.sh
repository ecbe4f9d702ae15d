#!/usr/bin/env bash
# Runs the whole benchmark twice and checks that the two sets agree, then
# makes one traced run per workload and validates its span file. Run from the
# repository root:
#
#   bash bench/run.sh                 # one run per workload and set
#   RUNS=5 SEED=7 bash bench/run.sh   # five seeds per workload and set
#
# Every run is a fresh process. The second set runs the workloads in reverse
# order, so drift on a shared host does not fall on the same workload twice.
# Per set and end-to-end metric it prints the median and quartiles over the
# runs, and it exits non-zero when the two medians differ by more than the
# metric's bound in BENCHMARK.json, when any run fails its checks, or when
# cmd/tracecheck rejects a span file. Outputs stay under .bench_build/runs/.
set -euo pipefail

runs=${RUNS:-1}
seed=${SEED:-20210323}
seconds=${BENCH_SECONDS:-15}
workloads=(census-300k census-60k-sharded dense-conflict micro-batch)

root=$(pwd)
out="$root/.bench_build/runs/$(date +%Y%m%dT%H%M%S)"
mkdir -p "$out"
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
echo "# nproc=$(nproc) GOMAXPROCS=${GOMAXPROCS:-$(nproc)} $(go version) commit=$commit runs=$runs seed=$seed seconds=$seconds"
echo "# outputs in $out"

status=0
for set in 1 2; do
	mkdir -p "$out/set$set"
	order=("${workloads[@]}")
	if [ "$set" = 2 ]; then
		order=()
		for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do order+=("${workloads[i]}"); done
	fi
	for w in "${order[@]}"; do
		for ((r = 0; r < runs; r++)); do
			s=$((seed + r))
			echo "# set $set: $w seed $s"
			bash bench/bench.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 \
				>"$out/set$set/$w.$s.out" || status=1
		done
	done
done

echo "# set 1 vs set 2: median [first quartile, third quartile] per end-to-end metric"
"$root/.bench_build/bench" -compare "$out/set1" "$out/set2" || status=1

for w in "${workloads[@]}"; do
	echo "# traced run: $w"
	bash bench/bench.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
		--spans "$out/spans-$w.json" >"$out/trace-$w.out" || status=1
	grep -v '^{' "$out/trace-$w.out" || true
	GOCACHE="$root/.bench_build/gocache" go run ./cmd/tracecheck "$out/spans-$w.json" || status=1
done
exit $status
