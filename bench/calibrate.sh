#!/usr/bin/env bash
# Runs every workload end to end once per seed on the current tree and writes
# bench/CALIBRATION.md: per metric and workload the median, the extremes, the
# largest deviation from the median and the interquartile spread, each set
# against the metric's regression bound.
#   bench/calibrate.sh [runs=5] [first_seed=1]
set -euo pipefail
cd "$(dirname "$0")/.."
runs=${1:-5}
first=${2:-1}
out=bench/out/calib
rm -rf "$out"
mkdir -p "$out"
for seed in $(seq "$first" $((first + runs - 1))); do
	for w in dash_warm sheet_cold scan_cold ingest_mixed; do
		bash bench/run.sh --workload "$w" --seed "$seed" --seconds 10 --trace 0 >"$out/$w.$seed.log"
		tail -n 1 "$out/$w.$seed.log" >"$out/$w.$seed.json"
	done
done
{
	echo "# Calibration"
	echo
	echo "\`bench/calibrate.sh $runs $first\` on $(nproc) cores, $(go version | cut -d' ' -f3), $(date -u +%Y-%m-%d):"
	echo "$runs end-to-end runs per workload, one seed each (seeds $first-$((first + runs - 1)))."
	echo "The driver gates IQR / median against the bound; the benchmark aims"
	echo "for a third of it."
	echo
	.bench_build/apb-bench report "$out"
} >bench/CALIBRATION.md
