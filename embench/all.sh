#!/usr/bin/env bash
# Runs every workload in turn, each in a fresh process, and prints each
# one's metrics by name and unit with its operations attempted and failed.
#
#   bash embench/all.sh                          # seed 1, 10 s, untraced
#   SEED=2718 TRACE=1 bash embench/all.sh        # held-out seed, traced
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
status=0
for w in lodo-abt serve-fresh fleet-hot dedup-100k; do
	bash "$here/run.sh" --workload "$w" --seed "${SEED:-1}" \
		--seconds "${SECONDS_PER_RUN:-10}" --trace "${TRACE:-0}" >/dev/null || status=1
done
exit "$status"
