#!/usr/bin/env bash
# Regenerate every artifact into results/: one run per unit of the
# regeneration matrix in EXPERIMENTS.md (listed by scripts/artifacts.sh,
# run by scripts/run_unit.sh), then the schema gate over the host-timed
# BENCH_*.json. Takes a few minutes in release.
set -euo pipefail
cd "$(dirname "$0")/.."

units=$(scripts/artifacts.sh)
while IFS=$'\t' read -r files cmd; do
  echo "== $files"
  # $cmd is the bin and its args; word splitting is intended.
  # shellcheck disable=SC2086
  scripts/run_unit.sh results "$files" $cmd
done <<<"$units"

echo "== validate_bench (schema gate over the perf-trajectory artifacts)"
cargo run -q --release -p bench --bin validate_bench -- results/BENCH_*.json
echo "done — see results/ and EXPERIMENTS.md"
