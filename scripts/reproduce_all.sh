#!/usr/bin/env bash
# Regenerate every artifact into results/: one run per row of the
# regeneration matrix in EXPERIMENTS.md (listed by scripts/artifacts.sh),
# then the schema gate over the host-timed BENCH_*.json. Takes a few
# minutes in release.
set -euo pipefail
cd "$(dirname "$0")/.."

rows=$(scripts/artifacts.sh)
while IFS=$'\t' read -r file cmd; do
  echo "== $file"
  # $cmd is the bin and its args; word splitting is intended.
  # shellcheck disable=SC2086
  cargo run -q --release -p bench --bin $cmd > "results/$file" </dev/null
done <<<"$rows"

echo "== validate_bench (schema gate over the perf-trajectory artifacts)"
cargo run -q --release -p bench --bin validate_bench -- results/BENCH_*.json
echo "done — see results/ and EXPERIMENTS.md"
