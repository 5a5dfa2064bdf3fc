#!/usr/bin/env bash
# Regenerate every table, figure, ablation and extension experiment of the
# reproduction into results/ (markdown). Takes a few minutes in release.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

bins=(
  repro_table1 repro_table2 repro_table4 repro_table5 repro_table6
  repro_load_ycsb repro_refresh
  repro_fig2 repro_fig3 repro_fig4 repro_fig5 repro_fig6
  ablation_join_order ablation_rcfile ablation_columnar ablation_readsize
  ablation_mongods ablation_isolation ablation_presplit ablation_pdw_indexes
  ablation_durability ablation_fault_tolerance sensitivity_k
)
for b in "${bins[@]}"; do
  echo "== $b"
  cargo run --release -p bench --bin "$b" > "results/$b.txt"
done
echo "== repro_table3 (the full 22x4 suite)"
cargo run --release -p bench --bin repro_table3 -- --sf 0.02 > results/repro_table3.txt
echo "== repro_fig1"
cargo run --release -p bench --bin repro_fig1 -- --sf 0.02 > results/repro_fig1.txt
echo "== pdw_steps (DES span trace + resource utilization)"
cargo run --release -p bench --bin pdw_steps -- --queries 1,5,19 > results/pdw_steps.txt
echo "== compare_paper (per-query calibration at the two headline scales)"
cargo run --release -p bench --bin compare_paper -- --sf 0.02 --scale 250 > results/compare_paper_250.txt
cargo run --release -p bench --bin compare_paper -- --sf 0.02 --scale 16000 > results/compare_paper_16000.txt
echo "== profile_q5 (passive-probe ASCII timeline for explain Q5)"
cargo run --release -p bench --bin explain -- 5 --sf 0.02 --timeline > results/profile_q5.txt
echo "== profile_ycsb_a (windowed serving-side latency percentiles)"
cargo run --release -p bench --bin profile_ycsb > results/profile_ycsb_a.txt
echo "== concurrent_mix (admission-scheduled mix + measured-wait feedback)"
cargo run --release -p bench --bin concurrent_mix > results/concurrent_mix.txt
echo "== adaptive_mix (mid-flight re-planning from live blame)"
cargo run --release -p bench --bin adaptive_mix > results/adaptive_mix.txt
echo "== critpath_q5 (critical-path blame per phase, both engines)"
cargo run --release -p bench --bin critpath -- 5 --sf 0.02 > results/critpath_q5.txt
echo "== slo_report_a (per-tenant SLO burn rates from the streaming registry)"
cargo run --release -p bench --bin slo_report > results/slo_report_a.txt
echo "== bench_scan (REAL wall-clock decode throughput — host-dependent, not diff-gated)"
cargo run --release -p bench --bin bench_scan > results/BENCH_scan.json
echo "== bench_simlint (REAL wall-clock lint speed over the workspace — host-dependent, not diff-gated)"
cargo run --release -p bench --bin bench_simlint > results/BENCH_simlint.json
echo "== bench_kernel (REAL wall-clock kernel event throughput — host-dependent, not diff-gated)"
cargo run --release -p bench --bin bench_kernel > results/BENCH_kernel.json
echo "== bench_obs (REAL wall-clock probe overhead + passivity proof — host-dependent, not diff-gated)"
cargo run --release -p bench --bin bench_obs > results/BENCH_obs.json
echo "== validate_bench (schema gate over the perf-trajectory artifacts)"
cargo run --release -p bench --bin validate_bench -- results/BENCH_*.json
echo "done — see results/ and EXPERIMENTS.md"
