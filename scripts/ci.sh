#!/usr/bin/env bash
# The CI gate: formatting, lints (warnings are errors), docs, the full test
# suite, and every deterministic artifact regenerated byte-identical.
# .github/workflows/ci.yml runs this script and nothing else, so a local
# run is the CI run.
set -euo pipefail
cd "$(dirname "$0")/.."

# A green run leaves the checkout as it found it (checked at the end).
status_at_start=$(git status --porcelain)
tmp=$(mktemp -d)
# On any exit, put back bench_e2e's lock if its step saved it.
trap '[ ! -f "$tmp/bench_e2e.lock" ] || cp "$tmp/bench_e2e.lock" bench_e2e/Cargo.lock; rm -rf "$tmp"' EXIT

echo "== artifact manifest (EXPERIMENTS.md matrix rows == results/ files)"
# Read once, first: a manifest that disagrees with results/ fails in seconds.
units=$(scripts/artifacts.sh)

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== simlint"
# The determinism lint must pass on the tree; its JSON diagnostics feed the
# workflow's problem matcher (.github/simlint-problem-matcher.json), so
# violations annotate the PR diff...
cargo run -q -p simlint -- --format json
# ...every inline suppression must still suppress something (a stale allow
# is dead policy and rots silently otherwise)...
cargo run -q -p simlint -- --list-allows --strict >/dev/null
# ...and the gate must still *bite*: a deliberately seeded violation tree
# has to make it exit nonzero, or the gates above are vacuous.
if cargo run -q -p simlint -- --root crates/simlint/tests/fixtures/selftest \
    >/dev/null 2>&1; then
  echo "simlint self-test FAILED: expected violations in the selftest tree" >&2
  exit 1
fi

echo "== cargo doc (-D warnings)"
# Doc rot (broken intra-doc links, malformed rustdoc) fails the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== cargo test"
cargo test -q --workspace

echo "== bench_e2e tests (standalone package, outside the workspace)"
# bench_e2e builds against the workspace crates by path but is not a
# member, so the workspace test run above would not notice a change to a
# public API it uses. Building it rewrites bench_e2e/Cargo.lock (the lock
# still lists `bytes`, which no crate uses), and bench_e2e/ changes only
# with the benchmark, so the lock is put back afterwards.
cp bench_e2e/Cargo.lock "$tmp/bench_e2e.lock"
cargo test -q --offline --manifest-path bench_e2e/Cargo.toml
cp "$tmp/bench_e2e.lock" bench_e2e/Cargo.lock

echo "== artifacts (every results/*.txt regenerates byte-identical)"
# The regeneration matrix in EXPERIMENTS.md is the artifact list. A .txt
# artifact is deterministic end to end, so regenerating it must reproduce
# the committed bytes. A .json artifact is a host-timed BENCH file,
# schema-gated below instead. Each unit runs once, whatever its file count,
# and run_unit.sh prints its wall seconds: this log is the per-artifact
# timing record.
drift=()
while IFS=$'\t' read -r files cmd; do
  [[ $files == *.txt ]] || continue
  echo "-- $files"
  # $cmd is the bin and its args; word splitting is intended.
  # shellcheck disable=SC2086
  scripts/run_unit.sh "$tmp" "$files" $cmd
  for file in $files; do
    diff -u "results/$file" "$tmp/$file" || drift+=("$file")
  done
done <<<"$units"
if [ ${#drift[@]} -gt 0 ]; then
  echo "artifact drift: ${drift[*]}" >&2
  exit 1
fi

echo "== trace exports (structural validation)"
# The artifact runs above gate these bins' stdout; here only their Chrome
# Trace Event exports are checked: well-formed JSON, balanced lanes, nested
# spans, and both named processes present.
cargo run -q --release -p bench --bin explain -- 5 --sf 0.02 --trace "$tmp/q5.json" >/dev/null
cargo run -q --release -p bench --bin validate_trace -- "$tmp/q5.json" hive pdw
cargo run -q --release -p bench --bin critpath -- 5 --sf 0.02 --trace "$tmp/critpath.json" >/dev/null
cargo run -q --release -p bench --bin validate_trace -- "$tmp/critpath.json" hive pdw
cargo run -q --release -p bench --bin concurrent_mix -- --trace "$tmp/mix.json" >/dev/null
cargo run -q --release -p bench --bin validate_trace -- "$tmp/mix.json" mix mix-feedback

echo "== bench smoke (harnesses run end to end + schema gate over BENCH_*.json)"
# BENCH_*.json timings are host-dependent, so the schema gate keeps them
# honest instead of a byte diff. The smoke runs prove the harnesses still
# execute (bench_obs also asserts probed == unprobed kernel event counts);
# validate_bench then checks the smoke output and every committed BENCH
# artifact for the machine/config annotations and per-bench fields the
# docs read.
cargo run -q --release -p bench --bin bench_kernel -- --smoke > "$tmp/BENCH_kernel_smoke.json"
cargo run -q --release -p bench --bin bench_obs -- --iters 1 > "$tmp/BENCH_obs_smoke.json"
cargo run -q --release -p bench --bin validate_bench -- \
  "$tmp/BENCH_kernel_smoke.json" "$tmp/BENCH_obs_smoke.json" results/BENCH_*.json

echo "== stale-fixture check (every results/ file the docs name exists)"
# The prose and drift logs cite results/ files too; a renamed or deleted
# artifact must not leave a dangling reference behind. ROADMAP.md is left
# out: it names files that are planned, not yet made.
missing=0
for doc in EXPERIMENTS.md README.md ARCHITECTURE.md DESIGN.md PERFORMANCE.md; do
  for f in $(grep -o 'results/[A-Za-z0-9_.-]*\.[a-z]*' "$doc" | sort -u); do
    if [ ! -f "$f" ]; then
      echo "$doc names $f but it does not exist" >&2
      missing=1
    fi
  done
done
[ "$missing" -eq 0 ]

echo "== checkout unchanged (git status --porcelain as at the start)"
status_at_end=$(git status --porcelain)
if [ "$status_at_end" != "$status_at_start" ]; then
  echo "the run changed the checkout:" >&2
  diff <(echo "$status_at_start") <(echo "$status_at_end") >&2 || true
  exit 1
fi

echo "ci: all green"
