#!/usr/bin/env bash
# The artifact manifest: prints one `files<TAB>command` line per unit of
# the regeneration matrix in EXPERIMENTS.md, the only list of what results/
# holds. Matrix rows that share a command cell form one unit, run once;
# `files` lists their files, space-separated, in row order, which is the
# order the unit prints its parts (see scripts/run_unit.sh). `command` is
# the bin and its args, as passed to `cargo run --release -p bench --bin`.
# A `.txt` file is deterministic and byte-gated; a `.json` file is a
# host-timed BENCH artifact.
# Fails unless every matrix row names one file, the rows name exactly the
# files in results/, and no unit mixes `.txt` and `.json` files.
set -euo pipefail
cd "$(dirname "$0")/.."

# Matrix rows are the lines of the section's table below its header and
# rule; each must hold one backticked file name, then one backticked
# command.
rows=$(awk -F'`' '
  /^## / { in_matrix = ($0 == "## Regeneration matrix"); line = 0; next }
  !in_matrix { next }
  !/^\|/ { if (line) in_matrix = 0; next }
  ++line <= 2 { next }
  /^\| `/ && $3 == " | " && $2 !~ / / { print $2 "\t" $4; next }
  { print "artifacts: EXPERIMENTS.md matrix row names no file: " $0 > "/dev/stderr"; bad = 1 }
  END { exit bad }
' EXPERIMENTS.md)

if ! diff <(cut -f1 <<<"$rows" | sort) <(ls results | sort) >&2; then
  echo "artifacts: EXPERIMENTS.md matrix rows (<) and results/ files (>) differ" >&2
  exit 1
fi

awk -F'\t' '
  !($2 in files) { order[++n] = $2; files[$2] = $1; next }
  { files[$2] = files[$2] " " $1 }
  END {
    for (i = 1; i <= n; i++) {
      c = order[i]
      if (files[c] ~ /\.txt( |$)/ && files[c] ~ /\.json( |$)/) {
        printf "artifacts: unit `%s` mixes .txt and .json files: %s\n", c, files[c] > "/dev/stderr"
        bad = 1
      }
    }
    if (bad) exit 1
    for (i = 1; i <= n; i++) print files[order[i]] "\t" order[i]
  }
' <<<"$rows"
