#!/usr/bin/env bash
# The artifact manifest: prints one `file<TAB>command` line per row of the
# regeneration matrix in EXPERIMENTS.md, the only list of what results/
# holds. `command` is the bin and its args, as passed to
# `cargo run --release -p bench --bin`. A `.txt` file is deterministic and
# byte-gated; a `.json` file is a host-timed BENCH artifact.
# Fails unless the rows name exactly the files in results/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Matrix rows are those whose first cell is one backticked file name.
rows=$(awk -F'`' '
  /^## / { in_matrix = ($0 == "## Regeneration matrix"); next }
  in_matrix && /^\| `/ && $3 == " | " { print $2 "\t" $4 }
' EXPERIMENTS.md)

if ! diff <(cut -f1 <<<"$rows" | sort) <(ls results | sort) >&2; then
  echo "artifacts: EXPERIMENTS.md matrix rows (<) and results/ files (>) differ" >&2
  exit 1
fi
printf '%s\n' "$rows"
