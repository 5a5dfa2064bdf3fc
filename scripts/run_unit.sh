#!/usr/bin/env bash
# Run one artifact unit (one line of scripts/artifacts.sh) once and write
# its outputs into a directory.
#
#   scripts/run_unit.sh OUT_DIR "FILE..." BIN [ARGS...]
#
# BIN and ARGS go to `cargo run --release -p bench --bin`. A unit with
# several files prints their parts in the listed order, separated by lines
# that hold only a form feed; part i is written to OUT_DIR/FILE_i. Fails
# unless the number of parts equals the number of files. Prints the unit's
# wall seconds when it is done, so every regeneration loop times its units.
set -euo pipefail
cd "$(dirname "$0")/.."
start=$EPOCHREALTIME

out_dir=$1
files=$2
shift 2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cargo run -q --release -p bench --bin "$@" > "$tmp/stdout" </dev/null

# Split into a scratch directory first, so a failed unit leaves OUT_DIR as
# it was.
mkdir "$tmp/parts"
read -ra outs <<<"$files"
for f in "${outs[@]}"; do
  : > "$tmp/parts/$f"
done
awk -v dir="$tmp/parts" -v files="$files" -v cmd="$*" '
  BEGIN { n = split(files, out, " "); part = 1 }
  $0 == "\f" { part++; next }
  part <= n { print > (dir "/" out[part]) }
  END {
    if (part != n) {
      printf "run_unit: `%s` printed %d parts for %d files: %s\n", cmd, part, n, files > "/dev/stderr"
      exit 1
    }
  }
' "$tmp/stdout"
for f in "${outs[@]}"; do
  mv "$tmp/parts/$f" "$out_dir/$f"
done

# Microseconds from $EPOCHREALTIME (always six decimals) in bash integer
# arithmetic: the host has no bc.
us=$((${EPOCHREALTIME/[.,]/} - ${start/[.,]/}))
printf -- '-- %d.%03d s  %s\n' $((us / 1000000)) $((us % 1000000 / 1000)) "$files"
