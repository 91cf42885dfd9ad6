#!/usr/bin/env bash
# Reproduction check: rerun the default experiment driver (`go run
# ./cmd/kexp`, about 4 minutes on a 2-CPU Xeon) and compare its output
# with the stored run in docs/kexp-default-run.txt. Usage:
#
#   scripts/kexp_check.sh
#
# Wall-clock durations (the "built in"/"finished in" lines, Table 3's
# runtimes, the stats section's stage and latency rows) are masked and runs
# of blanks squeezed, since duration widths move the column padding; every
# other character of every line must match. After a change that moves a
# number on purpose, regenerate the stored file with
#
#   go run ./cmd/kexp > docs/kexp-default-run.txt
set -euo pipefail

stored=docs/kexp-default-run.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/kexp" ./cmd/kexp
"$tmp/kexp" > "$tmp/run.txt"

# Masks a Go time.Duration string (0s, 337ms, 1.5µs, 2m34.728s) when it
# stands alone as a token, then squeezes blanks and drops trailing ones.
mask() {
    perl -pe 's/(?<![\w.])(?:\d+m)?\d+(?:\.\d+)?(?:ns|µs|ms|s)(?!\w)/<t>/g; s/[ \t]+/ /g; s/ $//' "$1"
}

if ! diff -u <(mask "$stored") <(mask "$tmp/run.txt") > "$tmp/diff.txt"; then
    cat "$tmp/diff.txt"
    echo "kexp_check: the driver's output differs from $stored (durations masked)" >&2
    exit 1
fi
echo "kexp_check: output matches $stored on every line, durations masked ($(wc -l < "$stored") lines)"
