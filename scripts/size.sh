#!/usr/bin/env bash
# size.sh — the non-test Go line count of every package, and a ceiling on
# the two packages the roadmap asks to shrink.
#
# ROADMAP's standing target is internal/serve + internal/fleet <= 6500
# non-test lines. CEILING is where the tree stands: lower it in the change
# that deletes code; never raise it to make CI pass.
#
# Run from the repository root: ./scripts/size.sh
set -euo pipefail

CEILING=7648

sum=0
while read -r dir; do
  n="$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"
  printf '%6d  %s\n' "$n" "$dir"
  case "$dir" in ./internal/serve | ./internal/fleet) sum=$((sum + n)) ;; esac
done < <(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' -printf '%h\n' | sort -u)

echo "internal/serve + internal/fleet: $sum non-test lines (ceiling $CEILING, target 6500)"
if [ "$sum" -gt "$CEILING" ]; then
  echo "over the ceiling: delete code, do not raise CEILING" >&2
  exit 1
fi
