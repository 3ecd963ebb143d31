#!/usr/bin/env bash
# size.sh — the non-test Go line count of every package, and ceilings on
# the packages the roadmap asks to shrink.
#
# ROADMAP's standing target is internal/serve + internal/fleet <= 6500
# non-test lines. CEILING (serve + fleet) and EXP_CEILING (internal/exp)
# are where the tree stands: lower them in the change that deletes code;
# never raise them to make CI pass.
#
# Run from the repository root: ./scripts/size.sh
set -euo pipefail

CEILING=6818
EXP_CEILING=2478

sum=0
exp=0
while read -r dir; do
  n="$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"
  printf '%6d  %s\n' "$n" "$dir"
  case "$dir" in
    ./internal/serve | ./internal/fleet) sum=$((sum + n)) ;;
    ./internal/exp) exp=$n ;;
  esac
done < <(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' -printf '%h\n' | sort -u)

echo "internal/serve + internal/fleet: $sum non-test lines (ceiling $CEILING, target 6500)"
echo "internal/exp: $exp non-test lines (ceiling $EXP_CEILING)"
if [ "$sum" -gt "$CEILING" ] || [ "$exp" -gt "$EXP_CEILING" ]; then
  echo "over a ceiling: delete code, do not raise CEILING or EXP_CEILING" >&2
  exit 1
fi
