#!/usr/bin/env bash
# size.sh — the non-test line count of every package (Go and assembly
# sources), and ceilings on the packages the roadmap asks to shrink.
#
# ROADMAP's standing target is internal/serve + internal/fleet <= 6500
# non-test lines. CEILING (serve + fleet), SIM_CEILING (internal/sim +
# internal/core), EXP_CEILING (internal/exp) and CMD_CEILING (cmd/ and
# examples/) are where the tree stands: lower them in the change that
# deletes code; never raise them to make CI pass.
#
# Run from the repository root: ./scripts/size.sh
set -euo pipefail

CEILING=6352
SIM_CEILING=1297
EXP_CEILING=2047
CMD_CEILING=858

sum=0
simcore=0
exp=0
cmd=0
while read -r dir; do
  n="$(find "$dir" -maxdepth 1 \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) -exec cat {} + | wc -l)"
  printf '%6d  %s\n' "$n" "$dir"
  case "$dir" in
    ./internal/serve | ./internal/fleet) sum=$((sum + n)) ;;
    ./internal/sim | ./internal/core) simcore=$((simcore + n)) ;;
    ./internal/exp) exp=$n ;;
    ./cmd/* | ./examples/*) cmd=$((cmd + n)) ;;
  esac
done < <(find . \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) ! -path './.git/*' -printf '%h\n' | sort -u)

echo "internal/serve + internal/fleet: $sum non-test lines (ceiling $CEILING, target 6500)"
echo "internal/sim + internal/core: $simcore non-test lines (ceiling $SIM_CEILING)"
echo "internal/exp: $exp non-test lines (ceiling $EXP_CEILING)"
echo "cmd + examples: $cmd non-test lines (ceiling $CMD_CEILING)"
if [ "$sum" -gt "$CEILING" ] || [ "$simcore" -gt "$SIM_CEILING" ] || [ "$exp" -gt "$EXP_CEILING" ] || [ "$cmd" -gt "$CMD_CEILING" ]; then
  echo "over a ceiling: delete code, do not raise CEILING, SIM_CEILING, EXP_CEILING or CMD_CEILING" >&2
  exit 1
fi
