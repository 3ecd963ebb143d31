#!/usr/bin/env bash
# restart_smoke.sh — end-to-end durability smoke for rlservd.
#
# Boots a fairness-tracking fleet daemon with a checkpoint directory,
# feeds it completion batches (under background /v1/decide load), kills
# it with SIGKILL mid-flight, restarts it on the same directory, and
# asserts:
#
#   1. the fairness report after restart matches the pre-crash state up
#      to the last acked batch (snapshot + WAL replay);
#   2. a client retrying its last batch across the crash is deduplicated
#      (batch_seq survives the restart);
#   3. POST /drain cordons a shard and /readyz flips to 503.
#
# Run from the repository root: ./scripts/restart_smoke.sh
set -euo pipefail

ADDR=127.0.0.1:19273
URL="http://$ADDR"
WORK="$(mktemp -d)"
CKPT="$WORK/ckpt"
PID=""
LOADPID=""

cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
  [ -n "$LOADPID" ] && kill "$LOADPID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "restart-smoke: $*"; }

go build -o "$WORK/rlservd" ./cmd/rlservd

start_daemon() {
  "$WORK/rlservd" -addr "$ADDR" \
    -shard name=a,procs=64,policy=SJF -shard name=b,procs=64,policy=F1 \
    -fair-weight 2 -checkpoint-dir "$CKPT" -checkpoint-interval 1s \
    -decision-cache 256 &
  PID=$!
  for _ in $(seq 1 50); do
    if curl -sf "$URL/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  say "daemon did not come up"; exit 1
}

# One /place probe with an empty completion batch: returns the fairness
# block for user 7 without changing the tracker.
probe() {
  curl -sf "$URL/place" -d '{
    "job": [0, 600, 1, 7],
    "clusters": [{"name":"a","now":0,"free_procs":64,"total_procs":64,"jobs":[]},
                 {"name":"b","now":0,"free_procs":64,"total_procs":64,"jobs":[]}]}' |
    jq -cS .fairness
}

# One completion batch from client "smoke" with the given batch_seq.
feed() {
  curl -sf "$URL/place" -d '{
    "job": [0, 600, 1, 3], "client": "smoke", "batch_seq": '"$1"',
    "clusters": [{"name":"a","now":0,"free_procs":64,"total_procs":64,"jobs":[],
                  "completed": [[7, 9000, 60], [7, 9100, 60]]},
                 {"name":"b","now":0,"free_procs":64,"total_procs":64,"jobs":[],
                  "completed": [[3, 12, 600]]}]}'
}

say "boot"
start_daemon

say "background decide load"
go run ./cmd/experiments -loadgen "$URL" -load-duration 20s -load-conns 2 \
  >/dev/null 2>&1 &
LOADPID=$!

say "feed 5 acked completion batches"
for seq in 1 2 3 4 5; do feed "$seq" >/dev/null; done
PRE="$(probe)"
say "pre-crash fairness: $PRE"
# Let at least one periodic checkpoint land, then keep feeding so the
# WAL beyond the snapshot matters too.
sleep 1.5
for seq in 6 7; do feed "$seq" >/dev/null; done
PRE="$(probe)"
say "pre-crash fairness (final): $PRE"

say "kill -9"
kill -9 "$PID"; wait "$PID" 2>/dev/null || true; PID=""
kill "$LOADPID" 2>/dev/null || true; LOADPID=""

say "restart on the same checkpoint dir"
start_daemon
POST="$(probe)"
say "post-crash fairness: $POST"
if [ "$PRE" != "$POST" ]; then
  say "FAIL: fairness state diverged across the crash"
  say "  pre:  $PRE"
  say "  post: $POST"
  exit 1
fi

say "retry the last acked batch across the crash"
RESP="$(feed 7)"
if ! echo "$RESP" | jq -e '.deduped == true' >/dev/null; then
  say "FAIL: cross-crash retry was not deduplicated: $RESP"
  exit 1
fi
if [ "$(probe)" != "$POST" ]; then
  say "FAIL: deduplicated retry changed the tracker"
  exit 1
fi

say "drain shard a, expect /readyz 503"
curl -sf -X POST "$URL/drain" -d '{"cluster":"a"}' >/dev/null
CODE="$(curl -s -o /dev/null -w '%{http_code}' "$URL/readyz")"
if [ "$CODE" != "503" ]; then
  say "FAIL: /readyz answered $CODE with a drained shard, want 503"
  exit 1
fi
# Placement must route around the cordon even when "a" would win.
PLACED="$(curl -sf "$URL/place" -d '{
  "job": [0, 600, 1, 3],
  "clusters": [{"name":"a","now":0,"free_procs":64,"total_procs":64,"jobs":[]},
               {"name":"b","now":0,"free_procs":8,"total_procs":64,"jobs":[]}]}' |
  jq -r .cluster)"
if [ "$PLACED" != "b" ]; then
  say "FAIL: placement chose drained shard: $PLACED"
  exit 1
fi

say "PASS"
