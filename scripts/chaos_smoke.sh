#!/usr/bin/env bash
# Chaos smoke: replay fixed fault-injection seeds against an XMark
# closure through a live fixq cluster. Fails on any coordinator crash,
# missing answer, result divergence from the fault-free single-process
# run, or a schedule that injected too few faults to mean anything.
# Event logs land in $OUT_DIR (default ./chaos-smoke) for CI artifact
# upload.
set -euo pipefail

FIXQ=${FIXQ:-dune exec fixq --}
OUT=${OUT_DIR:-chaos-smoke}
SEEDS=(11 23 42)
RUNS=8
mkdir -p "$OUT"

LOAD='{"op":"load-doc","id":1,"uri":"x.xml","generate":"xmark","size":0.002}'
QUERY='{"op":"run","id":2,"query":"with $x seeded by doc(\"x.xml\")/site/* recurse $x/*","cache":false}'

# fault-free reference result
printf '%s\n' "$LOAD" "$QUERY" '{"op":"shutdown"}' \
  | $FIXQ serve --pipe \
  | sed -n 's/.*"result":"\([^"]*\)".*/\1/p' > "$OUT/reference.txt"
[ -s "$OUT/reference.txt" ] \
  || { echo "chaos-smoke: reference run produced no result" >&2; exit 1; }

# A coordinator must exit 0 within 10 s of answering shutdown.
await_clean_exit() {
  local pid=$1 what=$2 status=0 i
  for i in $(seq 100); do kill -0 "$pid" 2>/dev/null || break; sleep 0.1; done
  if kill -0 "$pid" 2>/dev/null; then
    kill -9 "$pid" 2>/dev/null || true
    echo "chaos-smoke: $what still running 10 s after shutdown" >&2
    exit 1
  fi
  wait "$pid" || status=$?
  [ "$status" -eq 0 ] \
    || { echo "chaos-smoke: $what exited with status $status" >&2; exit 1; }
}

total_events=0
for seed in "${SEEDS[@]}"; do
  D=$(mktemp -d /tmp/fixq-smoke-XXXXXX)
  LOG="$OUT/chaos-seed-$seed.log"
  : > "$LOG"
  # Parity-safe faults only: connection drops (retried / failed over)
  # and delays. Caps keep any single request's worst case inside the
  # retry budget.
  SCHEDULE="seed=$seed"
  SCHEDULE="$SCHEDULE,transport.send=drop:0.2#4,transport.recv=drop:0.2#4"
  SCHEDULE="$SCHEDULE,server.handle=delay1#6,fixpoint.round=delay1#8"
  SCHEDULE="$SCHEDULE,server.handle=delay2:0.3#3"

  $FIXQ cluster --socket "$D/c.sock" --workers 2 --replication 2 \
    --worker-dir "$D/w" --health-interval-ms 3600000 \
    --chaos "$SCHEDULE" --chaos-log "$LOG" 2>"$D/cluster.err" &
  CLUSTER_PID=$!
  for i in $(seq 150); do [ -S "$D/c.sock" ] && break; sleep 0.1; done
  [ -S "$D/c.sock" ] || {
    echo "chaos-smoke: cluster did not come up (seed $seed)" >&2
    cat "$D/cluster.err" >&2
    exit 1
  }

  echo "$LOAD" | $FIXQ client -s "$D/c.sock" | grep -q '"ok":true' \
    || { echo "chaos-smoke: load-doc failed (seed $seed)" >&2; exit 1; }

  : > "$D/runs.txt"
  for i in $(seq $RUNS); do
    echo "$QUERY" | $FIXQ client -s "$D/c.sock" \
      | sed -n 's/.*"result":"\([^"]*\)".*/\1/p' >> "$D/runs.txt"
  done

  echo '{"op":"shutdown"}' | $FIXQ client -s "$D/c.sock" | grep -q '"ok":true' \
    || { echo "chaos-smoke: coordinator crashed under seed $seed" >&2; exit 1; }
  await_clean_exit "$CLUSTER_PID" "coordinator (seed $seed)"

  [ "$(wc -l < "$D/runs.txt")" -eq "$RUNS" ] \
    || { echo "chaos-smoke: dropped answers under seed $seed" >&2; exit 1; }
  sort -u "$D/runs.txt" | cmp -s - "$OUT/reference.txt" \
    || { echo "chaos-smoke: divergent result under seed $seed" >&2; exit 1; }

  events=$(wc -l < "$LOG")
  echo "chaos-smoke: seed $seed ok ($events faults injected, $RUNS runs byte-identical)"
  total_events=$((total_events + events))
  rm -rf "$D"
done

[ "$total_events" -ge 20 ] \
  || { echo "chaos-smoke: only $total_events faults injected (want >= 20)" >&2; exit 1; }

# ---------------------------------------------------------------------
# Durability phase: SIGKILL a stateful server mid-WAL-append and
# mid-snapshot; a cold start over the same state directory must answer
# byte-identically to the fault-free reference.
# ---------------------------------------------------------------------
for point in store.wal store.snapshot; do
  for seed in "${SEEDS[@]}"; do
    D=$(mktemp -d /tmp/fixq-smoke-XXXXXX)
    LOG="$OUT/chaos-durable-$point-seed-$seed.log"
    : > "$LOG"
    # @3: the load and the first snapshot-relevant op land, the third
    # arrival at the point is killed mid-write.
    $FIXQ serve --socket "$D/s.sock" --state-dir "$D/state" \
      --snapshot-threshold 2 \
      --chaos "seed=$seed,$point=kill@3" --chaos-log "$LOG" 2>"$D/serve.err" &
    SERVE_PID=$!
    for i in $(seq 150); do [ -S "$D/s.sock" ] && break; sleep 0.1; done
    [ -S "$D/s.sock" ] || {
      echo "chaos-smoke: stateful server did not come up ($point seed $seed)" >&2
      cat "$D/serve.err" >&2; exit 1; }

    echo "$LOAD" | $FIXQ client -s "$D/s.sock" | grep -q '"ok":true' \
      || { echo "chaos-smoke: load-doc failed ($point seed $seed)" >&2; exit 1; }
    # keep patching until the injected SIGKILL lands (or give up)
    PATCH='{"op":"patch-doc","uri":"x.xml","action":"insert","path":"/site","xml":"<chaos/>"}'
    for i in $(seq 12); do
      kill -0 "$SERVE_PID" 2>/dev/null || break
      echo "$PATCH" | $FIXQ client -s "$D/s.sock" >/dev/null 2>&1 || true
      sleep 0.1
    done
    wait "$SERVE_PID" 2>/dev/null || true
    grep -q "$point kill" "$LOG" \
      || { echo "chaos-smoke: no $point kill fired (seed $seed)" >&2; exit 1; }

    # recovery: cold start, no chaos; the recovered doc must answer and
    # the patched state must equal a single-process replay of the same
    # accepted-op prefix (count the complete WAL/snapshot ops via stats).
    # The SIGKILLed server left its socket file behind — remove it so
    # the readiness loop below waits for the new listener, not the ghost.
    rm -f "$D/s.sock"
    $FIXQ serve --socket "$D/s.sock" --state-dir "$D/state" 2>"$D/serve2.err" &
    SERVE_PID=$!
    for i in $(seq 150); do [ -S "$D/s.sock" ] && break; sleep 0.1; done
    [ -S "$D/s.sock" ] || {
      echo "chaos-smoke: recovery start failed ($point seed $seed)" >&2
      cat "$D/serve2.err" >&2; exit 1; }
    echo '{"op":"stats"}' | $FIXQ client -s "$D/s.sock" \
      | grep -o '"recovered":{[^}]*}' > "$D/recovered.txt" || true
    grep -q '"recovered"' "$D/recovered.txt" \
      || { echo "chaos-smoke: no recovery counters ($point seed $seed)" >&2; exit 1; }
    REC=$(cat "$D/recovered.txt")
    # the doc's generation counts exactly the accepted ops (load = 1,
    # each durable patch +1) — rebuild that prefix in a fresh single
    # process and demand byte parity
    ANSWER=$(echo "$QUERY" | $FIXQ client -s "$D/s.sock")
    GEN=$(echo "$ANSWER" | grep -o '"generation":[0-9]*' | cut -d: -f2)
    [ -n "$GEN" ] && [ "$GEN" -ge 1 ] \
      || { echo "chaos-smoke: recovered doc unusable ($point seed $seed): $REC" >&2; exit 1; }
    echo "$ANSWER" | sed -n 's/.*"result":"\([^"]*\)".*/\1/p' > "$D/got.txt"
    { echo "$LOAD"
      for i in $(seq $((GEN - 1))); do echo "$PATCH"; done
      echo "$QUERY"
      echo '{"op":"shutdown"}'
    } | $FIXQ serve --pipe \
      | sed -n 's/.*"result":"\([^"]*\)".*/\1/p' > "$D/expected.txt"
    cmp -s "$D/expected.txt" "$D/got.txt" \
      || { echo "chaos-smoke: recovery diverged ($point seed $seed): $REC" >&2; exit 1; }
    echo '{"op":"shutdown"}' | $FIXQ client -s "$D/s.sock" >/dev/null
    wait "$SERVE_PID" 2>/dev/null || true
    echo "chaos-smoke: $point kill seed $seed ok (recovered $REC, byte-identical)"
    total_events=$((total_events + 1))
    rm -rf "$D"
  done
done

# ---------------------------------------------------------------------
# Rebalance phase: roll the topology (add a worker, drain one) with a
# SIGKILL landing on a key move; every document must answer
# byte-identically across the roll.
# ---------------------------------------------------------------------
for seed in "${SEEDS[@]}"; do
  D=$(mktemp -d /tmp/fixq-smoke-XXXXXX)
  LOG="$OUT/chaos-rebalance-seed-$seed.log"
  : > "$LOG"
  $FIXQ cluster --socket "$D/c.sock" --workers 2 --replication 1 \
    --worker-dir "$D/w" --health-interval-ms 200 \
    --chaos "seed=$seed,coordinator.rebalance=kill@1" \
    --chaos-log "$LOG" 2>"$D/cluster.err" &
  CLUSTER_PID=$!
  for i in $(seq 150); do [ -S "$D/c.sock" ] && break; sleep 0.1; done
  [ -S "$D/c.sock" ] || {
    echo "chaos-smoke: rebalance cluster did not come up (seed $seed)" >&2
    cat "$D/cluster.err" >&2; exit 1; }

  for i in 0 1 2 3 4 5; do
    echo '{"op":"load-doc","uri":"d'$i'.xml","generate":"xmark","size":0.001}' \
      | $FIXQ client -s "$D/c.sock" | grep -q '"ok":true' \
      || { echo "chaos-smoke: rebalance load d$i failed (seed $seed)" >&2; exit 1; }
  done
  roll_query() {
    for i in 0 1 2 3 4 5; do
      echo '{"op":"run","query":"with $x seeded by doc(\"d'$i'.xml\")/site/* recurse $x/*","cache":false}' \
        | $FIXQ client -s "$D/c.sock" \
        | sed -n 's/.*"result":"\([^"]*\)".*/\1/p'
    done
  }
  roll_query > "$D/before.txt"
  [ "$(wc -l < "$D/before.txt")" -eq 6 ] \
    || { echo "chaos-smoke: rebalance baseline incomplete (seed $seed)" >&2; exit 1; }

  echo '{"op":"add-worker"}' | $FIXQ client -s "$D/c.sock" \
    | grep -q '"pending":\[\]' \
    || { echo "chaos-smoke: add-worker left pending keys (seed $seed)" >&2; exit 1; }
  grep -q 'coordinator.rebalance kill' "$LOG" \
    || { echo "chaos-smoke: no rebalance kill fired (seed $seed)" >&2; exit 1; }
  echo '{"op":"drain","worker":"w0"}' | $FIXQ client -s "$D/c.sock" \
    | grep -q '"pending":\[\]' \
    || { echo "chaos-smoke: drain left pending keys (seed $seed)" >&2; exit 1; }

  roll_query > "$D/after.txt"
  cmp -s "$D/before.txt" "$D/after.txt" \
    || { echo "chaos-smoke: rebalance diverged (seed $seed)" >&2; exit 1; }

  echo '{"op":"shutdown"}' | $FIXQ client -s "$D/c.sock" | grep -q '"ok":true' \
    || { echo "chaos-smoke: coordinator crashed in rebalance (seed $seed)" >&2; exit 1; }
  await_clean_exit "$CLUSTER_PID" "rebalance coordinator (seed $seed)"
  echo "chaos-smoke: rebalance seed $seed ok (roll byte-identical under kill)"
  total_events=$((total_events + 1))
  rm -rf "$D"
done

echo "chaos-smoke: PASS ($total_events faults across ${#SEEDS[@]} seeds)"
