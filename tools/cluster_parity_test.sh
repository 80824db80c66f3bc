#!/usr/bin/env bash
# Multi-process cluster acceptance test (run by ctest as
# `cluster_parity`):
#
#  1. a 4-worker localhost TCP cluster trains a seeded forest
#     byte-identical to the in-process transport on the same
#     seed/config;
#  2. SIGKILL-ing one worker mid-job trips dead-peer detection and the
#     job still completes — with the same bytes — via the k-replica
#     recovery path;
#  3. the in-process reference run with --trace writes a one-process
#     Chrome trace that passes treeserver_top --validate-trace;
#  4. observability: the same cluster with tracing + HTTP endpoints on
#     serves /metrics + /statusz from every rank mid-job, the master
#     writes a merged Chrome trace with one lane per rank, and the
#     forest bytes are still identical (observability must not perturb
#     training).
set -euo pipefail

NODE="${TREESERVER_NODE:?set TREESERVER_NODE to the treeserver_node binary}"
TOP="${TREESERVER_TOP:?set TREESERVER_TOP to the treeserver_top binary}"
WORKERS=4
TMP="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

# Common job/dataset config. Big enough that the crash run is still
# mid-job ~half a second in; deterministic in the seeds.
FLAGS=(--workers=$WORKERS --rows=40000 --features=16 --categorical=4
       --classes=3 --data-seed=7 --trees=12 --max-depth=10 --min-leaf=4
       --job-seed=3 --compers=2 --replication=2)

peers_for() {
  local base=$1 peers=""
  for ((i = 0; i < WORKERS; i++)); do
    peers+="127.0.0.1:$((base + i)),"
  done
  echo "${peers}127.0.0.1:$((base + WORKERS))"
}

# Polls /healthz on 127.0.0.1:$1 until the endpoint answers (the HTTP
# server mounts before training starts, so this converges fast).
wait_healthy() {
  local port=$1
  for _ in $(seq 1 50); do
    if "$TOP" --fetch="127.0.0.1:$port/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "FAIL: 127.0.0.1:$port/healthz never came up" >&2
  return 1
}

# Fetches /metrics and /statusz from 127.0.0.1:$1 and asserts the
# samples a rank of role $2 (master|worker) must expose.
probe_rank() {
  local port=$1 role=$2
  local metrics statusz
  metrics="$("$TOP" --fetch="127.0.0.1:$port/metrics")"
  statusz="$("$TOP" --fetch="127.0.0.1:$port/statusz")"
  grep -q "trace_dropped_spans" <<<"$metrics" || {
    echo "FAIL: $role :$port /metrics lacks trace_dropped_spans" >&2
    return 1
  }
  if [[ "$role" == master ]]; then
    grep -q "engine_tasks_scheduled" <<<"$metrics" &&
      grep -q "net_bytes_sent_total" <<<"$metrics" || {
      echo "FAIL: master :$port /metrics lacks engine_/net_ samples" >&2
      return 1
    }
  else
    grep -q "engine_tasks_computed" <<<"$metrics" || {
      echo "FAIL: worker :$port /metrics lacks engine_tasks_computed" >&2
      return 1
    }
  fi
  grep -q "\"role\":\"$role\"" <<<"$statusz" || {
    echo "FAIL: $role :$port /statusz missing role (got: $statusz)" >&2
    return 1
  }
}

# run_cluster <out-file> <kill-worker-rank-or-empty> <base-port>
#             [http-base-port]
# With an http base port, every rank serves introspection HTTP (rank i
# on http_base+i, master on http_base+WORKERS), tracing is on, and the
# master writes the merged trace to $TMP/trace.json; the ranks are
# probed over HTTP while the job runs.
run_cluster() {
  local out=$1 kill_rank=$2 base=$3 http_base=${4:-}
  local peers; peers="$(peers_for "$base")"
  local wpids=()
  for ((i = 0; i < WORKERS; i++)); do
    local wobs=()
    [[ -n "$http_base" ]] &&
      wobs=(--http-port=$((http_base + i)) --trace=1)
    "$NODE" --rank="$i" --peers="$peers" "${FLAGS[@]}" \
      ${wobs[@]+"${wobs[@]}"} \
      --heartbeat-ms=20 --miss-limit=10 2>"$TMP/w$i.log" &
    wpids+=($!)
    PIDS+=($!)
  done
  local mobs=()
  [[ -n "$http_base" ]] &&
    mobs=(--http-port=$((http_base + WORKERS)) --trace=1
          --trace-out="$TMP/trace.json")
  "$NODE" --rank=master --peers="$peers" "${FLAGS[@]}" \
    ${mobs[@]+"${mobs[@]}"} \
    --heartbeat-ms=20 --miss-limit=10 --out="$out" 2>"$TMP/master.log" &
  local master_pid=$!
  PIDS+=("$master_pid")

  if [[ -n "$http_base" ]]; then
    wait_healthy $((http_base + WORKERS))
    probe_rank $((http_base + WORKERS)) master
    for ((i = 0; i < WORKERS; i++)); do
      wait_healthy $((http_base + i))
      probe_rank $((http_base + i)) worker
    done
    echo "PASS: /metrics + /statusz served by all $((WORKERS + 1)) ranks"
  fi

  if [[ -n "$kill_rank" ]]; then
    # Let the handshake finish and the job start, then kill abruptly.
    sleep 0.5
    kill -9 "${wpids[$kill_rank]}" 2>/dev/null || true
  fi

  if ! wait "$master_pid"; then
    echo "FAIL: master exited non-zero (log below)" >&2
    cat "$TMP/master.log" >&2
    return 1
  fi
  for ((i = 0; i < WORKERS; i++)); do
    wait "${wpids[$i]}" 2>/dev/null || true
  done
  PIDS=()
  return 0
}

echo "== in-process reference =="
"$NODE" --mode=inproc "${FLAGS[@]}" --out="$TMP/ref.bin"
[[ -s "$TMP/ref.bin" ]] || { echo "FAIL: empty reference forest" >&2; exit 1; }

echo "== in-process reference with --trace =="
"$NODE" --mode=inproc "${FLAGS[@]}" --trace=1 \
  --trace-out="$TMP/inproc_trace.json" --out="$TMP/inproc_traced.bin"
[[ -s "$TMP/inproc_trace.json" ]] || {
  echo "FAIL: --mode=inproc wrote no trace" >&2
  exit 1
}
"$TOP" --validate-trace="$TMP/inproc_trace.json" --expect-ranks=0 || {
  echo "FAIL: in-process trace invalid" >&2
  exit 1
}
cmp "$TMP/ref.bin" "$TMP/inproc_traced.bin" || {
  echo "FAIL: in-process forest changed with tracing enabled" >&2
  exit 1
}
echo "PASS: in-process trace written and valid, training bytes unperturbed"

echo "== 4-worker TCP cluster =="
run_cluster "$TMP/tcp.bin" "" $((21000 + RANDOM % 10000))
cmp "$TMP/ref.bin" "$TMP/tcp.bin" || {
  echo "FAIL: TCP forest differs from in-process forest" >&2
  exit 1
}
echo "PASS: TCP forest byte-identical to in-process"

echo "== 4-worker TCP cluster, SIGKILL worker 2 mid-job =="
run_cluster "$TMP/crash.bin" 2 $((21000 + RANDOM % 10000))
grep -q "declaring dead" "$TMP/master.log" || {
  echo "note: master log has no dead-peer line (job may have finished" \
       "before the kill); accepting if output matches" >&2
}
cmp "$TMP/ref.bin" "$TMP/crash.bin" || {
  echo "FAIL: post-crash forest differs from reference" >&2
  exit 1
}
echo "PASS: job survived SIGKILL'd worker with identical output"

echo "== observability: endpoints on every rank + merged trace =="
# HTTP ports stay below Linux's ephemeral range (32768+), where
# concurrently running tests hold client and listen ports.
run_cluster "$TMP/obs.bin" "" $((21000 + RANDOM % 10000)) \
  $((11000 + RANDOM % 10000))
[[ -s "$TMP/trace.json" ]] || {
  echo "FAIL: master wrote no merged trace" >&2
  exit 1
}
"$TOP" --validate-trace="$TMP/trace.json" --expect-ranks="$WORKERS" || {
  echo "FAIL: merged trace invalid (lanes/causality)" >&2
  exit 1
}
cmp "$TMP/ref.bin" "$TMP/obs.bin" || {
  echo "FAIL: forest changed with observability enabled" >&2
  exit 1
}
echo "PASS: observability plane live on all ranks, trace merged," \
     "training bytes unperturbed"
