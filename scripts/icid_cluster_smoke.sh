#!/usr/bin/env sh
# End-to-end smoke test for icid's cluster routing and persistent proof
# store, run in CI.
#
# Boots a 2-node cluster (each node with its own on-disk store),
# submits the same model to both nodes, and asserts the consistent-hash
# contract: exactly one node computed it (one attempt cluster-wide),
# the other answered via a forward or a cache tier. Then the owning
# node is SIGTERM-restarted and the model is resubmitted to it,
# asserting the verdict now comes from the on-disk store — no
# recomputation after a process restart.
#
# Plain POSIX sh + curl + grep; no jq, so it runs on a bare CI image.
set -eu

ADDR1="127.0.0.1:8447"
ADDR2="127.0.0.1:8448"
BASE1="http://$ADDR1"
BASE2="http://$ADDR2"
TMP="${TMPDIR:-/tmp}"
LOG1="$TMP/icid_cluster_1.log"
LOG2="$TMP/icid_cluster_2.log"
STORE1="$TMP/icid_cluster_store_1"
STORE2="$TMP/icid_cluster_store_2"
rm -rf "$STORE1" "$STORE2"
mkdir -p "$STORE1" "$STORE2"

fail() {
	echo "icid_cluster_smoke: FAIL: $*" >&2
	for log in "$LOG1" "$LOG2"; do
		echo "--- $log ---" >&2
		cat "$log" >&2 || true
	done
	exit 1
}

# mval NAME BASE — read one integer counter from BASE/metrics.
mval() {
	curl -sf "$2/metrics" | tr ',' '\n' | grep "\"$1\":" |
		grep -o '[0-9][0-9]*' | head -n 1
}

# start_node ADDR PEER STORE LOG — boot one cluster member.
start_node() {
	"$TMP/icid" -addr "$1" -self "$1" -peers "$2" -store "$3" \
		-workers 2 -drain 20s >>"$4" 2>&1 &
}

wait_healthy() {
	i=0
	until curl -sf "$1/healthz" >/dev/null 2>&1; do
		i=$((i + 1))
		[ "$i" -ge 50 ] && fail "node $1 never became healthy"
		sleep 0.2
	done
	curl -sf "$1/healthz" | grep -q '"status":"ok"' || fail "$1 healthz not ok"
}

# A node that booted before its peer marks it down on the first probe
# and rediscovers it on the next round; routing asserts below need the
# settled view, so wait until this node sees its peer alive.
wait_peer_alive() {
	i=0
	until curl -sf "$1/cluster" | grep -q '"alive":true'; do
		i=$((i + 1))
		[ "$i" -ge 100 ] && fail "node $1 never saw its peer alive"
		sleep 0.2
	done
}

echo "icid_cluster_smoke: building"
go build -o "$TMP/icid" ./cmd/icid

echo "icid_cluster_smoke: starting the 2-node cluster"
start_node "$ADDR1" "$ADDR2" "$STORE1" "$LOG1"
PID1=$!
start_node "$ADDR2" "$ADDR1" "$STORE2" "$LOG2"
PID2=$!
trap 'kill "$PID1" "$PID2" 2>/dev/null || true' EXIT
wait_healthy "$BASE1"
wait_healthy "$BASE2"
wait_peer_alive "$BASE1"
wait_peer_alive "$BASE2"

# Both nodes see the same 2-member ring and report their identity.
curl -sf "$BASE1/cluster" | grep -q '"enabled":true' || fail "node 1 cluster disabled"
curl -sf "$BASE1/healthz" | grep -q '"cluster_role":"member"' || fail "node 1 not a member"
curl -sf "$BASE1/healthz" | grep -q '"store_path":' || fail "node 1 store path missing"
curl -sf "$BASE1/healthz" | grep -q '"version":' || fail "node 1 version missing"

echo "icid_cluster_smoke: submitting the same model to both nodes"
REQ='{"builtin":"fifo","params":{"depth":4},"engine":"XICI","wait":true}'
R1=$(curl -sf "$BASE1/jobs" -d "$REQ") || fail "submit to node 1 rejected"
R2=$(curl -sf "$BASE2/jobs" -d "$REQ") || fail "submit to node 2 rejected"
printf '%s' "$R1" | grep -q '"outcome":"verified"' || fail "node 1 verdict: $R1"
printf '%s' "$R2" | grep -q '"outcome":"verified"' || fail "node 2 verdict: $R2"

# Both submissions name the same executing node — the key's owner.
NODE1=$(printf '%s' "$R1" | tr ',' '\n' | grep '"node":' | head -n 1)
NODE2=$(printf '%s' "$R2" | tr ',' '\n' | grep '"node":' | head -n 1)
[ -n "$NODE1" ] && [ "$NODE1" = "$NODE2" ] ||
	fail "submissions executed on different nodes: [$NODE1] vs [$NODE2]"
case "$NODE1" in
*"$ADDR1"*) OWNER_BASE="$BASE1" OWNER_PID=$PID1 OWNER_ADDR="$ADDR1" OWNER_PEER="$ADDR2" OWNER_STORE="$STORE1" OWNER_LOG="$LOG1" ;;
*"$ADDR2"*) OWNER_BASE="$BASE2" OWNER_PID=$PID2 OWNER_ADDR="$ADDR2" OWNER_PEER="$ADDR1" OWNER_STORE="$STORE2" OWNER_LOG="$LOG2" ;;
*) fail "unrecognized executing node: $NODE1" ;;
esac
echo "icid_cluster_smoke: owner is $OWNER_ADDR"

# Exactly one computation cluster-wide; the second submission hit a
# cache tier on the owner, and one of the two was forwarded in.
ATTEMPTS=$(($(mval attempts "$BASE1") + $(mval attempts "$BASE2")))
[ "$ATTEMPTS" -eq 1 ] || fail "cluster computed $ATTEMPTS attempts, want exactly 1"
[ "$(mval cache_hits "$OWNER_BASE")" -eq 1 ] || fail "owner cache_hits != 1"
[ "$(mval forwarded_in "$OWNER_BASE")" -eq 1 ] || fail "owner forwarded_in != 1"
LOOKUPS=$(mval cache_lookups "$OWNER_BASE")
SUM=$(($(mval cache_memory_hits "$OWNER_BASE") + $(mval cache_store_hits "$OWNER_BASE") + $(mval cache_misses "$OWNER_BASE")))
[ "$LOOKUPS" -eq "$SUM" ] || fail "owner cache_lookups $LOOKUPS != tier sum $SUM"

echo "icid_cluster_smoke: SIGTERM-restarting the owner"
kill -TERM "$OWNER_PID"
i=0
while kill -0 "$OWNER_PID" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -ge 150 ] && fail "owner did not exit after SIGTERM"
	sleep 0.2
done
grep -q "drained cleanly" "$OWNER_LOG" || fail "owner drain banner missing"

start_node "$OWNER_ADDR" "$OWNER_PEER" "$OWNER_STORE" "$OWNER_LOG"
OWNER_PID=$!
trap 'kill "$PID1" "$PID2" "$OWNER_PID" 2>/dev/null || true' EXIT
wait_healthy "$OWNER_BASE"
grep -q "icid: store" "$OWNER_LOG" || fail "restarted owner did not report store recovery"

echo "icid_cluster_smoke: resubmitting after the restart"
R3=$(curl -sf "$OWNER_BASE/jobs" -d "$REQ") || fail "post-restart submit rejected"
printf '%s' "$R3" | grep -q '"cached":true' || fail "post-restart not served from store: $R3"
printf '%s' "$R3" | grep -q '"outcome":"verified"' || fail "post-restart verdict: $R3"
[ "$(mval cache_store_hits "$OWNER_BASE")" -eq 1 ] ||
	fail "post-restart verdict did not come from the disk store"
[ "$(mval attempts "$OWNER_BASE")" -eq 0 ] || fail "owner recomputed after restart"

echo "icid_cluster_smoke: PASS"
