#!/usr/bin/env sh
# End-to-end smoke test for the icid verification service, run in CI.
#
# Builds the daemon, starts it, checks that a request with the removed
# flat "size" field is a 400 naming it, submits the FIFO builtin over HTTP,
# follows the job's NDJSON event stream to its final line, asserts the
# verdict, checks the /metrics invariants, then submits a 3-model
# batch with a portfolio escalation policy, follows the multiplexed
# batch stream to EOF, asserts the per-member verdicts and the
# batch-extended metrics invariants, and finally sends SIGTERM and
# asserts a clean graceful drain (exit 0 and the drain banner).
#
# Plain POSIX sh + curl + grep; no jq, so it runs on a bare CI image.
set -eu

ADDR="127.0.0.1:8437"
BASE="http://$ADDR"
LOG="${TMPDIR:-/tmp}/icid_smoke.log"

fail() {
	echo "icid_smoke: FAIL: $*" >&2
	echo "--- daemon log ---" >&2
	cat "$LOG" >&2 || true
	exit 1
}

echo "icid_smoke: building"
go build -o "${TMPDIR:-/tmp}/icid" ./cmd/icid

echo "icid_smoke: starting daemon on $ADDR"
"${TMPDIR:-/tmp}/icid" -addr "$ADDR" -workers 2 -drain 20s >"$LOG" 2>&1 &
ICID_PID=$!
trap 'kill "$ICID_PID" 2>/dev/null || true' EXIT

# Wait for liveness.
i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -ge 50 ] && fail "daemon never became healthy"
	sleep 0.2
done
curl -sf "$BASE/healthz" | grep -q '"status":"ok"' || fail "healthz not ok"

echo "icid_smoke: the removed flat size field is a 400 that names it"
REMOVED=$(curl -s -w '\n%{http_code}' "$BASE/jobs" \
	-d '{"builtin":"fifo","size":4}') || fail "request with \"size\" failed"
printf '%s\n' "$REMOVED" | tail -n 1 | grep -qx '400' ||
	fail "\"size\" not rejected with 400: $REMOVED"
printf '%s\n' "$REMOVED" | grep -q 'unknown field .*size' ||
	fail "400 body does not name \"size\": $REMOVED"

echo "icid_smoke: submitting the fifo builtin"
SUBMIT=$(curl -sf "$BASE/jobs" \
	-d '{"builtin":"fifo","params":{"depth":4},"engine":"XICI"}') ||
	fail "submission rejected"
# {"id":"j000001","cached":false} — extract the id without jq.
ID=$(printf '%s' "$SUBMIT" | tr -d '"{} ' | tr ',' '\n' |
	grep '^id:' | cut -d: -f2)
[ -n "$ID" ] || fail "no job id in response: $SUBMIT"
echo "icid_smoke: job $ID"

echo "icid_smoke: following the event stream"
EVENTS=$(curl -sfN "$BASE/jobs/$ID/events") || fail "event stream failed"
printf '%s\n' "$EVENTS" | grep -q '"event":"iteration"' ||
	fail "no iteration events in stream: $EVENTS"
printf '%s\n' "$EVENTS" | tail -n 1 | grep -q '"event":"done"' ||
	fail "stream did not end with the done line: $EVENTS"
printf '%s\n' "$EVENTS" | tail -n 1 | grep -q '"outcome":"verified"' ||
	fail "final line is not a verified verdict: $EVENTS"

echo "icid_smoke: checking job status and metrics"
curl -sf "$BASE/jobs/$ID" | grep -q '"outcome":"verified"' ||
	fail "status does not report the verified result"
METRICS=$(curl -sf "$BASE/metrics") || fail "metrics failed"
printf '%s' "$METRICS" | grep -q '"submitted": 1' || fail "submitted != 1: $METRICS"
printf '%s' "$METRICS" | grep -q '"completed": 1' || fail "completed != 1: $METRICS"
printf '%s' "$METRICS" | grep -q '"verified": 1' || fail "verified != 1: $METRICS"
for key in bdd_mapped_bytes go_heap_inuse_bytes; do
	printf '%s' "$METRICS" | grep -q "\"$key\": [0-9]" || fail "$key missing: $METRICS"
done

echo "icid_smoke: submitting a 3-model batch with escalation policy"
BSUBMIT=$(curl -sf "$BASE/batches" -d '{
	"jobs": [
		{"builtin":"fifo","params":{"depth":3}},
		{"builtin":"fsm/door"},
		{"builtin":"link","params":{"data-bits":1,"bug":1},"name":"link-bug"}
	],
	"policy": ["FD","XICI"],
	"slice": {"node_limit": 64}
}') || fail "batch submission rejected"
BID=$(printf '%s' "$BSUBMIT" | tr -d '"{} ' | tr ',' '\n' |
	grep '^id:' | cut -d: -f2)
[ -n "$BID" ] || fail "no batch id in response: $BSUBMIT"
echo "icid_smoke: batch $BID"

echo "icid_smoke: following the multiplexed batch stream to EOF"
BEVENTS=$(curl -sfN "$BASE/batches/$BID/events") || fail "batch stream failed"
printf '%s\n' "$BEVENTS" | head -n 1 | grep -q '"event":"batch"' ||
	fail "stream does not open with the batch line: $BEVENTS"
printf '%s\n' "$BEVENTS" | grep -q '"member":"' ||
	fail "no member-labeled lines in batch stream: $BEVENTS"
printf '%s\n' "$BEVENTS" | grep -q '"event":"attempt"' ||
	fail "no attempt records in batch stream: $BEVENTS"
# Every member must have flushed its own done line before the final one.
MEMBER_DONE=$(printf '%s\n' "$BEVENTS" |
	grep -c '"member":".*"event":"done"') || true
[ "$MEMBER_DONE" -eq 3 ] || fail "want 3 member done lines, got $MEMBER_DONE"
printf '%s\n' "$BEVENTS" | tail -n 1 | grep -q '"event":"done"' ||
	fail "stream did not end with the batch done line: $BEVENTS"
printf '%s\n' "$BEVENTS" | tail -n 1 | grep -q '"members":3' ||
	fail "batch done line lacks the member tally: $BEVENTS"

echo "icid_smoke: checking per-member verdicts"
BSTATUS=$(curl -sf "$BASE/batches/$BID") || fail "batch status failed"
printf '%s' "$BSTATUS" | grep -q '"state":"done"' || fail "batch not done: $BSTATUS"
printf '%s' "$BSTATUS" | grep -q '"done":3' || fail "done != 3: $BSTATUS"
printf '%s' "$BSTATUS" | grep -q '"verified":2' || fail "verified != 2: $BSTATUS"
printf '%s' "$BSTATUS" | grep -q '"violated":1' || fail "violated != 1: $BSTATUS"
# The planted-bug member must have settled violated on its final rung.
printf '%s' "$BSTATUS" | grep -q '"name":"link-bug"' || fail "link-bug member missing"

echo "icid_smoke: checking the batch metrics invariants"
METRICS=$(curl -sf "$BASE/metrics") || fail "metrics failed"
mval() {
	printf '%s' "$METRICS" | tr ',' '\n' | grep "\"$1\":" |
		grep -o '[0-9][0-9]*' | head -n 1
}
[ "$(mval batches)" -eq 1 ] || fail "batches != 1: $METRICS"
[ "$(mval submitted)" -eq 4 ] || fail "submitted != 4: $METRICS"
[ "$(mval completed)" -eq 4 ] || fail "completed != 4: $METRICS"
SUM=$(($(mval verified) + $(mval violated) + $(mval exhausted)))
[ "$SUM" -eq "$(mval completed)" ] ||
	fail "verified+violated+exhausted ($SUM) != completed: $METRICS"
[ "$(mval attempts)" -ge 3 ] || fail "attempts < 3: $METRICS"
[ "$(mval escalations)" -le "$(mval attempts)" ] ||
	fail "escalations > attempts: $METRICS"

echo "icid_smoke: SIGTERM → graceful drain"
kill -TERM "$ICID_PID"
i=0
while kill -0 "$ICID_PID" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -ge 150 ] && fail "daemon did not exit after SIGTERM"
	sleep 0.2
done
trap - EXIT
# $! was started by this shell, so wait recovers its real exit status.
set +e
wait "$ICID_PID"
STATUS=$?
set -e
[ "$STATUS" -eq 0 ] || fail "daemon exited $STATUS after SIGTERM"
grep -q "drained cleanly" "$LOG" || fail "drain banner missing from log"

echo "icid_smoke: PASS"
