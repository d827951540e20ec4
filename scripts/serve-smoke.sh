#!/bin/sh
# serve-smoke: the scheduler-as-a-service daemon, exercised end to end
# through the real binaries (see DESIGN.md §15).
#
#   1. Boot jobschedd on a free port against a fresh data directory and
#      create the SMART-FFIA / EASY-Backfilling session smoke-plan next
#      to schedload's default FCFS / EASY-Backfilling session smoke.
#   2. Push 10k submissions into each session through cmd/schedload
#      (concurrent workers, batched requests, clock advances
#      interleaved) and capture both session fingerprints.
#   3. SIGTERM the daemon: it must refuse new work, flush its final
#      snapshots, and exit 0 (set -e turns a non-zero drain into a
#      failure here).
#   4. Restart on the same data directory and require both recovered
#      fingerprints to be byte-identical to the pre-shutdown ones. The
#      drain's snapshot of smoke-plan is taken in the middle of a plan
#      (checked below), so this is exact plan restore end to end.
set -eu
cd "$(dirname "$0")/.."

SERVE_JOBS=${SERVE_JOBS:-10000}

tmp=$(mktemp -d)
daemon_pid=""
cleanup() {
	if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
		kill -9 "$daemon_pid" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/jobschedd" ./cmd/jobschedd
go build -o "$tmp/schedload" ./cmd/schedload

start_daemon() {
	rm -f "$tmp/addr"
	"$tmp/jobschedd" -addr 127.0.0.1:0 -addrfile "$tmp/addr" \
		-data "$tmp/data" -snapshot-every 512 >>"$tmp/daemon.log" 2>&1 &
	daemon_pid=$!
	for _ in $(seq 1 100); do
		[ -s "$tmp/addr" ] && break
		sleep 0.1
	done
	[ -s "$tmp/addr" ] || { echo "daemon never came up"; cat "$tmp/daemon.log"; exit 1; }
	addr=$(cat "$tmp/addr")
}

sessions="smoke smoke-plan"

echo "--- serve: $SERVE_JOBS submissions per session, SIGTERM drain, recovery fingerprints"
start_daemon
# schedload creates a missing session with the default order; this one
# exists before it runs, so it drives the plan order.
curl -sf -X POST "http://$addr/v1/sessions" -H 'Content-Type: application/json' \
	-d '{"name":"smoke-plan","config":{"nodes":256,"order":"SMART-FFIA","start":"EASY-Backfilling"}}' >/dev/null
for s in $sessions; do
	"$tmp/schedload" -addr "$addr" -session "$s" -jobs "$SERVE_JOBS" \
		-workers 8 -batch 25 -out "$tmp/load-$s.json" >/dev/null
	"$tmp/schedload" -addr "$addr" -session "$s" -fingerprint >"$tmp/fp-$s"
	echo "    $s pre-shutdown state: $(cat "$tmp/fp-$s")"
done

kill -TERM "$daemon_pid"
wait "$daemon_pid" # set -eu: a non-zero (unclean) drain exit fails the gate
daemon_pid=""
grep -q "drained cleanly" "$tmp/daemon.log"
grep -q '"plan_size"' "$tmp/data/sessions/smoke-plan/snapshot.json" || {
	echo "FAIL: smoke-plan's snapshot holds no plan"
	exit 1
}

start_daemon
for s in $sessions; do
	fp_before=$(cat "$tmp/fp-$s")
	fp_after=$("$tmp/schedload" -addr "$addr" -session "$s" -fingerprint)
	echo "    $s recovered state:    $fp_after"
	[ "$fp_before" = "$fp_after" ] || {
		echo "FAIL: $s recovery diverged from the drained state"
		exit 1
	}
done

kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=""

echo "--- serve: OK (both sessions recovered byte-identically)"
