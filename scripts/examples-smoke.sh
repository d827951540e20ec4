#!/bin/sh
# examples-smoke: every example program must print exactly what
# results/examples/<name>.txt records. The goldens of the three built on
# start-policy wrappers and Switching (chemistry, combined,
# metacomputing) plus quickstart were captured at d741a41, the last
# commit whose wrappers ran the slice protocol, so a diff there means a
# wrapper (or the pass under it) changed a decision. The capacity and
# estimates goldens were captured before those two examples moved from
# the removed internal/core facade to sched.New and sim.Run.
# To accept a deliberate change: go run ./examples/<name> > results/examples/<name>.txt
set -eu
cd "$(dirname "$0")/.."

status=0
for name in capacity chemistry combined estimates metacomputing quickstart; do
	if go run "./examples/$name" | diff -u "results/examples/$name.txt" - >&2; then
		echo "examples-smoke: $name matches results/examples/$name.txt"
	else
		echo "examples-smoke: $name differs from results/examples/$name.txt" >&2
		status=1
	fi
done
exit $status
