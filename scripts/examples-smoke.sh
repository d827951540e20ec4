#!/bin/sh
# examples-smoke: the example programs that compose schedulers by hand —
# the three built on start-policy wrappers and Switching (chemistry,
# combined, metacomputing) plus quickstart — must print exactly what
# results/examples/<name>.txt records. The goldens were captured at
# d741a41, the last commit whose wrappers ran the slice protocol, so a
# diff here means a wrapper (or the pass under it) changed a decision.
# To accept a deliberate change: go run ./examples/<name> > results/examples/<name>.txt
set -eu
cd "$(dirname "$0")/.."

status=0
for name in chemistry combined metacomputing quickstart; do
	if go run "./examples/$name" | diff -u "results/examples/$name.txt" - >&2; then
		echo "examples-smoke: $name matches results/examples/$name.txt"
	else
		echo "examples-smoke: $name differs from results/examples/$name.txt" >&2
		status=1
	fi
done
exit $status
