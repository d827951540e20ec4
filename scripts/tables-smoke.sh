#!/bin/sh
# tables-smoke: default-scale `evaluate -table N` for N in 1 2 3 4 6 must
# print exactly the matching section of results/evaluate_default.txt
# (a section runs from its "Table N" line to the next "Table" line). A
# diff means a scheduling decision, a workload or the rendering moved.
# Table 5 stays out: it takes minutes (see EXPERIMENTS.md). Tables 7
# and 8 are timings.
# To accept a deliberate change, replace the section with the new output.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/evaluate" ./cmd/evaluate

status=0
for n in 1 2 3 4 6; do
	awk -v n="$n" '/^Table [0-9]/ { in_table = ($2 == n || $2 == n ".") } in_table' \
		results/evaluate_default.txt >"$tmp/want"
	if "$tmp/evaluate" -table "$n" | diff -u "$tmp/want" - >&2; then
		echo "tables-smoke: table $n matches results/evaluate_default.txt"
	else
		echo "tables-smoke: table $n differs from results/evaluate_default.txt" >&2
		status=1
	fi
done
exit $status
