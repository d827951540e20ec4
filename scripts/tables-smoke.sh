#!/bin/sh
# tables-smoke: default-scale `evaluate -table N` for N in 1 2 3 4 6 must
# print exactly the matching section of results/evaluate_default.txt
# (a section runs from its "Table N" line to the next "Table" line). A
# diff means a scheduling decision, a workload or the rendering moved.
# Tables 3, 4 and 6 run with -counters: their counter blocks (from a
# "-- run counters" line through the blank line that ends it) are the
# exact-work ledger, which must equal results/work_default.txt, and the
# rest is the table. A ledger diff with matching tables means the same
# decisions now cost a different amount of profile or queue work.
# Table 5 stays out: it takes 19-28 s on 2 vCPU (see EXPERIMENTS.md).
# Tables 7 and 8 are timings.
# To accept a deliberate change, replace the section (or the ledger) with
# the new output.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/evaluate" ./cmd/evaluate

status=0
: >"$tmp/work"
for n in 1 2 3 4 6; do
	awk -v n="$n" '/^Table [0-9]/ { in_table = ($2 == n || $2 == n ".") } in_table' \
		results/evaluate_default.txt >"$tmp/want"
	case $n in
	3 | 4 | 6) "$tmp/evaluate" -table "$n" -counters >"$tmp/out" ;;
	*) "$tmp/evaluate" -table "$n" >"$tmp/out" ;;
	esac
	awk '/^  -- run counters/ { blk = 1 } blk { print; if ($0 == "") blk = 0 }' "$tmp/out" >>"$tmp/work"
	awk '/^  -- run counters/ { blk = 1 } blk { if ($0 == "") blk = 0; next } { print }' "$tmp/out" >"$tmp/got"
	if diff -u "$tmp/want" "$tmp/got" >&2; then
		echo "tables-smoke: table $n matches results/evaluate_default.txt"
	else
		echo "tables-smoke: table $n differs from results/evaluate_default.txt" >&2
		status=1
	fi
done
if diff -u results/work_default.txt "$tmp/work" >&2; then
	echo "tables-smoke: the work ledger of tables 3, 4 and 6 matches results/work_default.txt"
else
	echo "tables-smoke: the work ledger of tables 3, 4 and 6 differs from results/work_default.txt" >&2
	status=1
fi
exit $status
