#!/usr/bin/env bash
# ab.sh BASE WORKLOAD PAIRS [SEED]: alternating A/B runs of one benchmark
# workload, BASE (any git revision) against the working tree.
#
# It builds each side's benchmark program once: BASE's in a git worktree
# under .bench_build/ab/base (removed again on exit), the working tree's
# from the checkout. Then it runs PAIRS pairs of
# `benchmark -workload WORKLOAD -seed S -out FILE`; pair i uses seed
# SEED+i-1 (SEED defaults to 1) for both sides, and the side that runs
# first alternates from pair to pair. Each side runs from its own tree,
# so each builds and boots its own jobschedd. Reports and logs stay in
# .bench_build/ab/.
#
# Printed: one line per run (exit status, correct, failed), then per
# end-to-end metric of BENCHMARK.json the pairs the working tree won
# (strictly better in the metric's direction), and each side's median
# and quartiles over the runs (quartiles as the benchmark computes them).
# Exit status is non-zero if any run failed or any check was wrong.
# Needs git, go and jq.
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: scripts/ab.sh BASE WORKLOAD PAIRS [SEED]" >&2
	exit 2
fi
base=$1 workload=$2 pairs=$3 seed=${4:-1}
cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_build/ab
tree=$out/base
mkdir -p "$out"
rm -f "$out"/base-*.json "$out"/base-*.log "$out"/head-*.json "$out"/head-*.log
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOWORK=off

cleanup() {
	git worktree remove --force "$tree" 2>/dev/null || true
	git worktree prune
}
trap cleanup EXIT
cleanup
git worktree add --quiet --detach "$tree" "$base"
(cd "$tree" && go build -o "$out/base.bin" ./benchmark)
go build -o "$out/head.bin" ./benchmark

status=0
run() { # side pair seed
	local dir=$root
	[ "$1" = base ] && dir=$tree
	local rc=0
	(cd "$dir" && "$out/$1.bin" -workload "$workload" -seed "$3" -out "$out/$1-$2.json") \
		>"$out/$1-$2.log" 2>&1 || rc=$?
	local res=null
	[ -s "$out/$1-$2.json" ] &&
		res=$(jq -c --arg w "$workload" '[.results[] | select(.workload == $w and (.traced | not))][0] | {correct, failed}' "$out/$1-$2.json")
	echo "pair $2 seed $3 $1: exit $rc $res"
	if [ "$rc" != 0 ] || [ "$res" = null ] || [ "$(jq '.correct and .failed == 0' <<<"$res")" != true ]; then
		status=1
		echo "  see $out/$1-$2.log"
	fi
}
for i in $(seq 1 "$pairs"); do
	s=$((seed + i - 1))
	if [ $((i % 2)) = 1 ]; then
		run base "$i" "$s"
		run head "$i" "$s"
	else
		run head "$i" "$s"
		run base "$i" "$s"
	fi
done

# One line per metric and pair: name better base head (a missing report
# or metric gives an empty field and the pair drops out of that metric).
value() { # side pair metric
	[ -s "$out/$1-$2.json" ] || return 0
	jq -r --arg w "$workload" --arg m "$3" \
		'[.results[] | select(.workload == $w and (.traced | not))][0].metrics[$m].value // empty' "$out/$1-$2.json"
}
jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json | while read -r name better; do
	for i in $(seq 1 "$pairs"); do
		echo "$name $better $(value base "$i" "$name") $(value head "$i" "$name")"
	done
done | awk -v pairs="$pairs" -v wl="$workload" -v base="$base" '
function sort(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
function median(a, n) { return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2 }
function quart(a, n, k,    j, d) {
	if (n == 1) return a[1]
	j = int(k * (n + 1) / 4)
	if (j < 1) j = 1
	if (j > n - 1) j = n - 1
	d = k * (n + 1) - j * 4
	return (a[j] * (4 - d) + a[j+1] * d) / 4
}
function flush() {
	if (name == "") return
	sort(bs, n); sort(hs, n)
	if (n == 0) { printf "%-16s no complete pair\n", name; return }
	printf "%-16s %6s %2d/%-2d  %10.4g [%.4g..%.4g]  %10.4g [%.4g..%.4g]\n", name, better, wins, n,
		median(bs, n), quart(bs, n, 1), quart(bs, n, 3), median(hs, n), quart(hs, n, 1), quart(hs, n, 3)
}
BEGIN {
	printf "\n%s, %d pairs: base %s vs the working tree\n", wl, pairs, base
	printf "%-16s %6s %5s  %-30s  %-30s\n", "metric", "better", "wins", "base median [q1..q3]", "tree median [q1..q3]"
}
$1 != name { flush(); name = $1; better = $2; n = 0; wins = 0; delete bs; delete hs }
NF == 4 {
	n++; bs[n] = $3; hs[n] = $4
	if (($2 == "lower" && $4 < $3) || ($2 == "higher" && $4 > $3)) wins++
}
END { flush() }'
exit $status
