#!/bin/sh
# Suppression budget for jobschedlint: every //lint:ignore directive in
# the tree must be ledgered (with a written justification) in
# scripts/lint-budget.txt. This keeps the suppression count from creeping
# up silently — adding a directive without editing the ledger fails the
# tier-1 gate.
#
# The ledger also carries per-analyzer ceilings:
#
#   budget <analyzer> <max-live-suppressions>
#
# An analyzer with live suppressions must have a budget line, and its
# live count must not exceed the ceiling. A budget line must name an
# analyzer that `jobschedlint -list` prints. The contract analyzers are
# pinned at 0 so their invariants can only be suppressed by raising the
# ceiling in a reviewed edit.
#
# Exit status: 0 when every suppression is ledgered and within budget,
# 1 otherwise.
set -eu
cd "$(dirname "$0")/.."

ledger=scripts/lint-budget.txt

# Collect live suppressions as "analyzer file reason" lines. jobschedlint
# exits non-zero on active findings; those are the lint step's concern,
# the budget only audits suppressions.
live=$(go run ./cmd/jobschedlint -suppressions ./... || true)

status=0

# Budget lines are exactly `budget <analyzer> <N>` with N a number.
bad_budgets=$(awk '!/^#/ && $1 == "budget" && (NF != 3 || $3 !~ /^[0-9]+$/)' "$ledger")
if [ -n "$bad_budgets" ]; then
	printf 'lint-budget: malformed budget line: %s\n' "$bad_budgets" >&2
	status=1
fi

# Every budget line must name an analyzer the suite still has: a ceiling
# for a deleted analyzer guards nothing.
known=$(go run ./cmd/jobschedlint -list | awk '{ print $1 }')
stale_budgets=$(awk '!/^#/ && $1 == "budget" { print $2 }' "$ledger" | while read -r analyzer; do
	printf '%s\n' "$known" | grep -qx "$analyzer" || printf '%s\n' "$analyzer"
done)
if [ -n "$stale_budgets" ]; then
	printf 'lint-budget: budget line for an unknown analyzer: %s\n' "$stale_budgets" >&2
	status=1
fi

# Ledger lines must carry a justification (>= 3 fields).
bad_entries=$(awk '!/^#/ && $1 != "budget" && NF > 0 && NF < 3' "$ledger")
if [ -n "$bad_entries" ]; then
	printf 'lint-budget: ledger entry without justification: %s\n' "$bad_entries" >&2
	status=1
fi

# Every live suppression must match a ledger entry by (analyzer, file).
unledgered=$(printf '%s\n' "$live" | while IFS= read -r line; do
	[ -n "$line" ] || continue
	analyzer=${line%% *}
	rest=${line#* }
	file=${rest%% *}
	if ! awk -v a="$analyzer" -v f="$file" \
		'!/^#/ && $1 == a && $2 == f { found = 1 } END { exit !found }' "$ledger"; then
		printf '%s %s\n' "$analyzer" "$file"
	fi
done)
if [ -n "$unledgered" ]; then
	printf 'lint-budget: unledgered suppression: %s\n' "$unledgered" >&2
	echo "lint-budget: add a justified entry to $ledger or remove the directive" >&2
	status=1
fi

# Per-analyzer ceilings: count live suppressions per analyzer and check
# each against its budget line. An analyzer with live suppressions but no
# budget line fails — the ceiling must be written down, even if it is 0.
over_budget=$(printf '%s\n' "$live" | awk 'NF > 0 { n[$1]++ } END { for (a in n) print a, n[a] }' | sort | while read -r analyzer count; do
	limit=$(awk -v a="$analyzer" '!/^#/ && $1 == "budget" && $2 == a { print $3; exit }' "$ledger")
	if [ -z "$limit" ]; then
		printf '%s has %s live suppression(s) but no budget line\n' "$analyzer" "$count"
	elif [ "$count" -gt "$limit" ]; then
		printf '%s has %s live suppression(s), budget is %s\n' "$analyzer" "$count" "$limit"
	fi
done)
if [ -n "$over_budget" ]; then
	printf 'lint-budget: over budget: %s\n' "$over_budget" >&2
	echo "lint-budget: remove the directive or raise the budget line in $ledger" >&2
	status=1
fi

# Stale ledger entries (no matching live suppression) are reported so
# the ledger shrinks when directives are removed, but do not fail.
awk '!/^#/ && $1 != "budget" && NF >= 3 { print $1, $2 }' "$ledger" | while read -r analyzer file; do
	if ! printf '%s\n' "$live" | awk -v a="$analyzer" -v f="$file" \
		'$1 == a && $2 == f { found = 1 } END { exit !found }'; then
		echo "lint-budget: note: stale ledger entry (no live suppression): $analyzer $file" >&2
	fi
done

if [ "$status" -eq 0 ]; then
	n=$(printf '%s\n' "$live" | grep -c . || true)
	echo "lint-budget: $n suppression(s), all ledgered and within budget"
fi
exit "$status"
