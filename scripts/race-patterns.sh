#!/usr/bin/env bash
# race-patterns.sh [MAKEFILE] — fail when a race target's -run pattern
# matches no test. `go test -run` passes on a pattern that matches nothing,
# so a test that moves or is renamed would quietly drop out of the race
# target that names it. For every `$(GO) test ... -run=PATTERN PKG...` line
# in a race* target of MAKEFILE (default: Makefile), this lists the tests of
# each named package with `go test -list` and requires that
#   - the pattern matches at least one test in every package it names, and
#   - each top-level alternative of the pattern matches a test in one of them.
# `go test -list` sees top-level tests only. Below TestSpecs, the
# conformance suite's (target, requirement) pairs are read from its tables
# (the targets and requirements of internal/rtdb/spec) without running a
# row: each alternative of the first level must name a target whole, and
# each of the second must begin some requirement ID that one of those
# targets runs.
set -u
mk=${1:-Makefile}
go=${GO:-go}
spec=$(dirname "$0")/../internal/rtdb/spec
fail=0

# pairs prints "target ID" for every row TestSpecs runs, from the suite's
# target sets, targets and requirements tables.
pairs() {
	awk '
		FNR == 1 { file++ }
		file == 1 && /^\t[a-z]+ += \[\]string\{/ { sets[$1] = $0 }
		file == 1 && /^\t\{"[A-Z]+-[0-9]+_/ { reqs[++n] = $0 }
		file == 2 && /^\t\{"[a-z]+", new[A-Za-z]+\},$/ { split($0, f, "\""); known[f[2]] = 1 }
		END {
			for (i = 1; i <= n; i++) {
				split(reqs[i], f, "\""); id = f[2]
				ts = reqs[i]; sub(/^[^,]*, */, "", ts)
				if (ts !~ /^\[\]string/) ts = sets[substr(ts, 1, index(ts, "}") - 1)]
				sub(/^[^{]*\{/, "", ts); sub(/\}.*/, "", ts); gsub(/[" ]/, "", ts)
				m = split(ts, t, ",")
				for (j = 1; j <= m; j++) if (t[j] in known) print t[j], id
			}
		}' "$spec/spec_test.go" "$spec/target_test.go"
}

# split_outside SEP RE splits RE on the SEP characters that sit outside any
# parentheses: '|' gives a level's alternatives, '/' the levels of a -run
# pattern, as go test splits it.
split_outside() {
	awk -v sep="$1" -v re="$2" 'BEGIN {
		d = 0; cur = ""
		for (i = 1; i <= length(re); i++) {
			c = substr(re, i, 1)
			if (c == "(") d++
			if (c == ")") d--
			if (c == sep && d == 0) { print cur; cur = ""; continue }
			cur = cur c
		}
		print cur
	}'
}

# check_specs TARGET PATTERN checks PATTERN's levels below TestSpecs against
# the suite's pairs.
check_specs() {
	local target=$1 pat=$2 l1 l2 alt all
	all=$(pairs)
	[ -n "$all" ] || { echo "race-patterns: $target: no (target, requirement) pair read from $spec"; return 1; }
	{ read -r _; read -r l1; read -r l2; } < <(split_outside / "$pat")
	[ -n "$l1" ] || return 0
	while read -r alt; do
		if ! grep -qE "^($alt) " <<<"$all"; then
			echo "race-patterns: $target: '$alt' of -run='$pat' names no TestSpecs target"
			return 1
		fi
	done < <(split_outside '|' "$l1")
	[ -n "$l2" ] || return 0
	while read -r alt; do
		if ! grep -qE "^($l1) ($alt)" <<<"$all"; then
			echo "race-patterns: $target: '$alt' of -run='$pat' begins no requirement ID its targets run"
			return 1
		fi
	done < <(split_outside '|' "$l2")
}

# Each recipe line of a race* target that passes -run, as "PATTERN PKG...".
lines=$(awk '
	/^[A-Za-z][A-Za-z0-9_-]*:/ { target = $1; sub(/:.*/, "", target) }
	/^\t/ && target ~ /^race/ && /-run=/ {
		if (!match($0, /-run=(\x27[^\x27]*\x27|[^ ]+)/)) next
		pat = substr($0, RSTART + 5, RLENGTH - 5); gsub(/\x27/, "", pat)
		pkgs = ""
		n = split($0, f, /[ \t]+/)
		for (i = 1; i <= n; i++) if (f[i] ~ /^\.\//) pkgs = pkgs " " f[i]
		print target "\t" pat "\t" pkgs
	}' "$mk")
[ -n "$lines" ] || { echo "race-patterns: no -run line found in $mk"; exit 1; }

while IFS=$'\t' read -r target pat pkgs; do
	top=${pat%%/*}
	listed="" bad=$fail fail=0
	for pkg in $pkgs; do
		out=$($go test -list "$top" "$pkg" 2>&1) || { echo "$out"; fail=1; continue; }
		names=$(grep -E '^(Test|Fuzz|Example)' <<<"$out")
		if [ -z "$names" ]; then
			echo "race-patterns: $target: -run='$pat' matches no test in $pkg"
			fail=1
		fi
		listed+="$names"$'\n'
	done
	while read -r alt; do
		if ! grep -qE -- "$alt" <<<"$listed"; then
			echo "race-patterns: $target: alternative '$alt' of -run='$pat' matches no test in$pkgs"
			fail=1
		fi
	done < <(split_outside '|' "$top")
	if [ "$top" = TestSpecs ] && ! check_specs "$target" "$pat"; then
		fail=1
	fi
	[ $fail = 0 ] && echo "race-patterns: $target: -run='$pat' ok in$pkgs"
	fail=$((fail | bad))
done <<<"$lines"
exit $fail
