#!/usr/bin/env bash
# race-patterns.sh [MAKEFILE] — fail when a race target's -run pattern
# matches no test. `go test -run` passes on a pattern that matches nothing,
# so a test that moves or is renamed would quietly drop out of the race
# target that names it. For every `$(GO) test ... -run=PATTERN PKG...` line
# in a race* target of MAKEFILE (default: Makefile), this lists the tests of
# each named package with `go test -list` and requires that
#   - the pattern matches at least one test in every package it names, and
#   - each top-level alternative of the pattern matches a test in one of them.
# `go test -list` sees top-level tests only: a pattern's subtest levels (the
# part after its first '/') are not checked here.
set -u
mk=${1:-Makefile}
go=${GO:-go}
fail=0

# alternatives splits a regexp on the '|' that sit outside any parentheses.
alternatives() {
	awk -v re="$1" 'BEGIN {
		d = 0; cur = ""
		for (i = 1; i <= length(re); i++) {
			c = substr(re, i, 1)
			if (c == "(") d++
			if (c == ")") d--
			if (c == "|" && d == 0) { print cur; cur = ""; continue }
			cur = cur c
		}
		print cur
	}'
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
	done < <(alternatives "$top")
	[ $fail = 0 ] && echo "race-patterns: $target: -run='$pat' ok in$pkgs"
	fail=$((fail | bad))
done <<<"$lines"
exit $fail
