#!/bin/sh
# coverage.sh PKG... runs `go test -cover` on the packages and fails
# unless every one reports statement coverage of at least 70 percent.
# scripts/check.sh and the CI workflow both run the coverage floor
# through it.
#
#   sh scripts/coverage.sh ./internal/core/ ./internal/kmem/
#
# A failing `go test` fails the gate with its own output. Otherwise each
# package prints one `ok <pkg> <time> coverage: X% of statements` line;
# the figure is read with a regexp, and any other line, or a figure
# count that differs from the package count, fails the gate instead of
# scoring as 0.
set -eu
floor=70
if ! out=$(go test -cover "$@" 2>&1); then
	echo "$out"
	echo "FAIL: go test -cover failed"
	exit 1
fi
echo "$out" | awk -v floor="$floor" -v want=$# '
	/^ok[ \t]/ && match($0, /coverage: [0-9]+(\.[0-9]+)?% of statements/) {
		p = substr($0, RSTART + 10, RLENGTH - 10)
		sub(/%.*/, "", p)
		printf "    %-32s %s%%\n", $2, p
		if (p + 0 < floor) { printf "FAIL: %s coverage %s%% < %s%%\n", $2, p, floor; bad = 1 }
		n++
		next
	}
	{ printf "FAIL: unparsed go test -cover line: %s\n", $0; bad = 1 }
	END {
		if (n != want) { printf "FAIL: %d coverage figures for %d packages\n", n, want; bad = 1 }
		exit bad
	}
'
