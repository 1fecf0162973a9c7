#!/bin/sh
# matrix.sh FLAGS PATTERN PKG runs `go test FLAGS -run PATTERN PKG`,
# first checking that every |-separated alternative of PATTERN selects
# at least one test in PKG: go test prints ok for a pattern that matches
# nothing, so a renamed test would otherwise drop out of a gate
# silently. scripts/check.sh and the CI workflow both run their test
# matrices through it. FLAGS -list only checks that every alternative
# selects a test, for matrices an earlier `go test -race ./...` in the
# same gate already ran.
#
#   sh scripts/matrix.sh '-race -v' 'TestFleetMatrix|TestChaos' ./internal/ghostfuzz/
#   sh scripts/matrix.sh -list 'TestRunSmoke' ./cmd/ghostbusterd/
set -eu
flags=$1 pattern=$2 pkg=$3
old_ifs=$IFS
IFS='|'
for alt in $pattern; do
	if ! go test -list "$alt" "$pkg" | grep -q '^Test'; then
		echo "FAIL: -run alternative '$alt' selects no test in $pkg"
		exit 1
	fi
done
IFS=$old_ifs
if [ "$flags" = -list ]; then
	exit 0
fi
go test $flags -run "$pattern" "$pkg"
