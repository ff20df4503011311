#!/usr/bin/env bash
# Runs `go test` with the arguments given and fails when some package ran
# no test. `go test -run '<names>'` whose pattern matches nothing in a
# package prints "[no tests to run]" there and exits 0, so a CI step that
# names a renamed or deleted test would otherwise pass without running it.
#
#   bash .github/named-tests.sh -race -count=1 -run 'TestA|TestB' ./internal/pkg/
set -u
log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test "$@" 2>&1 | tee "$log"
status=${PIPESTATUS[0]}
if [ "$status" -ne 0 ]; then
	exit "$status"
fi
if grep -q 'no tests to run' "$log"; then
	echo "named-tests: a -run pattern above matched no test in some package" >&2
	exit 1
fi
