#!/bin/sh
# Print the size counts CHANGES.md and ROADMAP.md track per change:
#
#   root-module non-test Go lines, root-module test Go lines,
#   exported bdd.Manager methods, internal packages.
#
# The root module is every *.go file outside bench/ (its own module)
# and .bench_build/ (the benchmark's build output). Settable values
# (flags, wire and config fields) stay a hand count.
#
# Run from anywhere inside the repository: sh scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

gofiles() {
	find . -path ./bench -prune -o -path ./.bench_build -prune -o -path ./.git -prune -o \
		-name '*.go' "$@" -print
}

lines() { xargs cat | wc -l | tr -d ' '; }

nontest=$(gofiles ! -name '*_test.go' | lines)
test=$(gofiles -name '*_test.go' | lines)
methods=$(find internal/bdd -name '*.go' ! -name '*_test.go' -exec cat {} + |
	grep -c '^func (m \*Manager) [A-Z]')
packages=$(find internal -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u | wc -l | tr -d ' ')

echo "non-test Go lines:    $nontest"
echo "test Go lines:        $test"
echo "bdd.Manager methods:  $methods"
echo "internal packages:    $packages"
