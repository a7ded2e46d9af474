#!/usr/bin/env bash
# Fuzzes every fuzz target in the module for <fuzztime> each. The targets are
# discovered, never listed: a Fuzz function is fuzzed by the push workflow
# (short budget) and the nightly one (long budget) from the commit it lands
# in, and ci_test.go keeps hand-written -fuzz= steps out of the workflows.
set -euo pipefail
fuzztime="${1:?usage: ci/fuzz.sh <fuzztime per target, e.g. 10s>}"
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# `go test -list` prints a package's matching names, then its "ok <pkg>" line.
targets="$(go test -list '^Fuzz' ./... |
	awk '/^Fuzz/ { names[n++] = $1 } /^ok/ { for (i = 0; i < n; i++) print $2, names[i]; n = 0 }')"
[ -n "$targets" ] || { echo "ci/fuzz.sh: no fuzz targets found" >&2; exit 1; }

while read -r pkg target; do
	echo "== $pkg $target ($fuzztime)"
	go test -run='^$' -fuzz="^${target}\$" -fuzztime="$fuzztime" "$pkg"
done <<<"$targets"
