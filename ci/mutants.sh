#!/usr/bin/env bash
# Checks that every deliberate bug under ci/mutants is still caught: each
# patch is applied to a clean copy of HEAD (git archive) and the test its
# header names must fail there. A test that passes or skips lets the mutant
# survive. A run that exits non-zero without that test failing (the mutated
# package no longer builds, or the run timed out) is an error, not a catch:
# no test is shown to see the bug. Either way the script exits non-zero
# naming the patch.
#
# The copy is made inside the checkout, in .mutant/, so that a test which
# builds an older release from git history (TestUpgradeRollover) still finds
# the repository above it; the patch itself is applied to the copy alone.
#
#   bash ci/mutants.sh                       # every ci/mutants/*.patch
#   bash ci/mutants.sh ci/mutants/54-*.patch # some of them
set -euo pipefail
root=$(git rev-parse --show-toplevel)
cd "$root"
if [ $# -eq 0 ]; then set -- ci/mutants/*.patch; fi
work="$root/.mutant"
log="$work.log"
survived=()
broken=()
for p in "$@"; do
	pkg=$(sed -n 's/^Package: //p' "$p")
	test=$(sed -n 's/^Test: //p' "$p")
	rm -rf "$work"
	mkdir -p "$work"
	git archive HEAD | tar -x -C "$work"
	# The ceiling keeps git apply from finding the repository around the copy
	# and patching the checkout instead.
	GIT_CEILING_DIRECTORIES="$root" git -C "$work" apply "$root/$p"
	if (cd "$work" && go test -count=1 -run "^${test}\$" "$pkg" >"$log" 2>&1); then
		echo "SURVIVED $p: $test passed or skipped in $pkg"
		survived+=("$p")
	elif grep -q "^--- FAIL: ${test} " "$log" && ! grep -qE '\[(build|setup) failed\]' "$log"; then
		echo "caught   $p: $test failed in $pkg:"
		# The test's last log line before the next top-level line: its failure.
		awk -v t="--- FAIL: ${test} " 'index($0, t) == 1 { on = 1; next }
			on && /^[^ \t]/ { exit } on { last = $0 } END { print last }' "$log"
	else
		echo "ERROR    $p: go test failed in $pkg, but not in $test:" >&2
		tail -n 20 "$log" >&2
		broken+=("$p")
	fi
done
rm -rf "$work" "$log"
if [ ${#survived[@]} -gt 0 ]; then
	echo "${#survived[@]} mutant(s) survived: ${survived[*]}" >&2
fi
if [ ${#broken[@]} -gt 0 ]; then
	echo "${#broken[@]} mutant(s) not shown caught: ${broken[*]}" >&2
fi
if [ ${#survived[@]} -gt 0 ] || [ ${#broken[@]} -gt 0 ]; then
	exit 1
fi
