#!/usr/bin/env bash
# Runs a `cargo test` command line and fails unless it ran at least one
# test: libtest passes when a name filter matches nothing, so a step
# that selects tests by name would otherwise pass after the tests it
# names were renamed or folded away.
#
#   bash .github/require-tests.sh cargo test -p pf-storage -q fault
set -o pipefail
out=$(mktemp)
"$@" 2>&1 | tee "$out" || exit $?
ran=$(grep -E '^test result: ' "$out" | awk '{ n += $4 + $6 } END { print n + 0 }')
rm -f "$out"
if [ "$ran" -eq 0 ]; then
  echo "error: \`$*\` ran no test" >&2
  exit 1
fi
