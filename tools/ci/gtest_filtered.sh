#!/bin/sh
# Runs a GoogleTest binary on one --gtest_filter and fails when any of the
# filter's ':'-separated positive patterns selects no test: GoogleTest 1.12
# passes an empty selection, so a renamed test would silently drop out of a
# filtered CI step.
#   sh tools/ci/gtest_filtered.sh ./test_checkpoint 'Suite.Name*:Other.*'
set -euf  # -f: the unquoted patterns below must not glob against files
[ $# -eq 2 ] || { echo "usage: $0 <test-binary> <gtest-filter>" >&2; exit 2; }
# Patterns after a '-' only exclude tests; they need not select any.
IFS=:
for pattern in ${2%%-*}; do
  # Suites print flush left, their tests indented by two spaces.
  count=$("$1" --gtest_list_tests --gtest_filter="$pattern" | grep -c '^  ') || true
  [ "$count" -gt 0 ] || { echo "FAIL: pattern '$pattern' of --gtest_filter='$2' selects no test in $1" >&2; exit 1; }
  echo "$1: '$pattern' selects $count test(s)"
done
exec "$1" --gtest_filter="$2"
