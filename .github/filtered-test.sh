#!/usr/bin/env bash
# Usage: filtered-test.sh <package> <filter>
#
# Runs `cargo test -q -p <package> <filter>`, but first fails when the filter
# selects no test: a renamed or deleted test would otherwise turn the run into
# a silent pass.
set -euo pipefail
package=$1
filter=$2
list=$(cargo test -q -p "$package" "$filter" -- --list)
count=$(grep -c ': test$' <<<"$list" || true)
if [ "$count" -eq 0 ]; then
  echo "cargo test -p $package $filter selects no test" >&2
  exit 1
fi
echo "cargo test -p $package $filter selects $count tests"
cargo test -q -p "$package" "$filter"
