#!/usr/bin/env bash
# Non-test lines of code, per crate and in total.
#
# Counts the non-blank lines of every Rust file under crates/*/src, src
# and examples, up to the file's first top-level `#[cfg(test)]` (the
# unit-test module). vendor/, tests/ directories and perfbench/ are not
# counted. Run from anywhere in the repository: scripts/nontest_loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test, non-blank lines of the .rs files under the given directory.
count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && NF { n++ }
        END { print n + 0 }'
}

total=0
row() {
    local n
    n=$(count "$2")
    total=$((total + n))
    printf '%-12s %6d\n' "$1" "$n"
}
for dir in crates/*/src; do
    crate=${dir#crates/}
    row "${crate%/src}" "$dir"
done
row "src" src
row "examples" examples
printf '%-12s %6d\n' "total" "$total"
