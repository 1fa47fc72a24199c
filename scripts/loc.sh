#!/bin/sh
# Counts non-test Rust source lines: non-blank lines that are not `//`
# comments, in every `.rs` file under the given directories (default:
# crates/, src/ and examples/). Files under `tests/` and `benches/` are
# skipped, and so is everything from a file's top-level
# `#[cfg(test)]` + `mod tests` block to its end.
#
# Prints one line per directory argument, with each crate of crates/
# listed on its own, then the total.
#
#   scripts/loc.sh                  # the whole workspace
#   scripts/loc.sh crates/fleet     # one crate
set -eu

cd "$(dirname "$0")/.."
[ "$#" -gt 0 ] || set -- crates/* src examples

count() {
    find "$1" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
        -exec awk '
            FNR == 1 { skip = 0; cfg = 0 }
            skip { next }
            cfg && /^mod tests/ { skip = 1; n--; next }
            { cfg = ($0 == "#[cfg(test)]") }
            /^[ \t]*$/ || /^[ \t]*\/\// { next }
            { n++ }
            END { print n + 0 }
        ' {} + | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in "$@"; do
    [ -d "$dir" ] || continue
    n=$(count "$dir")
    printf '%7d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
