#!/usr/bin/env bash
# Non-test, non-comment lines of Rust under crates/, per crate and in total —
# the figure simplicity PRs quote in CHANGES.md and ROADMAP.md.
#
# Counted: every line of crates/**/*.rs that is neither blank nor a `//`
# comment (doc comments included), up to the file's `#[cfg(test)] mod` if it
# has one. Not counted: tests/, examples/, benchmarks/, vendor/.
#
# Usage: scripts/loc.sh [repo-root]    (default: the checkout this script is in)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find crates -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0; attr = 0; split(FILENAME, path, "/"); crate = path[2] }
    in_tests { next }
    # `#[cfg(test)]` opens the test module only when `mod` follows; on a
    # single item it is one more line of code.
    attr { attr = 0; if ($0 ~ /^mod /) { in_tests = 1; lines[crate]--; total--; next } }
    /^#\[cfg\(test\)\]$/ { attr = 1 }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { lines[crate]++; total++ }
    END {
        for (crate in lines) printf "%-12s %6d\n", crate, lines[crate] | "sort"
        close("sort")
        printf "%-12s %6d\n", "total", total
    }
'
