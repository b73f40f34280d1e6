#!/usr/bin/env bash
# Fails when a package declares a dependency its code never names.
#
# Every entry of a crate's `[dependencies]` and `[dev-dependencies]` tables
# must appear in that crate's src/ as the Rust identifier it is imported under
# (`ipfs-mon-types` as `ipfs_mon_types`). The crates under crates/ keep their
# tests in src/ (`#[cfg(test)]` modules), so a dev-dependency is named there
# too. The root package keeps its tests in tests/: each entry of its
# `[dependencies]` must be named in src/, each of its `[dev-dependencies]` in
# src/ or tests/.
#
# Usage: scripts/unused_deps.sh [repo-root]    (default: the checkout this script is in)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

status=0
# check <manifest> <package dir> <dirs naming [dependencies]> <dirs naming [dev-dependencies]>
# (each list of dirs space-separated, relative to the package dir).
check() {
    local manifest=$1 package=$2 deps_in=$3 dev_deps_in=$4
    # `table name` per entry of the two tables: `name.workspace = true` or
    # `name = { ... }`, one per line.
    local entries
    entries=$(awk '
        /^\[/ { table = ($0 == "[dependencies]" || $0 == "[dev-dependencies]") ? $0 : ""; next }
        table != "" && /^[A-Za-z0-9_-]/ { sub(/[ .=].*/, ""); print table, $0 }
    ' "$manifest")
    while read -r table dep; do
        [ -n "$dep" ] || continue
        local ident=${dep//-/_} dirs=() where
        if [ "$table" = "[dependencies]" ]; then where=$deps_in; else where=$dev_deps_in; fi
        for dir in $where; do dirs+=("$package/$dir"); done
        if ! grep -rqw --include='*.rs' "$ident" "${dirs[@]}"; then
            echo "unused dependency: $manifest lists $dep in $table, but ${dirs[*]} never names $ident"
            status=1
        fi
    done <<< "$entries"
}

for manifest in crates/*/Cargo.toml; do
    check "$manifest" "$(dirname "$manifest")" src src
done
check Cargo.toml . src "src tests"
if [ "$status" -eq 0 ]; then
    echo "every [dependencies] and [dev-dependencies] entry is named in its package's code"
fi
exit "$status"
