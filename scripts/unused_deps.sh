#!/usr/bin/env bash
# Fails when a crate under crates/ declares a dependency its code never names.
#
# Every entry of a crate's `[dependencies]` and `[dev-dependencies]` tables
# must appear in that crate's src/ as the Rust identifier it is imported under
# (`ipfs-mon-types` as `ipfs_mon_types`). The crates keep their tests in
# src/ (`#[cfg(test)]` modules), so a dev-dependency is named there too.
#
# Usage: scripts/unused_deps.sh [repo-root]    (default: the checkout this script is in)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

status=0
for manifest in crates/*/Cargo.toml; do
    crate=$(dirname "$manifest")
    # `table name` per entry of the two tables: `name.workspace = true` or
    # `name = { ... }`, one per line.
    entries=$(awk '
        /^\[/ { table = ($0 == "[dependencies]" || $0 == "[dev-dependencies]") ? $0 : ""; next }
        table != "" && /^[A-Za-z0-9_-]/ { sub(/[ .=].*/, ""); print table, $0 }
    ' "$manifest")
    while read -r table dep; do
        [ -n "$dep" ] || continue
        ident=${dep//-/_}
        if ! grep -rqw --include='*.rs' "$ident" "$crate/src"; then
            echo "unused dependency: $crate lists $dep in $table, but $crate/src never names $ident"
            status=1
        fi
    done <<< "$entries"
done
if [ "$status" -eq 0 ]; then
    echo "every [dependencies] and [dev-dependencies] entry under crates/ is named in its crate's src/"
fi
exit "$status"
