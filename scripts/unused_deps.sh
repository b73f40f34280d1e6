#!/usr/bin/env bash
# Fails when a crate under crates/ declares a dependency its code never names.
#
# Every entry of a crate's `[dependencies]` table must appear in that crate's
# src/ as the Rust identifier it is imported under (`ipfs-mon-types` as
# `ipfs_mon_types`). Dev-dependencies are not checked.
#
# Usage: scripts/unused_deps.sh [repo-root]    (default: the checkout this script is in)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

status=0
for manifest in crates/*/Cargo.toml; do
    crate=$(dirname "$manifest")
    # Entry names of the [dependencies] table: `name.workspace = true` or
    # `name = { ... }`, one per line.
    deps=$(awk '
        /^\[/ { in_deps = ($0 == "[dependencies]"); next }
        in_deps && /^[A-Za-z0-9_-]/ { sub(/[ .=].*/, ""); print }
    ' "$manifest")
    for dep in $deps; do
        ident=${dep//-/_}
        if ! grep -rqw --include='*.rs' "$ident" "$crate/src"; then
            echo "unused dependency: $crate declares $dep, but $crate/src never names $ident"
            status=1
        fi
    done
done
if [ "$status" -eq 0 ]; then
    echo "every [dependencies] entry under crates/ is named in its crate's src/"
fi
exit "$status"
