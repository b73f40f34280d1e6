#!/usr/bin/env bash
# Pins the stdout of the 13 paper figure/table/ablation binaries.
#
#   scripts/check_figures.sh            diff every binary against tests/golden/
#   scripts/check_figures.sh --record   overwrite tests/golden/ with this build
#
# Every binary is a pure function of scenario seed and IPFS_MON_SCALE, so the
# recording is byte-exact: a difference means an analysis result moved, not
# noise. Each binary runs once and owns tests/golden/<binary>.txt; a golden
# file no binary produced fails the check (or is removed by --record), so a
# stale one cannot linger.
set -euo pipefail

cd "$(dirname "$0")/.."
golden=tests/golden
export IPFS_MON_SCALE=0.2

bins=(ablation_dedup_windows ablation_monitor_count fig3_qq_uniformity
    fig4_request_types fig5_popularity fig6_gateway_rates sec5c_network_size
    sec5c_visibility sec6a_privacy_attacks sec6b_gateway_probing
    sec6c_countermeasures table1_multicodec table2_geography)

record=false
case "${1:-}" in
    --record) record=true ;;
    "") ;;
    *) echo "usage: $0 [--record]" >&2; exit 2 ;;
esac

cargo build --release --offline -p ipfs-mon-bench --bins
bin_dir="${CARGO_TARGET_DIR:-target}/release"
mkdir -p "$golden"
out=$(mktemp)
trap 'rm -f "$out"' EXIT

failed=0
for bin in "${bins[@]}"; do
    "$bin_dir/$bin" > "$out"
    if $record; then
        cat "$out" > "$golden/$bin.txt"
    elif ! diff -u "$golden/$bin.txt" "$out"; then
        echo "FIGURE MOVED: $bin" >&2
        failed=1
    fi
done

for file in "$golden"/*; do
    name=$(basename "$file" .txt)
    if [[ " ${bins[*]} " != *" $name "* ]]; then
        if $record; then
            rm "$file"
        else
            echo "STALE GOLDEN: $file (no binary produces it)" >&2
            failed=1
        fi
    fi
done

if $record; then
    echo "recorded $(ls "$golden" | wc -l) golden files in $golden/"
elif [ "$failed" -ne 0 ]; then
    exit 1
else
    echo "all paper figures match $golden/"
fi
