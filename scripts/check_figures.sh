#!/usr/bin/env bash
# Pins the stdout of the 13 paper figure/table/ablation binaries.
#
#   scripts/check_figures.sh            diff every binary against tests/golden/
#   scripts/check_figures.sh --record   overwrite tests/golden/ with this build
#
# Every binary is a pure function of scenario seed and IPFS_MON_SCALE, so the
# recording is byte-exact: a difference means an analysis result moved, not
# noise. Binaries that take `--codec` run once per writable codec.
set -euo pipefail

cd "$(dirname "$0")/.."
golden=tests/golden
export IPFS_MON_SCALE=0.2

with_codec=(fig4_request_types fig5_popularity sec5c_network_size
    sec6a_privacy_attacks sec6b_gateway_probing sec6c_countermeasures
    table1_multicodec)
without_codec=(ablation_dedup_windows ablation_monitor_count
    fig3_qq_uniformity fig6_gateway_rates sec5c_visibility table2_geography)

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
check() { # <golden name> <binary> [args...]
    local name=$1
    shift
    "$bin_dir/$1" "${@:2}" > "$out"
    if $record; then
        cat "$out" > "$golden/$name.txt"
    elif ! diff -u "$golden/$name.txt" "$out"; then
        echo "FIGURE MOVED: $name" >&2
        failed=1
    fi
}

for bin in "${without_codec[@]}"; do
    check "$bin" "$bin"
done
for bin in "${with_codec[@]}"; do
    for codec in raw col; do
        check "$bin.$codec" "$bin" --codec "$codec"
    done
done

if $record; then
    echo "recorded $(ls "$golden" | wc -l) golden files in $golden/"
elif [ "$failed" -ne 0 ]; then
    exit 1
else
    echo "all paper figures match $golden/"
fi
