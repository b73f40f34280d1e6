#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark, summarised into one
# committed ledger file.
#
# Usage: scripts/bench_pairs.sh <parent-rev> [workloads] [pairs] [-- benchmark args]
#
#   <parent-rev>  the commit to compare against (e.g. HEAD~1, or HEAD for the
#                 noise floor of the working tree against its own commit)
#   [workloads]   comma-separated, default simulate,pipeline,service,analyze
#   [pairs]       default 10
#   -- args       appended to `run --workload <w>` (e.g. --seed 4242, or
#                 --tiny --seconds 1 for a smoke run)
#
# The change side is the working tree's tracked and staged files (a
# `git stash create` snapshot, or HEAD when the tree is clean), so a change
# can be measured before it is committed. Each side is extracted with
# `git archive` under target/bench_pairs/ and built there, so the checkout
# itself is never written to (building the benchmark package can rewrite
# its Cargo.lock). Each side's benchmark binary is built once (release,
# offline) and then run directly, never through `cargo run`.
#
# Pair p runs every workload on both sides, parent first when p is odd and
# change first when p is even. For each run the script keeps the last JSON
# line the benchmark prints, plus the run's user+sys CPU seconds and maximum
# resident set, both taken by the parent process from the child's rusage
# (wait4), so they do not depend on the benchmark reporting them.
#
# Writes BENCH_<label>.json at the repo root, with label = $BENCH_LABEL or,
# by default, the parent's short commit id. Per workload and metric it holds
# both sides' median and quartiles, how many pairs the change is ahead in
# (per the metric's `better` direction in BENCHMARK.json; cpu_s and
# max_rss_mib are lower-is-better), and for the end-to-end metrics a verdict
# against their bound: `worse` (the change's median is worse by more than the
# bound), `unresolved` (the parent's own interquartile spread is wider than
# the bound and not every change run beats every parent run) or `within`.
# Every run made is listed under "runs".
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
usage="usage: scripts/bench_pairs.sh <parent-rev> [workloads] [pairs] [-- benchmark args]"

positional=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
    positional+=("$1")
    shift
done
[ $# -gt 0 ] && shift # the "--"
bench_args=("$@")

[ ${#positional[@]} -ge 1 ] && [ ${#positional[@]} -le 3 ] || { echo "$usage" >&2; exit 2; }
parent_rev=${positional[0]}
workloads=${positional[1]:-simulate,pipeline,service,analyze}
pairs=${positional[2]:-10}
case $pairs in '' | *[!0-9]* | 0) echo "pairs must be a positive integer" >&2; exit 2 ;; esac

parent_commit=$(git -C "$repo" rev-parse --verify "$parent_rev^{commit}")
# The snapshot commit is never referenced; any identity will do for it.
snapshot=$(git -C "$repo" -c user.name=bench_pairs -c user.email=bench_pairs@localhost stash create)
if [ -n "$snapshot" ]; then
    child_commit="$(git -C "$repo" rev-parse HEAD)+working-tree"
else
    snapshot=$(git -C "$repo" rev-parse HEAD)
    child_commit=$snapshot
fi
label=${BENCH_LABEL:-${parent_commit:0:8}}
work="$repo/target/bench_pairs"

build() { # <side> <tree-ish>
    echo "building the benchmark for the $1 side ($2)" >&2
    rm -rf "$work/$1-src"
    mkdir -p "$work/$1-src"
    git -C "$repo" archive --format=tar "$2" | tar -x -C "$work/$1-src"
    cargo build --release --offline --quiet \
        --manifest-path "$work/$1-src/benchmarks/Cargo.toml" --target-dir "$work/$1-target" >&2
}
build parent "$parent_commit"
build change "$snapshot"

export BENCH_PARENT_BIN="$work/parent-target/release/ipfs-mon-benchmarks"
export BENCH_CHILD_BIN="$work/change-target/release/ipfs-mon-benchmarks"
export BENCH_PARENT_DIR="$work/parent-src" BENCH_CHILD_DIR="$work/change-src"
export BENCH_PARENT_COMMIT="$parent_commit" BENCH_CHILD_COMMIT="$child_commit"
export BENCH_WORKLOADS="$workloads" BENCH_PAIRS="$pairs"
export BENCH_SPEC="$repo/BENCHMARK.json" BENCH_OUT="$repo/BENCH_$label.json"
export BENCH_LABEL="$label"

python3 - "${bench_args[@]}" <<'PY'
import json, os, subprocess, sys, time

env = os.environ
extra = sys.argv[1:]
workloads = [w for w in env["BENCH_WORKLOADS"].split(",") if w]
pairs = int(env["BENCH_PAIRS"])
sides = {
    "parent": (env["BENCH_PARENT_BIN"], env["BENCH_PARENT_DIR"]),
    "change": (env["BENCH_CHILD_BIN"], env["BENCH_CHILD_DIR"]),
}
with open(env["BENCH_SPEC"]) as f:
    spec = json.load(f)
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
better.update(cpu_s="lower", max_rss_mib="lower")


def run_once(side, workload):
    binary, cwd = sides[side]
    argv = [binary, "run", "--workload", workload, *extra]
    child = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE)
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    last = None
    for line in out.decode(errors="replace").splitlines():
        if line.startswith("{"):
            last = line
    record = {
        "exit": child.returncode,
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "max_rss_mib": round(usage.ru_maxrss / 1024, 1),
    }
    try:
        result = json.loads(last) if last else None
    except json.JSONDecodeError:
        result = None
    if result is None or "metrics" not in result:
        record["error"] = "no result line"
        return record
    record["correct"] = result.get("correct")
    record["attempted"] = result.get("attempted")
    record["failed"] = result.get("failed")
    record["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return record


runs = []
started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
for p in range(1, pairs + 1):
    order = ["parent", "change"] if p % 2 == 1 else ["change", "parent"]
    for workload in workloads:
        for position, side in enumerate(order):
            record = run_once(side, workload)
            record.update(pair=p, workload=workload, side=side, position=position)
            runs.append(record)
            print(
                f"pair {p}/{pairs} {workload:<9} {side:<6} exit {record['exit']} "
                f"cpu {record['cpu_s']} s rss {record['max_rss_mib']} MiB",
                file=sys.stderr,
            )


def quantile(sorted_values, q):
    # Linear interpolation between closest ranks.
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summary_of(values):
    s = sorted(values)
    return {"median": quantile(s, 0.5), "q1": quantile(s, 0.25), "q3": quantile(s, 0.75), "n": len(s)}


def value_of(record, name):
    if name in ("cpu_s", "max_rss_mib"):
        return record[name]
    return record.get("metrics", {}).get(name)


summary = {}
for workload in workloads:
    by_pair = {}
    for r in runs:
        if r["workload"] == workload and r["exit"] == 0 and "metrics" in r:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
    names = set()
    for both in by_pair.values():
        for r in both.values():
            names.update(r["metrics"])
    names.update(["cpu_s", "max_rss_mib"])
    table = {}
    for name in sorted(names):
        values = {"parent": [], "change": []}
        ahead = compared = 0
        for both in by_pair.values():
            got = {side: value_of(r, name) for side, r in both.items()}
            for side, v in got.items():
                if isinstance(v, (int, float)):
                    values[side].append(v)
            pv, cv = got.get("parent"), got.get("change")
            if name in better and isinstance(pv, (int, float)) and isinstance(cv, (int, float)):
                compared += 1
                if (cv < pv) if better[name] == "lower" else (cv > pv):
                    ahead += 1
        if not values["parent"] or not values["change"]:
            continue
        row = {
            "better": better.get(name),
            "parent": summary_of(values["parent"]),
            "change": summary_of(values["change"]),
            "pairs_ahead": ahead if name in better else None,
            "pairs_compared": compared if name in better else None,
        }
        pm, cm = row["parent"]["median"], row["change"]["median"]
        row["median_change_pct"] = round((cm - pm) / pm * 100, 2) if pm else None
        if name in bounds and pm:
            bound = bounds[name]
            worse_by = (cm - pm) / pm if better[name] == "lower" else (pm - cm) / pm
            spread = (row["parent"]["q3"] - row["parent"]["q1"]) / abs(pm)
            if better[name] == "lower":
                all_better = max(values["change"]) < min(values["parent"])
            else:
                all_better = min(values["change"]) > max(values["parent"])
            if worse_by > bound:
                verdict = "worse"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "within"
            row.update(bound=bound, parent_spread=round(spread, 4), verdict=verdict)
        table[name] = row
    summary[workload] = table

ledger = {
    "label": env["BENCH_LABEL"],
    "parent": env["BENCH_PARENT_COMMIT"],
    "change": env["BENCH_CHILD_COMMIT"],
    "workloads": workloads,
    "pairs": pairs,
    "benchmark_args": extra,
    "cores": os.cpu_count(),
    "started": started,
    "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "failed_runs": sum(1 for r in runs if r["exit"] != 0 or "metrics" not in r),
    "summary": summary,
    "runs": runs,
}
with open(env["BENCH_OUT"], "w") as f:
    json.dump(ledger, f, indent=1, sort_keys=False)
    f.write("\n")
print(env["BENCH_OUT"])
PY
