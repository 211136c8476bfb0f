#!/usr/bin/env bash
# Paired before/after benchmark of two revisions.
#
#   scripts/bench_pair.sh [-n SEEDS] [-s FIRST] [-w WORKLOAD]... [-d DIR] [-t] [PARENT [CHANGE]]
#
# PARENT defaults to HEAD~1 and CHANGE to the working tree (tracked and
# untracked files that are not ignored and exist); either may be any git
# revision.
# Each side's source is unpacked into DIR/src and its benchmark binary
# built there, one side after the other: both builds see the same
# absolute path, because two builds of one source in two directories
# are different binaries (the path is embedded), while two at one path
# are byte-identical. Then, per workload, the two
# binaries run alternately for SEEDS seeds from FIRST (default 1), the
# side that goes first flipping every seed, each run through
# `benchmark/suite.py run --bin`.
# The runs are gathered into DIR/parent.json and DIR/change.json,
# compared with `benchmark/suite.py compare`, and each end-to-end
# metric's per-seed ratio and wins are printed. With -t, each workload
# also runs one traced pair (`--trace 1`, seed FIRST, parent first) and
# every per-layer metric either side reports is printed beside the
# other's, with their ratio: the "where the saving is" table of a
# results/ record. Without -w, every workload in BENCHMARK.json runs.
# Takes minutes: not part of tier-1.
#
# Two identical sides do not read identically. `HEAD HEAD` on
# restart_agg_mem at 10 seeds (byte-identical binaries, 2 vCPUs) gave
# setup_s +1.5% (4 of 10 wins for CHANGE) on seeds 1-10 and -0.6%
# (5 of 10) on seeds 11-20. But round_ms and p50_us went 7 of 10 to
# PARENT in the first session and 8 of 10 to CHANGE in the second, with
# medians about 1% apart and just outside PARENT's quartiles. A 9 of 10
# setup_s win seen once before did not come back, and nothing in this
# script tells the sides apart: each side builds at one path, and the
# runs alternate. The effect comes from the machine, so a win count
# under 9 of 10 shows nothing here.
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)
seeds=10
first=1
dir=${TMPDIR:-/tmp}/plfs-bench-pair
workloads=()
traced=0
while getopts "n:s:w:d:t" opt; do
    case $opt in
        n) seeds=$OPTARG ;;
        s) first=$OPTARG ;;
        w) workloads+=("$OPTARG") ;;
        d) dir=$OPTARG ;;
        t) traced=1 ;;
        *) sed -n '2,4p' "$0" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
parent=${1:-HEAD~1}
change=${2:-}
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(cd "$repo" && python3 -c \
        'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

# Unpack one side's source into $dir/src and build its benchmark there.
build() {
    local side=$1 rev=$2
    rm -rf "$dir/src"
    mkdir -p "$dir/src"
    if [ -z "$rev" ]; then
        # A tracked file deleted from the working tree is still listed.
        (cd "$repo" && git ls-files -co --exclude-standard -z |
            while IFS= read -r -d '' f; do
                if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi
            done | tar -c --null -T - -f -) |
            tar -x -C "$dir/src"
    else
        git -C "$repo" archive "$rev" | tar -x -C "$dir/src"
    fi
    echo "building $side (${rev:-working tree}) in $dir/src" >&2
    (cd "$dir/src" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
    cp "$dir/src/benchmark/target/release/plfs-benchmark" "$dir/$side.bin"
}

mkdir -p "$dir/runs"
rm -f "$dir"/runs/*.json
build parent "$parent"
build change "$change"

# Run from the last unpacked checkout: suite.py reads its BENCHMARK.json,
# and the LocalFs workloads write under it.
cd "$dir/src"
for w in "${workloads[@]}"; do
    for seed in $(seq "$first" $((first + seeds - 1))); do
        if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            python3 benchmark/suite.py run "$dir/runs/$side.$w.$seed.json" \
                --bin "$dir/$side.bin" --runs 1 --seed "$seed" --workload "$w" > /dev/null
        done
        echo "$w seed $seed done (first: ${order%% *})" >&2
    done
    if [ "$traced" -eq 1 ]; then
        for side in parent change; do
            python3 benchmark/suite.py run "$dir/runs/$side.$w.traced.json" \
                --bin "$dir/$side.bin" --runs 1 --seed "$first" --workload "$w" --trace 1 > /dev/null
        done
        echo "$w traced pair done" >&2
    fi
done

# Gather each side's runs, in seed order, into one suite.py file.
python3 - "$dir" "$first" "$seeds" "${workloads[@]}" <<'EOF'
import json, sys
d, first, seeds, names = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
for side in ("parent", "change"):
    out = {"trace": 0, "workloads": {}}
    for w in names:
        vals = {}
        for seed in range(first, first + seeds):
            with open(f"{d}/runs/{side}.{w}.{seed}.json") as f:
                for k, v in json.load(f)["workloads"][w].items():
                    vals.setdefault(k, []).extend(v)
        out["workloads"][w] = vals
    with open(f"{d}/{side}.json", "w") as f:
        json.dump(out, f, indent=1)
EOF

status=0
python3 benchmark/suite.py compare "$dir/parent.json" "$dir/change.json" || status=$?

# Per-seed pairs: change / parent per metric, and how many seeds the
# change won (by the metric's own direction).
python3 - "$dir" <<'EOF'
import json, sys
d = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
a = json.load(open(f"{d}/parent.json"))["workloads"]
b = json.load(open(f"{d}/change.json"))["workloads"]
for w in a:
    print(f"\n{w}")
    for m in spec["end_to_end"]:
        pa, pb = a[w][m["name"]], b[w][m["name"]]
        ratios = [y / x for x, y in zip(pa, pb)]
        wins = sum((y > x) if m["better"] == "higher" else (y < x) for x, y in zip(pa, pb))
        print(f"  {m['name']:12} wins {wins}/{len(pa)}  change/parent " +
              " ".join(f"{r:.3f}" for r in ratios))
        print(f"  {'':12} parent " + " ".join(f"{x:.6g}" for x in pa))
        print(f"  {'':12} change " + " ".join(f"{y:.6g}" for y in pb))
EOF

# The traced pair: every per-layer metric either side reports, side by
# side.
if [ "$traced" -eq 1 ]; then
    python3 - "$dir" "${workloads[@]}" <<'EOF'
import json, sys
d, names = sys.argv[1], sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))["per_layer"]
for w in names:
    side = {s: json.load(open(f"{d}/runs/{s}.{w}.traced.json"))["workloads"][w]
            for s in ("parent", "change")}
    print(f"\n{w} (traced pair)")
    print(f"  {'metric':34} {'unit':6} {'parent':>14} {'change':>14} {'change/parent':>14}")
    for m in spec:
        a, b = side["parent"][m["name"]][0], side["change"][m["name"]][0]
        if a == 0 and b == 0:
            continue
        ratio = f"{b / a:.3f}" if a else "-"
        print(f"  {m['name']:34} {m['unit']:6} {a:14.6g} {b:14.6g} {ratio:>14}")
EOF
fi
echo "runs and gathered results in $dir" >&2
exit $status
