#!/bin/sh
# Paired benchmark runs: a parent checkout against a change checkout, one
# workload, one pair per seed, alternating which side runs first.
#
#   scripts/bench_pairs.sh <parent-checkout> <change-checkout> <workload> <seed>...
#
# Each side is built offline from its own checkout and run exactly as the
# driver runs it (BENCHMARK.json's command, `--seconds 10 --trace 0`), so
# both use their own copy of the harness — keep `benchmark/` identical on
# the two sides. Prints every pair's op_ref / setup_s / attempted / failed,
# then, for each end-to-end metric in the change's BENCHMARK.json, each
# side's median and quartiles, the pairs each side won (ties count for
# neither) and two verdicts:
#   claim  holds when there are at least 10 pairs, the change won at least
#          9 in 10 of them, and the gap between the medians exceeds the
#          parent's interquartile range;
#   bound  flags a change median worse than the parent's by more than the
#          metric's `bound` (a fraction of the parent median).
# The script only reads; it changes nothing it measures.
set -eu
if [ "$#" -lt 4 ]; then
    echo "usage: $0 <parent-checkout> <change-checkout> <workload> <seed>..." >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
shift 3

for side in "$parent" "$change"; do
    (cd "$side" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# one run; prints "<side> <seed> <result json>"
run() {
    (cd "$2" && cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed "$3" --seconds 10 --trace 0 | tail -n 1 |
        sed "s/^/$1 $3 /")
}

results=$(mktemp)
trap 'rm -f "$results"' EXIT
flip=0
for seed in "$@"; do
    if [ "$flip" -eq 0 ]; then
        run parent "$parent" "$seed" >>"$results"
        run change "$change" "$seed" >>"$results"
    else
        run change "$change" "$seed" >>"$results"
        run parent "$parent" "$seed" >>"$results"
    fi
    flip=$((1 - flip))
done

python3 - "$workload" "$results" "$change/BENCHMARK.json" <<'PY'
import json, statistics, sys

workload, path, contract = sys.argv[1], sys.argv[2], sys.argv[3]
end_to_end = json.load(open(contract))["end_to_end"]
runs = {"parent": {}, "change": {}}
order = []
for line in open(path):
    side, seed, doc = line.split(" ", 2)
    runs[side][seed] = json.loads(doc)
    if seed not in order:
        order.append(seed)

def metric(doc, name):
    return doc["metrics"][name]["value"]

print(f"{workload}: one pair per seed, the side listed first ran first")
for i, seed in enumerate(order):
    sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    for side in sides:
        d = runs[side][seed]
        print(f"  seed {seed:>4} {side:<6} op_ref {metric(d, 'op_ref'):9.3f}  "
              f"setup_s {metric(d, 'setup_s'):7.3f}  attempted {d['attempted']:>4}  "
              f"failed {d['failed']}  correct {d['correct']}")

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

for m in end_to_end:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    print(f"{name}:")
    stats = {}
    for side in ("parent", "change"):
        stats[side] = q1, q2, q3 = quartiles([metric(runs[side][s], name) for s in order])
        print(f"  {side:<6} median {q2:.3f}  q1 {q1:.3f}  q3 {q3:.3f}  (n={len(order)})")
    wins = {"parent": 0, "change": 0}
    for s in order:
        p, c = metric(runs["parent"][s], name), metric(runs["change"][s], name)
        if p != c:
            wins["change" if (c < p) == lower else "parent"] += 1
    print(f"  pairs won ({m['better']} is better): change {wins['change']}, "
          f"parent {wins['parent']}, of {len(order)}")
    (p1, p2, p3), c2 = stats["parent"], stats["change"][1]
    gain = p2 - c2 if lower else c2 - p2
    iqr = p3 - p1
    n = len(order)
    holds = n >= 10 and wins["change"] * 10 >= 9 * n and gain > iqr
    why = "" if n >= 10 else ", fewer than 10 pairs"
    print(f"  claim: {'holds' if holds else 'does not hold'} (won {wins['change']}/{n}, "
          f"median gain {gain:.3f} vs parent IQR {iqr:.3f}{why})")
    rel = gain / p2 if p2 > 0 else 0.0
    verdict = "WORSE BEYOND BOUND" if -rel > bound else "ok"
    print(f"  bound: {verdict} (median gain {rel:+.1%}, bound {bound:.0%} worse)")
failed = {side: sum(runs[side][s]["failed"] for s in order) for side in runs}
print(f"failed operations: parent {failed['parent']}, change {failed['change']}")
PY
