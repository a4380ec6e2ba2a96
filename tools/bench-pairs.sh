#!/usr/bin/env bash
# Interleaved A/B benchmark of a parent commit against HEAD.
#
#   tools/bench-pairs.sh PARENT WORKLOAD N
#
# Exports the committed files of PARENT and of HEAD (git archive) into a
# scratch directory, then runs
#
#   python3 perfbench/run.py --workload WORKLOAD --seconds 25 --trace 0
#
# N times on each side, one pair at a time, alternating which side runs
# first so a drift in machine speed hits both sides alike. It prints each
# pair's end-to-end metrics as they come, then per metric the two
# medians, how many pairs HEAD won, and the parent's interquartile range:
# a gain is only worth claiming when HEAD wins nearly every pair and its
# median moves by more than that range.
#
# Environment: BENCH_SECONDS (default 25) is --seconds; TMPDIR picks the
# scratch directory's parent, which is removed on exit. Each side builds
# its commands from its own sources (perfbench/run.py does this before
# timing anything), so the first pair takes a few minutes longer.
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: tools/bench-pairs.sh PARENT WORKLOAD N" >&2
	exit 2
fi
parent=$1 workload=$2 n=$3
seconds=${BENCH_SECONDS:-25}
repo=$(git rev-parse --show-toplevel)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
for side in parent head; do
	rev=$parent
	[ "$side" = head ] && rev=HEAD
	mkdir -p "$work/$side"
	git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
done
echo "bench-pairs: $workload, $n pairs, parent $(git -C "$repo" rev-parse --short "$parent"), HEAD $(git -C "$repo" rev-parse --short HEAD)" >&2

results=$work/results.jsonl
run() { # side pair
	local out
	if ! out=$(cd "$work/$1" && python3 perfbench/run.py --workload "$workload" --seconds "$seconds" --trace 0 2>"$work/$1.err" | tail -n 1); then
		echo "bench-pairs: $1 run of pair $2 failed:" >&2
		cat "$work/$1.err" >&2
		exit 1
	fi
	printf '{"side":"%s","pair":%d,"result":%s}\n' "$1" "$2" "$out" >>"$results"
}
for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then
		run parent "$i"
		run head "$i"
	else
		run head "$i"
		run parent "$i"
	fi
	python3 - "$results" "$i" <<'EOF'
import json, sys
rows = [json.loads(l) for l in open(sys.argv[1])]
pair = int(sys.argv[2])
m = {r["side"]: r["result"]["metrics"] for r in rows if r["pair"] == pair}
print("pair %d: " % pair + ", ".join(
    "%s %.4g -> %.4g" % (k, m["parent"][k]["value"], m["head"][k]["value"]) for k in sorted(m["head"])), flush=True)
EOF
done

python3 - "$results" "$repo/BENCHMARK.json" <<'EOF'
import json, statistics, sys
rows = [json.loads(l) for l in open(sys.argv[1])]
better = {m["name"]: m["better"] for m in json.load(open(sys.argv[2]))["end_to_end"]}
pairs = sorted({r["pair"] for r in rows})
side = {(r["side"], r["pair"]): r["result"] for r in rows}
failed = [p for p in pairs for s in ("parent", "head") if not side[(s, p)]["correct"]]
if failed:
    print("pairs with failed invocations: %s" % failed)
print("%-16s %12s %12s %8s %12s" % ("metric", "parent", "head", "wins", "parent IQR"))
for name in sorted(side[("head", pairs[0])]["metrics"]):
    par = [side[("parent", p)]["metrics"][name]["value"] for p in pairs]
    head = [side[("head", p)]["metrics"][name]["value"] for p in pairs]
    sign = 1 if better.get(name, "higher") == "higher" else -1
    wins = sum(1 for a, b in zip(par, head) if sign * (b - a) > 0)
    q = statistics.quantiles(par, n=4) if len(par) > 1 else [par[0]] * 3
    print("%-16s %12.4g %12.4g %5d/%-2d %12.4g" % (
        name, statistics.median(par), statistics.median(head), wins, len(pairs), q[2] - q[0]))
EOF
