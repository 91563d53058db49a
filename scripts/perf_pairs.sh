#!/usr/bin/env bash
# Alternating same-host perfbench pairs: a parent checkout against a
# change checkout, one workload, a list of seeds.
#
#   scripts/perf_pairs.sh PARENT CHANGE WORKLOAD SECONDS SEED...
#
# For each seed it runs
#   python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0
# in both checkouts, one after the other, and swaps which side goes
# first from one seed to the next, so neither side always meets the
# host's slow stretches. Then it prints, for each end-to-end metric that
# the change's BENCHMARK.json declares, both sides' medians, the
# parent's interquartile range and how many pairs the change won (a tie
# wins nothing), and flags every seed whose simulated metrics (`sim_*`,
# exact for one seed) differ between the sides, and every run that is
# not correct. It exits 1 if it flagged anything.
#
# Each run's result line is kept in $PERF_PAIRS_OUT (default: a fresh
# directory under $TMPDIR), as <side>-<seed>.json.
set -euo pipefail

if [ $# -lt 5 ]; then
  sed -n '2,/^set -euo/p' "$0" | sed -e '$d' -e 's/^# \{0,1\}//'
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seconds=$4
shift 4
out=${PERF_PAIRS_OUT:-$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")}
mkdir -p "$out"

run() { # side dir seed
  local log="$out/$1-$3.log"
  (cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$3" \
     --seconds "$seconds" --trace 0) > "$log" 2>&1 || {
    echo "perf_pairs: $1 run at seed $3 failed; see $log" >&2
    exit 1
  }
  tail -n 1 "$log" > "$out/$1-$3.json"
}

i=0
for seed in "$@"; do
  if [ $((i % 2)) -eq 0 ]; then
    run parent "$parent" "$seed"; run change "$change" "$seed"
  else
    run change "$change" "$seed"; run parent "$parent" "$seed"
  fi
  i=$((i + 1))
  echo "perf_pairs: seed $seed done ($i of $#)" >&2
done

python3 - "$change/BENCHMARK.json" "$out" "$workload" "$seconds" "$@" <<'EOF'
import json, statistics, sys

spec, out, workload, seconds, seeds = (
    sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5:])
metrics = json.load(open(spec))["end_to_end"]


def result(side, seed):
    with open("%s/%s-%s.json" % (out, side, seed)) as f:
        return json.loads(f.read())


runs = {s: (result("parent", s), result("change", s)) for s in seeds}
flagged = False


def value(r, name):
    m = r["metrics"].get(name)
    return None if m is None else m["value"]


print("workload %s, %d pairs of %s-s runs, seeds %s"
      % (workload, len(seeds), seconds, " ".join(seeds)))
print("%-20s %-7s %-6s %14s %23s %14s %8s %6s"
      % ("metric", "unit", "better", "parent median", "parent IQR",
         "change median", "ratio", "won"))
for m in metrics:
    name = m["name"]
    pairs = [(value(p, name), value(c, name)) for p, c in runs.values()]
    pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
    if not pairs:
        print("%-20s (not reported)" % name)
        continue
    par = [p for p, _ in pairs]
    chg = [c for _, c in pairs]
    if len(par) > 1:
        q1, _, q3 = statistics.quantiles(par, n=4, method="inclusive")
    else:
        q1 = q3 = par[0]
    mp, mc = statistics.median(par), statistics.median(chg)
    higher = m["better"] == "higher"
    won = sum(1 for p, c in pairs if (c > p if higher else c < p))
    ratio = "%.3f" % (mc / mp) if mp else "-"
    print("%-20s %-7s %-6s %14.6g %23s %14.6g %8s %3d/%-2d"
          % (name, m["unit"], m["better"], mp, "%.6g-%.6g" % (q1, q3), mc,
             ratio, won, len(pairs)))

for s, (p, c) in runs.items():
    for side, r in (("parent", p), ("change", c)):
        if not r.get("correct", False):
            flagged = True
            print("FLAG seed %s: the %s run is not correct (%s of %s ops failed)"
                  % (s, side, r.get("failed"), r.get("attempted")))
    names = sorted(n for n in set(p["metrics"]) | set(c["metrics"])
                   if n.startswith("sim_"))
    for n in names:
        if value(p, n) != value(c, n):
            flagged = True
            print("FLAG seed %s: %s differs: parent %s, change %s"
                  % (s, n, value(p, n), value(c, n)))
print("results in %s" % out)
sys.exit(1 if flagged else 0)
EOF
