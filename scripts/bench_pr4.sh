#!/usr/bin/env bash
# Regenerate BENCH_PR4.json — the perf-trajectory snapshot for the
# incremental selection loop (dirty-set shortest-path cache + lazy score
# heap) against the paper-literal full fan-out.
#
# Replays one contended epoch of a fixed seeded trace (the engine_sim
# default network: 1000 nodes, 5000 edges, 32 hotspot pairs) under both
# selection strategies:
#   * payments off at 10^3 / 10^4 / 10^5-request epochs (the headline
#     epoch-allocation speedup trajectory), and
#   * critical-value payments on at 100 / 300-request epochs (the
#     pricing path resumes thousands of probe suffixes, each of which
#     re-enters the selection loop). Payment batches stop at 300 because
#     the *fan-out baseline* becomes impractical beyond that on this
#     network — pricing a 10^3-request epoch under fan-out selection ran
#     past 40 minutes without finishing on the reference host, which is
#     the bottleneck this PR removes.
#
# For every batch size the two strategies' JSON documents must agree on
# every deterministic field — admissions, revenue, stop counters,
# utilization — byte for byte; only the "timing" object and the
# "selection" config field may differ. The diff below enforces that
# in-script.
# Expect the fan-out rows at 10^5 (allocation) and 300 (payments) to
# take several minutes each — that is the point.
#
# Usage: cargo build --release && scripts/bench_pr4.sh
set -euo pipefail
cd "$(dirname "$0")/.."
BIN=./target/release/engine_sim
COMMON="--nodes 1000 --edges 5000 --eps 0.5 --hotspots 32 --epochs 1 --seed 7"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run_pair() { # run_pair <tag> <mean> <payments>
  local tag=$1 mean=$2 pay=$3
  for sel in fanout incremental; do
    echo >&2 "bench_pr4: $tag mean=$mean payments=$pay selection=$sel ..."
    $BIN $COMMON --mean "$mean" --payments "$pay" --selection "$sel" --json \
      >"$tmp/run_${tag}_${mean}_${sel}.json" 2>/dev/null
  done
  # Bit-identity: strip only wall-clock and the config echo (which
  # contains the selection label); everything else must match exactly.
  if ! diff <(grep -v '"timing"\|"config"' "$tmp/run_${tag}_${mean}_fanout.json") \
            <(grep -v '"timing"\|"config"' "$tmp/run_${tag}_${mean}_incremental.json") \
            >/dev/null; then
    echo >&2 "bench_pr4: incremental vs fanout mismatch at $tag mean=$mean"
    exit 1
  fi
}

for mean in 1000 10000 100000; do
  run_pair alloc "$mean" none
done
for mean in 100 300; do
  run_pair pay "$mean" critical
done

elapsed() { # elapsed <tag> <mean> <sel>
  grep -o '"elapsed_s": [0-9.]*' "$tmp/run_$1_$2_$3.json" | grep -o '[0-9.]*'
}

speedup_row() { # speedup_row <tag> <mean> <sep>
  awk -v f="$(elapsed "$1" "$2" fanout)" \
      -v i="$(elapsed "$1" "$2" incremental)" -v m="$2" -v s="$3" \
      'BEGIN { printf "    \"batch_%s\": %.1f%s\n", m, f / i, s }'
}

{
  echo '{'
  echo '  "bench": "PR4 perf trajectory: incremental selection (dirty-set path cache + lazy score heap) vs full fan-out",'
  echo '  "network": "gnm_digraph, 1000 nodes, 5000 edges, eps 0.5, 32 hotspot pairs, seed 7",'
  echo '  "workload": "1 epoch, Poisson arrivals at the stated mean, demands in [0.2, 1.0]",'
  echo '  "host": "'"$(uname -srm)"', '"$(nproc)"' core(s)",'
  echo '  "note": "for every batch size the fanout and incremental documents are bit-identical on every deterministic field (verified by this script); timing objects are wall-clock and machine-dependent",'
  echo '  "speedup_incremental_vs_fanout_allocation": {'
  speedup_row alloc 1000 ','
  speedup_row alloc 10000 ','
  speedup_row alloc 100000 ''
  echo '  },'
  echo '  "speedup_incremental_vs_fanout_critical_value_payments": {'
  speedup_row pay 100 ','
  speedup_row pay 300 ''
  echo '  },'
  echo '  "runs": ['
  first=1
  for spec in alloc_1000 alloc_10000 alloc_100000 pay_100 pay_300; do
    tag=${spec%_*}
    mean=${spec##*_}
    for sel in fanout incremental; do
      [ "$first" = 1 ] || echo '    ,'
      first=0
      sed 's/^/    /' "$tmp/run_${tag}_${mean}_${sel}.json"
    done
  done
  echo '  ]'
  echo '}'
} >BENCH_PR4.json
echo >&2 "bench_pr4: wrote BENCH_PR4.json"
