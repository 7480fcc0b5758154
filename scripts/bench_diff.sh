#!/bin/sh
# bench_diff.sh — compare benchmark results against a committed
# baseline and fail on regressions beyond $BENCH_TOLERANCE_PCT
# (default 10) percent.
#
#   bench_diff.sh [baseline] [current]
#
# With no arguments it re-runs the headline benchmarks (bench_run.sh)
# and compares ns/op against BENCH_5.json. Passing a current file as $2
# skips the re-run and compares the two files as-is — the chaos path:
#   bench_diff.sh BENCH_7.json /tmp/bench7-new.json
# Per-entry keys are compared direction-aware: ns_per_op and ack_p99_ms
# regress upward; submissions_per_sec and devices_steps_per_sec (the
# fleet engine in BENCH_9.json must not slow down) regress downward. A
# new entry missing from the baseline is reported but not fatal; a
# baseline entry missing from the current run is fatal.
set -eu
cd "$(dirname "$0")/.."

base=${1:-BENCH_5.json}
tol=${BENCH_TOLERANCE_PCT:-10}

if [ ! -f "$base" ]; then
    echo "bench_diff: no baseline $base — run 'make bench' and commit it" >&2
    exit 1
fi

if [ $# -ge 2 ]; then
    cur=$2
    if [ ! -f "$cur" ]; then
        echo "bench_diff: no current file $cur" >&2
        exit 1
    fi
    trap '' EXIT
else
    cur=$(mktemp)
    trap 'rm -f "$cur"' EXIT
    BENCH_OUT=$cur sh scripts/bench_run.sh >/dev/null
fi

awk -v tol="$tol" '
function grab(line, key,    v) {
    if (match(line, "\"" key "\": [0-9.eE+-]+")) {
        v = substr(line, RSTART, RLENGTH)
        sub(".*: ", "", v)
        return v
    }
    return ""
}
# store every comparable key found on this entry line, keyed "name/key"
function store(tab, name, line,    k, i, v) {
    split("ns_per_op ack_p99_ms submissions_per_sec devices_steps_per_sec", keys, " ")
    for (i in keys) {
        v = grab(line, keys[i])
        if (v != "") tab[name "/" keys[i]] = v
    }
}
{
    if (match($0, /"name": "[^"]*"/)) {
        name = substr($0, RSTART + 9, RLENGTH - 10)
        if (FNR == NR) { store(base, name, $0); seen_base[name] = 1 }
        else           { store(cur,  name, $0); seen_cur[name] = 1 }
    }
}
END {
    fail = 0
    for (nk in base) {
        split(nk, parts, "/"); n = parts[1]; key = parts[2]
        if (!(n in seen_cur)) {
            if (!(n in missing)) {
                printf "bench_diff: %s in baseline but not in current run\n", n
                missing[n] = 1
                fail = 1
            }
            continue
        }
        if (!(nk in cur)) continue
        # submissions_per_sec and devices_steps_per_sec regress when they
        # drop; everything else (ns_per_op, ack_p99_ms) regresses when it
        # climbs.
        if (key == "submissions_per_sec" || key == "devices_steps_per_sec") \
             pct = (base[nk] / cur[nk] - 1) * 100
        else pct = (cur[nk] / base[nk] - 1) * 100
        if (pct > tol) {
            printf "bench_diff: %s regressed: %.6g %s vs baseline %.6g (%+.1f%% worse > %s%% tolerance)\n", \
                n, cur[nk], key, base[nk], pct, tol
            fail = 1
        } else {
            printf "bench_diff: %s ok: %.6g %s vs baseline %.6g (%+.1f%% worse)\n", \
                n, cur[nk], key, base[nk], pct
        }
    }
    for (n in seen_cur) if (!(n in seen_base)) \
        printf "bench_diff: %s is new (no baseline entry)\n", n
    exit fail
}
' "$base" "$cur"
