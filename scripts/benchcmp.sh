#!/bin/sh
# benchcmp.sh — compare two bench.sh JSON records benchmark by
# benchmark and flag regressions.
#
#   scripts/benchcmp.sh OLD.json NEW.json [threshold-pct|off]
#
# For every benchmark present in both files it prints old/new ns/op and
# the delta; ns/op regressions beyond the threshold (default 10%) are
# marked "REGRESSION" and make the script exit 1, so it can gate CI.
# Threshold "off" reports ns/op without gating it (for records taken at
# different CPU counts). Benchmarks flagged low_iter (a single
# iteration) are compared but annotated — one-sample numbers are too
# noisy to fail a build on, so they warn instead of erroring.
# Benchmarks present in only one file are listed as added/removed.
#
# The per-op work counts below are compared exactly, whatever the
# threshold: each is a per-op constant of its benchmark, so any
# difference is a change in the work done, not noise, and fails naming
# the metric. selected_frac and the *_per_sec rates depend on b.N or on
# time and are not compared.
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: benchcmp.sh OLD.json NEW.json [threshold-pct|off]" >&2
    exit 2
fi
old=$1
new=$2
threshold=${3:-10}
for f in "$old" "$new"; do
    [ -r "$f" ] || { echo "benchcmp.sh: cannot read $f" >&2; exit 2; }
done

counts="links active exact_rows_per_op admission_reads_per_op resident_rows packets_per_op contention_checks_per_op aware_fails_per_slot baseline_fails_per_slot"

# Flatten one bench.sh JSON into "name key value" lines: ns_per_op,
# low_iter (value 1) and each count present. The records are
# machine-written one benchmark per line, so line-oriented extraction is
# reliable without a JSON parser in the image.
flatten() {
    tr ',' '\n' <"$1" | awk -v counts="$counts" '
        BEGIN { split(counts, c, " "); for (i in c) want[c[i]] = 1 }
        /"name":/ { gsub(/.*"name": *"|".*/, ""); name = $0; next }
        /"low_iter":/ { print name, "low_iter", 1; next }
        /"[A-Za-z0-9_]+": *[-0-9.eE+]+/ {
            key = $0
            sub(/^[^"]*"/, "", key)
            sub(/".*/, "", key)
            if (key != "ns_per_op" && !(key in want)) next
            val = $0
            sub(/.*": */, "", val)
            gsub(/[^0-9.eE+-]/, "", val)
            print name, key, val
        }
    '
}

tmpo=$(mktemp)
tmpn=$(mktemp)
trap 'rm -f "$tmpo" "$tmpn"' EXIT
flatten "$old" >"$tmpo"
flatten "$new" >"$tmpn"

awk -v threshold="$threshold" -v counts="$counts" -v oldfile="$old" -v newfile="$new" '
    NR == FNR { o[$1, $2] = $3; if ($2 == "ns_per_op") oldb[$1] = 1; next }
    { v[$1, $2] = $3; if ($2 == "ns_per_op") newb[$1] = 1 }
    END {
        nc = split(counts, c, " ")
        printf "%-56s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta"
        regressions = 0
        changed = 0
        n = 0
        for (b in newb) names[n++] = b
        # deterministic report order
        for (i = 0; i < n; i++)
            for (j = i + 1; j < n; j++)
                if (names[j] < names[i]) { t = names[i]; names[i] = names[j]; names[j] = t }
        for (i = 0; i < n; i++) {
            b = names[i]
            nns = v[b, "ns_per_op"]
            if (!(b in oldb)) { printf "%-56s %14s %14.0f %9s\n", b, "-", nns, "added"; continue }
            ons = o[b, "ns_per_op"]
            pct = ons > 0 ? 100 * (nns - ons) / ons : 0
            note = ""
            if (threshold != "off" && pct > threshold) {
                if ((b, "low_iter") in o || (b, "low_iter") in v) note = "  noisy (single iteration) — not gated"
                else { note = "  REGRESSION"; regressions++ }
            }
            printf "%-56s %14.0f %14.0f %+8.1f%%%s\n", b, ons, nns, pct, note
            for (k = 1; k <= nc; k++) {
                key = c[k]
                inold = (b, key) in o
                innew = (b, key) in v
                if (!inold && !innew) continue
                if (inold && innew && o[b, key] + 0 == v[b, key] + 0) continue
                printf "%-56s COUNT CHANGED %s: %s -> %s\n", "", key, inold ? o[b, key] : "-", innew ? v[b, key] : "-"
                changed++
            }
            delete oldb[b]
        }
        for (b in oldb) printf "%-56s %14.0f %14s %9s\n", b, o[b, "ns_per_op"], "-", "removed"
        if (changed)
            printf "\n%d per-op count(s) changed (%s -> %s): commit a new baseline and name the change\n", changed, oldfile, newfile
        if (regressions)
            printf "\n%d benchmark(s) regressed more than %s%% (%s -> %s)\n", regressions, threshold, oldfile, newfile
        if (changed || regressions) exit 1
    }
' "$tmpo" "$tmpn"
