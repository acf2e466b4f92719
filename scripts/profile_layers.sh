#!/usr/bin/env bash
# Layer profile of one campaign: where a probe's CPU goes, by layer.
#
# Builds the campaign benchmark (perfbench/, which compiles src/) with gprof
# instrumentation into the gitignored .bench_build/profile tree — the flag
# goes in through CMAKE_CXX_FLAGS, so no build option is involved — runs one
# probe-serial world (400 ASes, fleet mean 1.5, 4 shards, 1 thread, UDP
# follow-ups: the workload of that name in perfbench/run.py, on the same
# world run.py measures first for the given --seed), then rolls the gprof
# flat profile up by cd:: namespace (dns, sim, net, resolver, scanner, ...).
# Self time outside any cd:: namespace (libstdc++ templates, libc) lands in
# "other"; malloc/free and memcpy are not instrumented, so the rows add up
# to the sampled share only.
#
# Usage: scripts/profile_layers.sh [seed]   (default 1; same meaning as
#        perfbench/run.py --seed)
# Output: the campaign's results digest (check it against perfbench/pins.json
#         "probe-serial"), the per-layer rollup, then the top 25 functions.
#         The flat profile is kept at .bench_build/profile/run/flat.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${1:-1}"
BUILD=".bench_build/profile"
RUN="${BUILD}/run"

cmake -S perfbench -B "${BUILD}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-pg >/dev/null
cmake --build "${BUILD}" -j"$(nproc)" --target campaign_bench >/dev/null

# run.py's first world for --seed N: a 60-bit hash of "N/0".
WORLD="$(python3 -c 'import hashlib, sys
digest = hashlib.sha256(b"%s/0" % sys.argv[1].encode()).hexdigest()
print(int(digest[:15], 16))' "${SEED}")"

rm -rf "${RUN}"
mkdir -p "${RUN}"
# gmon.out lands in the working directory of the profiled process.
(cd "${RUN}" && ../campaign_bench --asns 400 --mean 1.5 --shards 4 \
  --threads 1 --seed "${WORLD}" --crosscheck-window 0 --poison-window 0 \
  --followup udp --trace 0 --setup-only 0 --spill-dir spill) \
  > "${RUN}/campaign.json"
python3 -c 'import json, sys
r = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
print("world %s  digest %s" % (sys.argv[2], r.get("digest")))' \
  "${RUN}/campaign.json" "${WORLD}"

gprof -b -p "${BUILD}/campaign_bench" "${RUN}/gmon.out" > "${RUN}/flat.txt"

echo "=== self time by layer (% of sampled CPU) ==="
awk '
  # Flat-profile rows start with "% time"; the function name follows the
  # numeric columns (three of them when gprof has no call counts).
  $1 ~ /^[0-9.]+$/ && NF >= 4 {
    name = ($4 ~ /^[0-9]+$/) ? $7 : $4
    for (i = (($4 ~ /^[0-9]+$/) ? 8 : 5); i <= NF; ++i) name = name " " $i
    layer = "other"
    if (match(name, /^cd::[a-z_]+::/)) {
      layer = substr(name, 5, RLENGTH - 6)
    } else if (match(name, /^cd::/)) {
      layer = "util"
    }
    pct[layer] += $1
    total += $1
  }
  END {
    for (l in pct) printf "%-10s %6.1f%%\n", l, pct[l]
    printf "%-10s %6.1f%%\n", "TOTAL", total
  }' "${RUN}/flat.txt" | sort -k2 -rn

echo "=== top 25 functions by self time ==="
sed -n '1,30p' "${RUN}/flat.txt" | tail -n +6
