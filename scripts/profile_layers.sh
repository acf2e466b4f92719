#!/usr/bin/env bash
# Layer profile of probe-serial campaigns: where a probe's CPU goes, by layer.
#
# Builds the campaign benchmark (perfbench/, which compiles src/) with gprof
# instrumentation into the gitignored .bench_build/profile tree — the flags
# go in through CMAKE_CXX_FLAGS, so no build option is involved — runs K
# probe-serial worlds (400 ASes, fleet mean 1.5, 4 shards, 1 thread, UDP
# follow-ups: the workload of that name in perfbench/run.py, on the first K
# worlds run.py measures for the given --seed), sums their gmon.out files in
# one gprof call, then rolls the flat profile up by cd:: namespace (dns, sim,
# net, resolver, scanner, ...). Self time outside any cd:: namespace
# (libstdc++ templates, libc) lands in "other"; malloc/free and memcpy are not
# instrumented, so the rows add up to the sampled share only. (`gprof -s`,
# the other way to sum profiles, aborts with "somebody miscounted" under
# binutils 2.40; passing every gmon.out to one gprof call does not.)
#
# Usage: scripts/profile_layers.sh [seed] [K]   (defaults 1 and 1; seed has
#        the same meaning as perfbench/run.py --seed)
# Output: each world's results digest (check them against perfbench/pins.json
#         "probe-serial"), the total sample count, the per-layer rollup (share
#         and samples: a layer share is trustworthy from ~1,000 samples up),
#         then the top 25 functions. The summed flat profile is kept at
#         .bench_build/profile/run/flat.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${1:-1}"
WORLDS="${2:-1}"
BUILD=".bench_build/profile"
RUN="${BUILD}/run"

# gprof knows only global symbols: samples in a local IPA clone (.isra,
# .constprop, .part) are charged to whichever global symbol precedes it in
# the binary, which misnames rows (a U128 hash-table probe showed up as
# vector<OsProfile> growth). The three -fno-* flags stop GCC making those
# clones, so every sample lands on a function of its own name.
cmake -S perfbench -B "${BUILD}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-DCMAKE_CXX_FLAGS=-pg -fno-ipa-sra -fno-ipa-cp-clone -fno-partial-inlining" \
  >/dev/null
cmake --build "${BUILD}" -j"$(nproc)" --target campaign_bench >/dev/null

rm -rf "${RUN}"
mkdir -p "${RUN}"
GMON=()
for ((i = 0; i < WORLDS; ++i)); do
  # run.py's world i for --seed N: a 60-bit hash of "N/i".
  WORLD="$(python3 -c 'import hashlib, sys
key = ("%s/%s" % (sys.argv[1], sys.argv[2])).encode()
print(int(hashlib.sha256(key).hexdigest()[:15], 16))' "${SEED}" "${i}")"
  DIR="${RUN}/w${i}"
  mkdir -p "${DIR}"
  # gmon.out lands in the working directory of the profiled process.
  (cd "${DIR}" && ../../campaign_bench --asns 400 --mean 1.5 --shards 4 \
    --threads 1 --seed "${WORLD}" --crosscheck-window 0 --poison-window 0 \
    --followup udp --trace 0 --setup-only 0 --spill-dir spill) \
    > "${DIR}/campaign.json"
  python3 -c 'import json, sys
r = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
print("world %s  digest %s" % (sys.argv[2], r.get("digest")))' \
    "${DIR}/campaign.json" "${WORLD}"
  GMON+=("${DIR}/gmon.out")
done

gprof -b -p "${BUILD}/campaign_bench" "${GMON[@]}" > "${RUN}/flat.txt"

# Every sample counts as the period in the flat profile's header (0.01 s).
awk '
  /Each sample counts as/ { period = $5 }
  $1 ~ /^[0-9.]+$/ && NF >= 4 { secs += $3 }
  END { printf "samples %d (%d worlds)\n", secs / period + 0.5, worlds }
' worlds="${WORLDS}" "${RUN}/flat.txt"

echo "=== self time by layer (% of sampled CPU, samples) ==="
awk '
  /Each sample counts as/ { period = $5 }
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
    secs[layer] += $3
    total += $1
    total_secs += $3
  }
  END {
    for (l in pct) {
      printf "%-10s %6.1f%% %8d\n", l, pct[l], secs[l] / period + 0.5
    }
    printf "%-10s %6.1f%% %8d\n", "TOTAL", total, total_secs / period + 0.5
  }' "${RUN}/flat.txt" | sort -k2 -rn

echo "=== top 25 functions by self time ==="
sed -n '1,30p' "${RUN}/flat.txt" | tail -n +6
