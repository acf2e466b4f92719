#!/usr/bin/env python3
"""Campaign benchmark for closeddoors.

Runs one workload for about --seconds seconds, each campaign in a fresh
process of campaign_bench (built from ../src on first use), checks every
campaign's results_digest against the pin for its world seed, and prints
every metric by name and unit. The last stdout line is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 runs K distinct worlds and reports the end-to-end metrics.
--trace 1 runs one world untraced and traced in turn and reports the
per-layer metrics of the traced campaigns and the tracing overhead.

  python3 perfbench/run.py --workload probe-serial --seed 1 --seconds 30 --trace 0

`attempted` counts shards over all campaigns and `failed` the shards that
threw. A digest off its pin, or any disagreement between repeats of one
world, fails every shard of the run. Any failure makes the command exit 1
after printing the result line. NOTES.md explains the workloads, the
layer-to-metric map and the observed spread.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "runs")
PINS = os.path.join(BENCH_DIR, "pins.json")

# Every workload uses ditl::bench_world_spec() with these overrides. Why each
# exists, and which layers it loads, is in NOTES.md.
WORKLOADS = {
    "probe-serial": dict(asns=400, mean=1.5, shards=4, threads=1,
                         crosscheck_window=0, poison_window=0,
                         followup="udp"),
    "scale-out": dict(asns=10000, mean=1.5, shards=128, threads=4,
                      crosscheck_window=0, poison_window=0, followup="udp"),
    "planes-tcp": dict(asns=400, mean=1.5, shards=32, threads=2,
                       crosscheck_window=20, poison_window=8,
                       followup="tcp-persistent"),
}

# Seconds one campaign of each workload took on the reference machine
# (NOTES.md). An untraced run measures int(--seconds / this) worlds, so the
# same (seed, --seconds) always measures the same inputs.
NOMINAL_CAMPAIGN_S = {"probe-serial": 2.2, "scale-out": 15.0,
                      "planes-tcp": 2.1}

# Set-up-only processes per untraced run, on top of one set-up per campaign.
SETUP_SAMPLES = 8

# Metric names and units: BENCHMARK.json at the root declares them, this
# script emits exactly those (--trace 0: end_to_end, --trace 1: per_layer).
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _DECLARED = json.load(_f)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

# Per-layer counts that are pure functions of (workload, world seed): the
# outcome counts guard the meaning of every speed number, and the sim and
# spill counts fix the work done. alloc.per_probe is absent: with more than
# one worker thread the thread-local buffer pools warm per thread, so it
# moves in the fifth digit (NOTES.md).
EXACT_COUNTS = ("scanner.probes", "scanner.collector_entries",
                "scanner.records_per_kprobe", "attack.forged_per_success",
                "sim.events_per_probe", "sim.delivered", "sim.tcp_dials",
                "sim.drop_share", "core.spill_bytes")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds campaign_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found at " +
                           os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                    str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "campaign_bench")


def source_digest():
    """SHA-256 over the library and benchmark sources, for provenance when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the repository rooted at ROOT; None in a checkout without git
    metadata (or nested in some other repository)."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    top, head = out.stdout.split()
    return head if os.path.realpath(top) == os.path.realpath(ROOT) else None


def workload_config(name, scale):
    config = dict(WORKLOADS[name])
    config["asns"] = max(1, round(config["asns"] * scale))
    return config


def world_seed(seed, i):
    """Seed of the run's i-th world: a 60-bit hash of (seed, i)."""
    digest = hashlib.sha256(b"%d/%d" % (seed, i)).hexdigest()
    return int(digest[:15], 16)


def run_campaign(binary, config, seed, traced, setup_only=False):
    """Runs one campaign (or its set-up alone) in a fresh process; returns
    its JSON record."""
    tag = "%d-%d-%s" % (os.getpid(), seed, "traced" if traced else "plain")
    spill = os.path.join(WORK_DIR, "spill-" + tag)
    cmd = [binary,
           "--asns", str(config["asns"]), "--mean", repr(config["mean"]),
           "--shards", str(config["shards"]),
           "--threads", str(config["threads"]), "--seed", str(seed),
           "--crosscheck-window", str(config["crosscheck_window"]),
           "--poison-window", str(config["poison_window"]),
           "--followup", config["followup"],
           "--trace", "1" if traced else "0",
           "--setup-only", "1" if setup_only else "0",
           "--spill-dir", spill]
    if traced:
        cmd += ["--trace-out", os.path.join(WORK_DIR, "trace-%s.json" % tag)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
    finally:
        shutil.rmtree(spill, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("campaign_bench exited %d" % proc.returncode)
    return json.loads(lines[-1])


def load_pins():
    with open(PINS) as f:
        return json.load(f)


def save_pins(workload, by_world):
    """Records each world's single digest as its pin."""
    pins = load_pins()
    table = pins.setdefault(workload, {})
    table.update({w: next(iter(ds)) for w, ds in by_world.items()})
    pins[workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=2)
        f.write("\n")


def measure(binary, config, args):
    """Runs the campaigns of one run; returns (setups, untraced, traced)."""
    setups, untraced, traced = [], [], []
    if args.trace == 0:
        # Set-up alone, several times: scale-out runs too few campaigns to
        # give a steady set-up median by themselves.
        for i in range(SETUP_SAMPLES):
            setups.append(run_campaign(binary, config, world_seed(args.seed, i),
                                       False, setup_only=True))
        # K distinct worlds, K fixed by --seconds: the seed-to-seed variation
        # of one world's composition averages out over the run.
        worlds = max(1, int(args.seconds // NOMINAL_CAMPAIGN_S[args.workload]))
        for i in range(worlds):
            untraced.append(run_campaign(binary, config,
                                         world_seed(args.seed, i), False))
        return setups, untraced, traced
    # World 0 alone, untraced and traced in turn until --seconds pass.
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for out, trace in ((untraced, False), (traced, True)):
            out.append(run_campaign(binary, config, world_seed(args.seed, 0),
                                    trace))
        now = time.monotonic()
        if now - start + (now - t0) > args.seconds:
            return setups, untraced, traced


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply the AS count (tests only; pins apply "
                         "at 1.0 alone)")
    ap.add_argument("--record-pin", action="store_true",
                    help="store the run's world digests in pins.json")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 600:
        ap.error("--seconds must be in [1, 600]")
    if not 0 < args.scale <= 1.0:
        ap.error("--scale must be in (0, 1]")
    if args.record_pin and args.scale != 1.0:
        ap.error("--record-pin needs --scale 1")

    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    config = workload_config(args.workload, args.scale)
    pins = load_pins().get(args.workload, {}) if args.scale == 1.0 else {}
    setups, untraced, traced = measure(binary, config, args)

    # --- correctness ---------------------------------------------------------
    records = untraced + traced
    attempted = sum(r["shards"] for r in records)
    failed = sum(r["failed_shards"] for r in records)
    ok_untraced = [r for r in untraced if r["failed_shards"] == 0]
    ok_traced = [r for r in traced if r["failed_shards"] == 0]
    by_world = {}
    for r in ok_untraced + ok_traced:
        by_world.setdefault(str(r["seed"]), set()).add(r["digest"])
    off_pin = sorted(w for w, ds in by_world.items()
                     if len(ds) > 1 or (w in pins and pins[w] not in ds))
    if off_pin:
        log("digest off its pin or not repeatable for world seed(s) " +
            ", ".join(off_pin))
    moved = sorted(key for key in EXACT_COUNTS
                   if len({r["layers"][key] for r in ok_traced}) > 1)
    if moved:
        log("counts moved between traced repeats of one world: " +
            ", ".join(moved))
    if off_pin or moved:
        failed = attempted  # the whole run counts as failed
    correct = failed == 0
    if args.record_pin and correct:
        save_pins(args.workload, by_world)
        pins = load_pins()[args.workload]
    unpinned = sorted((w for w in by_world if w not in pins), key=int)
    if unpinned:
        log("note: no pinned digest for world seed(s) %s of %s; checked "
            "only that repeated campaigns agree" %
            (", ".join(unpinned), args.workload))

    # --- metrics -------------------------------------------------------------
    if args.trace == 0:
        total_s = sum(r["campaign_s"] for r in ok_untraced)
        metrics = {
            "probes_per_s": (sum(r["probes"] for r in ok_untraced) / total_s
                             if total_s else 0.0),
            "campaign_s": (total_s / len(ok_untraced)
                           if ok_untraced else 0.0),
            "setup_s": median(r["setup_s"] for r in setups + untraced),
            "peak_rss_mib": median(r["peak_rss_mib"] for r in untraced),
        }
        units = END_TO_END_UNITS
    else:
        metrics = {key: median(r["layers"][key] for r in ok_traced)
                   for key in PER_LAYER_UNITS if key != "trace.campaign_ratio"}
        untraced_s = median(r["campaign_s"] for r in ok_untraced)
        metrics["trace.campaign_ratio"] = (
            median(r["campaign_s"] for r in ok_traced) / untraced_s
            if untraced_s else 0.0)
        units = PER_LAYER_UNITS

    provenance = {
        "commit": git_commit(),
        "source_digest": source_digest(),
        "build_type": records[0].get("build_type"),
        "compiler": records[0].get("compiler"),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "config": dict(config, world_spec="ditl::bench_world_spec()"),
        "seed": args.seed,
        "seconds": args.seconds,
        "worlds": [{"seed": r["seed"], "digest": r.get("digest"),
                    "traced": r["mode"] == "traced",
                    "campaign_s": r.get("campaign_s"),
                    "probes": r.get("probes"),
                    "crosscheck_probes": r.get("crosscheck_probes"),
                    "records": r.get("records")} for r in records],
        "unpinned": unpinned,
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for key, value in metrics.items():
        print("%-28s %16.6f %s" % (key, value, units[key]))
    print("# failed_share %.4f (%d of %d shards)" %
          (failed / attempted if attempted else 1.0, failed, attempted))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError) as e:
        log("run.py: %s" % e)
        sys.exit(1)
