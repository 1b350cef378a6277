#!/usr/bin/env python3
"""Paper-sweep benchmark of dttsim: build the driver, run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-cold --seed 12345 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test          # checks reject bad input
    python3 perfbench/run.py --fidelity [--seed N]  # traffic == figures

The driver is built from source into .bench_build/perfbench at the
repository's default build type (RelWithDebInfo); sanitizer builds are
refused. Build output goes to standard error, so the last line of
standard output is the driver's JSON result. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORK = os.path.join(BUILD_ROOT, "perfbench-work")
TMP = os.path.join(BUILD_ROOT, "tmp")
DRIVER = os.path.join(BUILD, "perfbench_driver")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
FIGURES = [
    "fig5_speedup", "fig6_insn_reduction", "fig7_contexts",
    "fig8_tq_size", "fig9_ablation_silent", "fig10_energy_proxy",
    "fig11_update_rate", "fig12_vs_reuse", "fig13_spawn_latency",
    "fig14_corunner", "fig15_prefetch", "fig16_fault_degradation",
]
SAMPLE_STRIDE = 4  # traffic.h kSampleStride


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def run_checked(cmd, **kw):
    """Run cmd with its output on stderr; exit 1 if it fails."""
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kw)
    if res.returncode != 0:
        log(f"failed ({res.returncode}): {' '.join(cmd)}")
        sys.exit(1)


def build(targets):
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    have = line.split("=", 1)[1].strip()
                    if have != BUILD_TYPE:
                        log(f"refusing build type {have}; "
                            f"remove {BUILD} to rebuild as {BUILD_TYPE}")
                        sys.exit(1)
    else:
        run_checked(["cmake", "-S", HERE, "-B", BUILD,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    run_checked(["cmake", "--build", BUILD, "-j", str(nproc()),
                 "--target", *targets])


def commit_id():
    """The git commit, or a digest of the sources when the checkout is
    not a git repository."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            return res.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def run_driver(args):
    # A driver killed mid-run leaves its per-process directory behind.
    if os.path.isdir(WORK):
        for name in os.listdir(WORK):
            if name.isdigit():
                shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
    res = subprocess.Popen([DRIVER, *args])
    try:
        return res.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        res.kill()
        res.wait()
        log(f"driver did not finish within {RUN_TIMEOUT_S} s")
        return 1


def stratified_sample(records):
    """The sample rule of traffic.cpp, recomputed from figure records:
    records is [(figure, label, digest)] in submission order."""
    seen, strata, order = set(), {}, {}
    for fig, label, digest in records:
        if digest in seen:
            continue
        seen.add(digest)
        if (fig, label) not in strata:
            order[(fig, label)] = sum(1 for k in strata if k[0] == fig)
            strata[(fig, label)] = []
        strata[(fig, label)].append(digest)
    sample = set()
    for key, members in strata.items():
        offset = order[key] % SAMPLE_STRIDE
        sample.update(d for j, d in enumerate(members)
                      if j % SAMPLE_STRIDE == offset)
    return sample


def fidelity(seed):
    """Regenerate the figure binaries' --json at the benchmark's seed
    and check that the driver's traffic is the figures' traffic."""
    build(["perfbench_driver", *FIGURES])
    out = os.path.join(WORK, "fidelity")
    cache = os.path.join(out, "cache")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    listing = subprocess.run([DRIVER, "--list-digests", "--seed",
                              str(seed)], capture_output=True, text=True,
                             check=True).stdout.split("\n")
    driver_batches, driver_sample = {}, []
    for line in listing:
        words = line.split()
        if words and words[0] == "figure":
            driver_batches[words[1]] = words[2:]
        elif words and words[0] == "sample":
            driver_sample = words[1:]
    records, ok = [], True
    print(f"{'figure':<26}{'jobs':>6}{'new':>6}{'sampled':>9}"
          f"{'cpu_s':>9}  digests")
    seen = set()
    for fig in FIGURES:
        path = os.path.join(out, fig + ".json")
        res = subprocess.run(
            [os.path.join(BUILD, "dttsim", "bench", fig),
             f"--seed={seed}", f"--jobs={nproc()}", "--cache=rw",
             f"--cache-dir={cache}", f"--json={path}"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if res.returncode != 0:
            log(f"{fig} failed:\n{res.stderr}")
            sys.exit(1)
        # "<fig>: N submitted, M executed, ..., X.XXs simulated wall time"
        m = re.search(r"([0-9.]+)s simulated wall time", res.stderr)
        cpu_s = m.group(1) if m else "?"
        with open(path) as f:
            recs = json.load(f)["records"]
        digests = [r["config_digest"] for r in recs]
        records += [(fig, r["variant"], r["config_digest"]) for r in recs]
        new = [d for d in dict.fromkeys(digests) if d not in seen]
        seen.update(new)
        same = digests == driver_batches.get(fig)
        ok = ok and same
        sampled = len(set(new) & set(driver_sample))
        print(f"{fig:<26}{len(digests):>6}{len(new):>6}{sampled:>9}"
              f"{cpu_s:>9}  {'equal' if same else 'DIFFER'}")
    union = set(d for _, _, d in records)
    want = stratified_sample(records)
    sample_ok = set(driver_sample) == want and len(driver_sample) == len(
        want)
    print(f"union: {len(union)} jobs; sample: {len(driver_sample)} jobs "
          f"({'the stated 1-in-{} stratified sample'.format(SAMPLE_STRIDE) if sample_ok else 'NOT the stated sample'}"
          f", {'a subset' if set(driver_sample) <= union else 'NOT a subset'}"
          " of the union)")
    ok = ok and sample_ok and set(driver_sample) <= union
    print("fidelity: " + ("ok" if ok else "FAILED"))
    shutil.rmtree(out, ignore_errors=True)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload",
                   choices=["sweep-cold", "sweep-warm", "characterize"])
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--fidelity", action="store_true")
    a = p.parse_args()
    # Keep the compiler's and everyone else's temporary files in the
    # checkout too.
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    if a.fidelity:
        return fidelity(a.seed)
    if not a.self_test and a.workload is None:
        p.error("--workload is required")
    t0 = time.monotonic()
    build(["perfbench_driver"])
    log(f"driver built in {time.monotonic() - t0:.1f} s")
    if a.self_test:
        return run_driver(["--self-test", "--work", WORK])
    return run_driver(["--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", str(a.seconds), "--trace",
                       str(a.trace), "--commit", commit_id(),
                       "--work", WORK])


if __name__ == "__main__":
    sys.exit(main())
