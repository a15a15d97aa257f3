"""Benchmark runner for invpoly.

    python3 perfbench/run.py --workload conjecture --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports invpoly from
``src/`` and nothing else, and exits nonzero without a result when that
tree is missing.  One process, one thread, one workload; the loop is
closed (the next call starts when the previous one returns).

A run repeats passes of the workload until ``--seconds`` have gone by
(at least one pass) and checks every pass's outputs.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with the run's metadata and every sample.  The exit code is 0 only
when every output matched.

Other modes:
  --smoke             every workload at toy size, for the benchmark's
                      tests; prints no timings
  --setup-only        import invpoly and generate the inputs, then exit;
                      the runner times this in child processes for setup_s
  --record-reference  rewrite reference.json from the current program
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 1
# Not used while writing or tuning the benchmark; re-check claims on it.
HELDOUT_SEED = 5417
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import invpoly from this checkout's src/, refusing any other copy."""
    package = SRC / "invpoly"
    if not (package / "__init__.py").is_file():
        sys.exit(f"run.py: no invpoly source tree at {package}")
    sys.path.insert(0, str(SRC))
    import invpoly

    if Path(invpoly.__file__).resolve().parent != package.resolve():
        sys.exit(f"run.py: imported invpoly from {invpoly.__file__}, not {package}")
    return invpoly


def measure_setup(opts) -> list[float]:
    """Wall time of fresh processes that start, import invpoly and build the
    workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", opts.workload, "--seed", str(opts.seed), "--setup-only"]
    if opts.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms; a plain wait()
        # returns when the child exits, and the timer only guards a hang.
        guard = threading.Timer(120, child.kill)
        guard.start()
        try:
            code = child.wait()
        finally:
            guard.cancel()
        samples.append(time.perf_counter() - start)
        if code != 0:
            sys.exit(f"run.py: setup child exited with {code}")
    return samples


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def timed_pass(plan):
    """Run one pass; return (raw outputs, wall seconds, CPU seconds)."""
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    raw = workloads.run_pass(plan)
    wall = time.perf_counter() - t0
    return raw, wall, cpu_seconds() - cpu0


def metadata(invpoly, opts) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "invpoly").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "workload": opts.workload,
        "size": "smoke" if opts.smoke else "full",
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "kernel_backend": invpoly.KERNEL_BACKEND,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def measure(opts) -> int:
    invpoly = load_program()
    size = "smoke" if opts.smoke else "full"
    ref = json.loads(opts.reference.read_text())[size][opts.workload]
    setup = [] if opts.smoke else measure_setup(opts)
    plan = workloads.make_plan(opts.workload, opts.seed, opts.smoke)
    tracer = tracing.Tracer() if opts.trace else None

    walls, cpus, rates, traced_walls = [], [], [], []
    exact_runs, timed_runs = [], []
    attempted = failed = 0
    failed_units: set[str] = set()
    digests = set()
    start = time.perf_counter()
    while True:
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.reset()
                with tracer.installed():
                    raw, wall, cpu = timed_pass(plan)
            else:
                raw, wall, cpu = timed_pass(plan)
            verdict = workloads.judge(plan, workloads.canonical(plan, raw), ref)
            attempted += verdict.attempted
            failed += verdict.failed
            failed_units.update(verdict.failed_units)
            digests.add(verdict.digest)
            if traced:
                traced_walls.append(wall)
                exact, timed = tracer.snapshot()
                exact_runs.append(exact)
                timed_runs.append(timed)
            else:
                walls.append(wall)
                cpus.append(cpu)
                rates.append(verdict.attempted / wall)
        if opts.smoke or time.perf_counter() - start >= opts.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    want_digest = ref.get("seeds", {}).get(str(opts.seed), {}).get("digest")
    correct = failed == 0 and (want_digest is None or digests == {want_digest})
    samples = {"wall_s": walls, "items_per_s": rates, "cpu_s": cpus,
               "setup_s": setup, "peak_rss_mb": [peak_rss_mb]}
    if opts.smoke:
        samples, units = {}, {}  # toy sizes are never reported as numbers
    elif not opts.trace:
        values = {name: statistics.median(v) for name, v in samples.items()}
        units = END_TO_END_UNITS
    else:
        if any(run != exact_runs[0] for run in exact_runs):
            sys.exit("run.py: traced counts differ between passes")
        values = dict(exact_runs[0])
        for name in timed_runs[0]:
            values[name] = statistics.median(t[name] for t in timed_runs)
        values["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(walls))
        units = tracing.metric_units()
        samples["traced_wall_s"] = traced_walls
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    report = metadata(invpoly, opts)
    report.update({
        "samples": samples,
        "sample_counts": {k: len(v) for k, v in samples.items()},
        "failed_ratio": failed / attempted if attempted else None,
        "failed_units": sorted(failed_units),
        "digest": sorted(digests),
        "reference_digest": want_digest,
    })
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def record_reference(opts) -> int:
    """Record reference hashes from the current program at both seeds."""
    load_program()
    out = {"default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED}
    for size in ("full", "smoke"):
        out[size] = {}
        for name in workloads.WORKLOADS:
            section = {"seed_free": {}, "items": {}, "seeds": {}}
            for seed in (DEFAULT_SEED, HELDOUT_SEED):
                plan = workloads.make_plan(name, seed, size == "smoke")
                results = workloads.canonical(plan, workloads.run_pass(plan))
                judged = plan.check(results)
                bad = [k for k, ok in judged.items() if not ok]
                bad += [k for k, v in results.items() if workloads.is_error(v)]
                if bad:
                    sys.exit(f"run.py: {size}/{name} seed {seed}: "
                             f"independent check failed for {bad}")
                hashes = {u.key: workloads.unit_hash(results[u.key])
                          for u in plan.units}
                for unit in plan.units:
                    if not unit.seed_free:
                        continue
                    if section["seed_free"].setdefault(unit.key, hashes[unit.key]) \
                            != hashes[unit.key]:
                        sys.exit(f"run.py: {unit.key} changed with the seed")
                section["items"].update(workloads.count_items(plan))
                section["seeds"][str(seed)] = {
                    "digest": workloads.digest(hashes),
                    "units": {u.key: hashes[u.key] for u in plan.units
                              if not u.seed_free},
                }
                print(f"{size}/{name} seed {seed}: {workloads.digest(hashes)}",
                      file=sys.stderr)
            out[size][name] = section
    with open(opts.reference, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    opts = parser.parse_args(argv)
    if opts.record_reference:
        return record_reference(opts)
    if opts.workload is None:
        parser.error("--workload is required")
    if opts.setup_only:
        load_program()
        workloads.make_plan(opts.workload, opts.seed, opts.smoke)
        return 0
    return measure(opts)


if __name__ == "__main__":
    sys.exit(main())
