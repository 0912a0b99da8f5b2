"""End-to-end benchmark of the SliceLine reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload kdd98-cont --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
gives the per-layer figures from the program's ``repro.obs/v1`` span tree,
counters and the serving layer's job records.  Workloads: ``kdd98-cont``,
``covtype-01`` (batch, :mod:`batch`) and ``serve-mix`` (:mod:`serve_mix`).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report and a ``provenance:`` JSON line.  The package
is imported from ``./src``; the run writes only under ``.perfbench_work/``
and removes what it wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

WORKLOADS = ("kdd98-cont", "covtype-01", "serve-mix")

#: BLAS/OpenMP pool sizes, pinned before numpy loads: every workload's
#: enumeration runs serially (the traced ``nproc`` arm uses the program's
#: own thread pool, not BLAS threads).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

#: child processes timed for ``setup_s`` (the reported value is their median)
SETUP_PROBES = 5

WORK_ROOT = ".perfbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="build the inputs (and service) under DIR, "
                             "print 'ready' and exit; used to time setup_s")
    return parser.parse_args(argv)


def workload_module(workload: str):
    if workload == "serve-mix":
        import serve_mix

        return serve_mix
    import batch

    return batch


def time_setup(args, work_dir: str) -> list[float]:
    """Process start to inputs ready, in fresh interpreters."""
    samples = []
    for probe in range(SETUP_PROBES):
        probe_dir = os.path.join(work_dir, f"setup-{probe}")
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--setup-probe", probe_dir]
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {child.returncode})")
    return samples


def git_sha() -> str:
    if not os.path.isdir(".git"):
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unavailable ({exc.__class__.__name__})"
    return done.stdout.strip()


def provenance(args, nproc: int, outcome) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_name,
        "thread_pins": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": git_sha(),
        "attempted": outcome.attempted, "failed": outcome.failed,
    }


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit that BENCHMARK.json declares for the mode."""
    with open("BENCHMARK.json") as handle:
        doc = json.load(handle)
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no src/repro under the working directory; run it "
              "from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    module = workload_module(args.workload)
    if args.setup_probe:
        try:
            module.build(args.workload, args.seed)
            if module.__name__ == "serve_mix":
                module.open_service(args.setup_probe).shutdown()
            print("ready", flush=True)
        finally:
            shutil.rmtree(args.setup_probe, ignore_errors=True)
        return 0

    from common import nproc as count_cpus

    nproc = count_cpus()
    work_dir = os.path.join(os.path.abspath(WORK_ROOT),
                            f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        setup = time_setup(args, work_dir) if args.trace == 0 else []
        inputs = module.build(args.workload, args.seed)
        if args.trace:
            outcome = module.trace(inputs, args.seconds, work_dir, nproc)
        else:
            outcome = module.measure(inputs, args.seconds, work_dir)
            outcome.metrics = {
                "setup_s": {"value": sorted(setup)[len(setup) // 2], "unit": "s"},
                **outcome.metrics,
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    import layers

    printed = {name: entry["unit"] for name, entry in outcome.metrics.items()}
    if printed != declared_metrics(args.trace):
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 3
    for line in outcome.report:
        print(line)
    title = "per-layer" if args.trace else "end-to-end"
    print(layers.format_table(f"{args.workload} {title} (seed {args.seed})",
                              outcome.metrics))
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print("provenance: " + json.dumps(provenance(args, nproc, outcome)))
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
