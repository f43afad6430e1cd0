"""Run one workload of the localzeta benchmark and print its metrics.

    python3 bench/run.py --workload classes-zq --seed 1 --seconds 25 --trace 0

The run imports ``localzeta`` from ``src/`` of the checkout, builds the
workload's batch of jobs from the seed, and runs the whole batch again and
again, one job after another in this process, until ``--seconds`` have
passed (it stops at the batch boundary nearest to that time).  Each job
runs through ``localzeta.cli.main`` with stdout captured (summation jobs
call the public functions the CLI calls) and is checked against its
reference.  Before each job the table memo and the ring cache
are cleared, so every job builds its own tables as a fresh ``zeta``
process would.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced batches alternate, and it reports the
per-layer metrics.  End-to-end times are calibrated against a fixed
reference loop sampled while the jobs run (see calibration.py).  See
bench/README.md.
"""

import time

import calibration

_REF0 = calibration.reference()  # the machine's speed just before set-up
_START = time.perf_counter()  # set-up is measured from here

import os  # noqa: E402

# pin BLAS threads before numpy is imported, and record the value
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 9
EXPAND_QS = (2, 3, 5)


class State:
    """What set-up produces: the freshly imported package and the inputs."""

    def __init__(self, lz, jobs, expected, cache_dir):
        self.lz = lz
        self.jobs = jobs
        self.expected = expected  # job index -> expected coefficients
        self.cache_dir = cache_dir


def import_localzeta():
    """Import localzeta afresh from the checkout's src/ directory."""
    for name in [n for n in sys.modules
                 if n == "localzeta" or n.startswith("localzeta.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    lz = importlib.import_module("localzeta")
    if not os.path.abspath(lz.__file__).startswith(SRC + os.sep):
        raise ImportError(f"localzeta imported from {lz.__file__}, not {SRC}")
    for sub in ("cache", "cli", "igusa", "presburger", "rings", "zeta"):
        importlib.import_module(f"localzeta.{sub}")
    return lz


def set_up(workload, seed):
    lz = import_localzeta()
    jobs = workloads.jobs_for(workload, seed)
    expected = {}
    for i, job in enumerate(jobs):
        if job.closed_form:
            ring = lz.rings.parse_ring(job.argv[job.argv.index("--ring") + 1])
            form = getattr(lz.zeta, f"igusa_{job.closed_form}_form")()
            expected[i] = lz.zeta.expand(form, ring.q, ring.m).coeffs
    cache_dir = os.path.join(OUT, f"cache-{os.getpid()}")
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.makedirs(cache_dir)
    return State(lz, jobs, expected, cache_dir)


# ----------------------------------------------------------------------
# jobs


def summation_report(lz, spec):
    """sum_rational, then expand at every q; returns (report, oracle ok)."""
    pb, zt = lz.presburger, lz.zeta
    M = spec["levels"]
    ss = pb.SummationSpec(spec["where"], spec["sum"])
    res = pb.sum_rational(ss)
    expansions = {q: zt.expand(res.rational, q, M).coeffs for q in EXPAND_QS}
    oracle = pb.brute_force_series(ss, spec["oracle_q"], M, spec["box"])
    report = {
        "formula": spec["where"], "weight": spec["sum"],
        "rational": repr(res.rational), "sigma0": res.sigma0,
        "cells": res.cells, "M": M,
        "expansions": {str(q): c for q, c in expansions.items()},
    }
    return report, expansions[spec["oracle_q"]] == oracle.coeffs


def check_cli(state, index, job, text):
    if job.sha256 is not None:
        return hashlib.sha256(text.encode()).hexdigest() == job.sha256
    report = json.loads(text)
    coeffs = [Fraction(c) for c in report["coefficients"]]
    return (coeffs == state.expected[index]
            and report["crosschecks"]["partition_exact"] is True
            and report["crosschecks"]["partition_total"] == "1")


def execute(state, index, job):
    """Run one job and check it; returns (stdout sha256, ok).

    A job that raises, exits non-zero or fails its check is reported as
    failed and never stops the run.
    """
    lz = state.lz
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.kind == "summation":
                report, ok = summation_report(lz, job.spec)
                out.write(lz.cli.to_json(report))
            else:
                code = lz.cli.main(list(job.argv))
                ok = code == 0 and check_cli(state, index, job,
                                             out.getvalue())
    except (Exception, SystemExit):
        sys.stderr.write(f"job {job} raised:\n{traceback.format_exc()}")
        ok = False
    if not ok:
        sys.stderr.write(f"job failed: {job}\n{err.getvalue()}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), ok


def fresh_process_state(lz):
    """Forget the tables and rings an earlier job built."""
    lz.cache.clear_memo()
    ring_cache = getattr(lz.rings, "_ring_cached", None)
    if hasattr(ring_cache, "cache_clear"):
        ring_cache.cache_clear()


def _untraced(name, **attrs):
    return contextlib.nullcontext()


def run_batch(state, workload, tracer=None, sampler=None):
    """Run every job once; returns (wall s, CPU s, [(sha256, ok)]).

    With a ``calibration.Sampler``, the reference loop is sampled while the
    jobs run, and the times leave out the samples' own time.
    """
    if workload == "hecke-fqt":
        shutil.rmtree(state.cache_dir)
        os.makedirs(state.cache_dir)
    span = tracer.span if tracer else _untraced
    results = []
    with sampler or contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with span("batch"):
            for index, job in enumerate(state.jobs):
                fresh_process_state(state.lz)
                with span("cli.job", kind=job.kind):
                    results.append(execute(state, index, job))
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if sampler:
            wall, cpu = wall - sampler.wall, cpu - sampler.cpu
    return wall, cpu, results


# ----------------------------------------------------------------------
# reporting


def machine():
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except Exception:  # the config layout differs across numpy versions
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.startswith("cli.job_s."):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("ZETA_CACHE_DIR", None)
    os.makedirs(OUT, exist_ok=True)
    try:
        state = set_up(args.workload, args.seed)
    except ImportError as exc:
        sys.exit(f"cannot run the benchmark: {exc}")
    setups = [time.perf_counter() - _START]
    refs = [_REF0, calibration.reference()]
    for _ in range(SETUP_REPEATS - 1):
        t0 = time.perf_counter()
        state = set_up(args.workload, args.seed)
        setups.append(time.perf_counter() - t0)
        refs.append(calibration.reference())
    calibrated_setups = [s * calibration.scale(before, after)
                         for s, before, after in zip(setups, refs, refs[1:])]
    if args.workload == "hecke-fqt":
        os.environ["ZETA_CACHE_DIR"] = state.cache_dir

    walls, cpus, scales, traced_walls, outcomes = [], [], [], [], []
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    try:
        while True:
            sampler = calibration.Sampler()
            wall, cpu, plain = run_batch(state, args.workload,
                                         sampler=sampler)
            walls.append(wall)
            cpus.append(cpu)
            scales.append(sampler.scale())
            outcomes += [ok for _, ok in plain]
            if tracer:
                with tracing.patched(tracer,
                                     tracing.layer_targets(tracer)):
                    wall, _, traced = run_batch(state, args.workload,
                                                tracer)
                traced_walls.append(wall)
                # a traced job must print exactly what the untraced one did
                outcomes += [ok and sha == plain_sha for (sha, ok), (
                    plain_sha, _) in zip(traced, plain)]
            # stop at the batch boundary nearest to the end of --seconds
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(walls) / 2 >= args.seconds:
                break
    finally:
        shutil.rmtree(state.cache_dir, ignore_errors=True)

    attempted, failed = len(outcomes), outcomes.count(False)
    calibrated_walls = [w * k for w, k in zip(walls, scales)]
    calibrated_cpus = [c * k for c, k in zip(cpus, scales)]
    info = machine()
    print(f"# workload {args.workload} seed {args.seed}: "
          f"{len(walls)} untraced and {len(traced_walls)} traced batches "
          f"of {len(state.jobs)} jobs")
    print("# machine " + json.dumps(info, sort_keys=True))
    print("# batch wall_s " + " ".join(f"{w:.3f}" for w in walls))
    print("# batch calibrated_wall_s "
          + " ".join(f"{w:.3f}" for w in calibrated_walls))
    if traced_walls:
        print("# traced batch wall_s "
              + " ".join(f"{w:.3f}" for w in traced_walls))
    print("# setup wall_s " + " ".join(f"{s:.3f}" for s in setups))
    print("# setup calibrated_s "
          + " ".join(f"{s:.3f}" for s in calibrated_setups))
    print(f"# failed_frac {failed / attempted:.4f} "
          f"({failed} failed of {attempted} jobs attempted)")
    if tracer:
        layers = tracing.layer_metrics(tracer.spans, len(traced_walls))
        layers["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1)
        for name, value in layers.items():
            print(f"#   {name:40s} {value:16.6f} {unit_of(name)}")
        tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layers.items()}
    else:
        metrics = {
            "calibrated_wall_s": {
                "value": statistics.median(calibrated_walls),
                "unit": "s"},
            "calibrated_cpu_s": {
                "value": statistics.median(calibrated_cpus),
                "unit": "s"},
            "setup_s": {"value": statistics.median(calibrated_setups),
                        "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
