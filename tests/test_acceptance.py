"""Acceptance gate: ten criteria, one test (and one line) each.

Each test drives the corresponding verification suite and enforces the
stated runtime tolerance.  Failures list the failing check names.
"""

import json
import os
import subprocess
import sys
import time

from localzeta.verify import run_suite


def _run(name, limit):
    start = time.perf_counter()
    rep = run_suite(name)
    elapsed = time.perf_counter() - start
    bad = [c["name"] for c in rep["checks"] if not c["ok"]]
    assert rep["ok"], f"{name}: failing checks {bad}"
    assert elapsed < limit, f"{name}: {elapsed:.1f}s over {limit}s budget"
    return rep, elapsed


def _line(n, label, elapsed, extra=""):
    print(f"ACCEPTANCE {n:2d} {label}: PASS ({elapsed:.2f}s){extra}")


def test_criterion_01_igusa_closed_form():
    rep, dt = _run("igusa", 120)
    _line(1, "igusa determinant vs closed form", dt)


def test_criterion_02_heisenberg_cc():
    rep, dt = _run("cc", 300)
    mismatches = [
        c["name"] for c in rep["checks"] if "variant" in c["name"]
    ]
    _line(2, "heisenberg class counts", dt,
          f" [documented display mismatch: {mismatches}]")


def test_criterion_03_transfer():
    rep, dt = _run("transfer", 600)
    _line(3, "zq/fqt transfer", dt)


def test_criterion_04_point_count_law():
    rep, dt = _run("pointcount", 600)
    _line(4, "point-count law", dt)


def test_criterion_05_counting_identities():
    rep, dt = _run("counting", 600)
    _line(5, "Burnside/double-coset chains", dt)


def test_criterion_06_haar_normalization():
    rep, dt = _run("haar", 300)
    _line(6, "Haar mass and Iwahori box", dt)


def test_criterion_07_steinberg_identities():
    rep, dt = _run("steinberg", 300)
    _line(7, "symbolic torus identities", dt)


def test_criterion_08_presburger_engine():
    rep, dt = _run("presburger", 300)
    corpus = {
        c["name"]: c for c in rep["checks"] if "corpus" in c["name"]
    }
    sizes = {k: v["formulas"] for k, v in corpus.items()}
    _line(8, "presburger engine", dt, f" {sizes}")


def test_criterion_09_euler_product():
    rep, dt = _run("euler", 120)
    _line(9, "composite-level factorization", dt)


def test_criterion_10_determinism():
    start = time.perf_counter()
    rep, _ = _run("determinism", 300)
    env = dict(os.environ)
    env.pop("ZETA_CACHE_DIR", None)
    for suite in ("euler", "igusa"):
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "localzeta.cli",
                 "verify", "--suite", suite],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0], suite
        assert json.loads(outs[0])["ok"] is True
    _line(10, "byte-identical reports", time.perf_counter() - start)
