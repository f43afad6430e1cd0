"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import os
import random
import sys

import pytest

import calibration
import tracing
import workloads

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 100] holds a [10, 30] (holding b [15, 20]) and c [40, 70]
    tr = tracing.Tracer(clock=fake_clock(0, 10, 15, 20, 30, 40, 70, 100))
    with tr.span("outer"):
        with tr.span("a"):
            with tr.span("b"):
                pass
        with tr.span("c"):
            pass
    totals = tracing.span_totals(tr.spans)
    assert totals["outer"] == [100, 50, 1]
    assert totals["a"] == [20, 15, 1]
    assert totals["b"] == [5, 5, 1]
    assert totals["c"] == [30, 30, 1]


def test_inclusive_time_counts_a_recursive_span_once():
    tr = tracing.Tracer(clock=fake_clock(0, 10, 30, 50))
    with tr.span("f"):
        with tr.span("f"):
            pass
    incl, self_ns, calls = tracing.span_totals(tr.spans)["f"]
    assert (incl, self_ns, calls) == (50, 50, 2)


def test_layer_metrics_are_per_batch():
    tr = tracing.Tracer(clock=fake_clock(*range(0, 1000, 10)))
    for _ in range(2):
        with tr.span("batch"):
            with tr.span("cli.job", kind="igusa"):
                with tr.span("igusa.zero_count") as sp:
                    pass
                sp.attrs["points"] = 64
    m = tracing.layer_metrics(tr.spans, batches=2)
    assert m["igusa.zero_count_calls"] == 1
    assert m["igusa.points"] == 64
    assert m["igusa.zero_count_s"] == pytest.approx(10e-9)
    assert m["cli.job_s.igusa"] == pytest.approx(30e-9)
    assert m["unattributed_s"] == pytest.approx(40e-9)
    assert m["cache.hit_ratio"] == 0.0


@pytest.mark.parametrize("seen, generated, outcome", [
    (True, False, "memo"), (False, True, "miss"), (False, False, "disk"),
])
def test_classify_table_for(seen, generated, outcome):
    assert tracing.classify_table_for(seen, generated) == outcome


def test_table_for_calls_classified_through_real_cache(tmp_path,
                                                       monkeypatch):
    from localzeta import cache, rings, zeta

    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    cache.clear_memo()
    ring = rings.make_ring("zq", p=2, f=1, m=2)
    tr = tracing.Tracer()
    with tracing.patched(tr, tracing.layer_targets(tr)):
        zeta.table_for("heisenberg", ring)  # enumerates and stores
        zeta.table_for("heisenberg", ring)  # process memo
        cache.clear_memo()
        cache.table_for("heisenberg", ring)  # loads from disk
    cache.clear_memo()
    outcomes = [o for o, _ in tracing.table_for_outcomes(tr.spans)]
    assert outcomes == ["miss", "memo", "disk"]
    m = tracing.layer_metrics(tr.spans, batches=1)
    assert (m["cache.misses"], m["cache.memo_hits"], m["cache.disk_hits"]) \
        == (1, 1, 1)
    assert m["cache.hit_ratio"] == pytest.approx(2 / 3)


def test_every_traced_function_has_its_metrics():
    names = [name for name, *_ in tracing.layer_targets(tracing.Tracer())]
    assert names == list(tracing.SPAN_NAMES)


def test_patched_restores_every_alias():
    import localzeta
    from localzeta import cache, zeta

    original = cache.table_for
    tr = tracing.Tracer()
    with tracing.patched(tr, tracing.layer_targets(tr)):
        assert zeta.table_for is cache.table_for is localzeta.table_for
        assert cache.table_for is not original
    assert zeta.table_for is cache.table_for is localzeta.table_for \
        is original


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    random.seed(12345)
    before = random.random()
    random.seed(12345)
    first = workloads.jobs_for(workload, 7)
    assert random.random() == before  # no global RNG state is used
    assert workloads.jobs_for(workload, 7) == first


@pytest.mark.parametrize("workload", ["summation", "igusa-levels"])
def test_seeded_workloads_differ_across_seeds(workload):
    assert workloads.jobs_for(workload, 1) != workloads.jobs_for(workload, 2)


def test_fixed_jobs_have_reference_hashes():
    for workload in workloads.WORKLOADS:
        for job in workloads.jobs_for(workload, 1):
            assert (job.sha256 is not None) + (job.closed_form is not None) \
                + bool(job.spec) == 1
            if job.sha256 is not None:
                assert len(job.sha256) == 64


def test_scale_is_reference_over_mean_loop_time():
    ref = calibration.REFERENCE_S
    assert calibration.scale(ref) == pytest.approx(1.0)
    # a machine half as fast: loop times average twice the reference
    assert calibration.scale(ref, 3 * ref) == pytest.approx(0.5)


def test_sampler_samples_during_the_block_and_leaves_out_its_own_time():
    import time

    with calibration.Sampler(period=0.01) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        inside = len(sampler.samples)
        spent = sampler.wall
    assert inside >= 3  # the entry sample and periodic ones
    assert len(sampler.samples) == inside + 1  # and one on exit
    # the block's time counted only the periodic samples, not entry or exit
    assert 0 < spent < 0.2
    assert sampler.wall > spent
    assert sampler.scale() > 0
