"""Verification suites: failures inside them come out as failed checks,
and the table suite re-derives rho and inverses by matrix products."""

import contextlib
import io
import json

from localzeta import cli, verify
from localzeta.groups import Family, GroupTable, IdentityError
from localzeta.rings import Ring, make_ring


def _crash():
    raise RuntimeError("table went missing")


def _passing():
    return verify._suite("passing", [verify._check("fine", True)])


def test_suite_exception_is_a_failed_check(monkeypatch):
    monkeypatch.setitem(verify.SUITES, "euler", _crash)
    rep = verify.run_suite("euler")
    assert rep["suite"] == "euler"
    assert rep["ok"] is False
    (check,) = rep["checks"]
    assert check["ok"] is False
    assert check["error"] == "RuntimeError: table went missing"


def test_suite_exception_inside_all(monkeypatch):
    monkeypatch.setattr(verify, "SUITES", {"crash": _crash, "pass": _passing})
    rep = verify.run_suite("all")
    assert rep["ok"] is False
    crashed, passed = rep["suites"]
    assert crashed["ok"] is False
    assert crashed["checks"][0]["name"] == "crash-raised"
    assert passed["ok"] is True


def test_suite_exception_exits_one_with_a_report(monkeypatch):
    monkeypatch.setitem(verify.SUITES, "euler", _crash)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--suite", "euler"])
    assert code == 1
    report = json.loads(out.getvalue())
    assert report["ok"] is False
    assert "table went missing" in report["checks"][0]["error"]
    assert "Traceback" not in err.getvalue()


def test_pairlaw_failure_is_a_failed_check(monkeypatch):
    real = verify.hecke_zeta

    def broken(system, s1, s2, kind, q, f, M):
        if (system, q) == ("A1", 3):
            raise IdentityError("double-coset/pair-count identity fails")
        return real(system, s1, s2, kind, q, f, M)

    monkeypatch.setattr(verify, "hecke_zeta", broken)
    rep = verify.suite_counting()
    assert rep["ok"] is False
    pairlaw = {c["name"]: c for c in rep["checks"]
               if c["name"].startswith("pairlaw-")}
    assert len(pairlaw) == 3
    bad = pairlaw.pop("pairlaw-A1-----q3")
    assert bad["ok"] is False
    assert bad["error"] == "double-coset/pair-count identity fails"
    assert all(c["ok"] for c in pairlaw.values())
    assert all(c["ok"] for c in rep["checks"]
               if not c["name"].startswith("pairlaw-"))


def test_tables_suite_rederives_rho_and_inverses():
    rep = verify.run_suite("tables")
    assert rep["ok"] is True
    names = [c["name"] for c in rep["checks"]]
    assert len(names) == 2 * len(verify.TABLE_CASES)
    assert any("fqt" in n for n in names) and any("zq" in n for n in names)


def test_table_product_checks_catch_broken_tables():
    G = Family("chevalley:A1").table(make_ring("fqt", 2, 1, 2))
    assert verify.table_product_checks(G) == (True, True)
    rho = G.rho.copy()
    rho[1, [3, 4]] = rho[1, [4, 3]]
    inv = G.inv.copy()
    inv[[5, 6]] = inv[[6, 5]]
    for bad, want in [(rho, (False, True)), (inv, (True, False))]:
        broken = GroupTable(
            G.ring, G.mats, bad if bad is inv else G.inv,
            bad if bad is rho else G.rho, G.generators, G.name,
        )
        assert verify.table_product_checks(broken) == want


def test_table_product_checks_do_not_call_mat_mul(monkeypatch):
    # the checks must not re-derive rho and inv with the code that built
    # them; f > 1 over fqt is one of the cases
    assert ("chevalley:A1", "fqt", 2, 2, 2) in verify.TABLE_CASES
    G = Family("chevalley:A1").table(make_ring("fqt", 2, 2, 1))

    def refuse(self, A, B):
        raise AssertionError("Ring.mat_mul called")

    monkeypatch.setattr(Ring, "mat_mul", refuse)
    assert verify.table_product_checks(G) == (True, True)


def test_igusa_suite_checks_the_three_by_three_determinant(monkeypatch):
    rep = verify.suite_igusa()
    assert rep["ok"] is True
    assert "igusa-det3-q2-M3" in [c["name"] for c in rep["checks"]]
    # a wrong closed form fails the check
    monkeypatch.setattr(verify, "igusa_determinant_form",
                        lambda n: verify.igusa_two_by_two_form())
    rep = verify.suite_igusa()
    assert [c["name"] for c in rep["checks"] if not c["ok"]] == [
        "igusa-det3-q2-M3"]
