import random
from fractions import Fraction

import pytest

from localzeta import cache, groups, zeta
from localzeta.groups import TooLarge
from localzeta.laurent import Laurent
from localzeta.rings import parse_ring
from localzeta.zeta import (
    BivariateRational,
    ZetaError,
    ZetaSeries,
    cc_zeta,
    euler_multiplicativity,
    expand,
    hecke_zeta,
    heisenberg_cc_form,
    heisenberg_cc_variant_form,
    igusa_coordinate_form,
    igusa_two_by_two_form,
    prop62_consistency,
    prop73_consistency,
    sub_family,
    transfer_report,
)

SEED = 20260814


def X(k=1):
    return Laurent.var(0, 2, k)


def Y(k=1):
    return Laurent.var(1, 2, k)


# ----------------------------------------------------------------------
# rational normal form


def test_rational_normal_form():
    # rational content moves into the integer constant
    r1 = BivariateRational(X() * Fraction(1, 2), {(1, 1): 1})
    r2 = BivariateRational(X(), {(1, 1): 1}, 2)
    assert r1 == r2
    assert r1.const == 2
    # sign lives in the numerator
    r3 = BivariateRational(-X(), {(1, 1): 1}, -2)
    assert r3 == r2
    # common integer content cancels
    r4 = BivariateRational(X() * 6, {(1, 1): 1}, 4)
    assert r4 == BivariateRational(X() * 3, {(1, 1): 1}, 2)


def test_rational_normal_form_is_integral():
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    r = BivariateRational(X() * Fraction(2, 3) + Y() * sixth, {(1, 1): 1},
                          Fraction(-5, 4))
    assert r.numerator == X() * -8 - Y() * 2
    assert r.const == 15
    assert type(r.const) is int
    assert all(type(c) is int for c in r.numerator.terms.values())
    # sums cross-multiply the constants and reduce to the same normal form
    a = BivariateRational(Laurent.const(third, 2), {(1, 1): 1})
    b = BivariateRational(Laurent.const(1, 2), {(1, 1): 1}, 6)
    assert a + b == BivariateRational(Laurent.const(half, 2), {(1, 1): 1})
    assert repr(a + b) == "(1) / 2 (1 - X^1 Y^1)^1"
    # zero has the constant 1, whatever constant it was built with
    z = BivariateRational(Laurent.const(0, 2), (), Fraction(1, 2))
    assert z.is_zero() and z.const == 1


def test_rational_rejects_degenerate_factors():
    with pytest.raises(ZetaError):
        BivariateRational(X(), {(0, 0): 1})
    with pytest.raises(ZetaError):
        BivariateRational(X(), {(1, 1): -1})
    with pytest.raises(ZetaError):
        BivariateRational(X(), (), 0)


def test_rational_arithmetic():
    one = BivariateRational.one()
    f = heisenberg_cc_form()
    assert f * one == f
    assert (f - f).is_zero()
    # 1/(1-XY) + 1/(1-X^2Y) has the union denominator
    a = BivariateRational(Laurent.const(1, 2), {(1, 1): 1})
    b = BivariateRational(Laurent.const(1, 2), {(2, 1): 1})
    s = a + b
    assert s.factors == (((1, 1), 1), ((2, 1), 1))
    num = (Laurent.const(1, 2) - X(2) * Y()) + (Laurent.const(1, 2) - X() * Y())
    assert s.numerator == num


def test_rational_evaluate():
    # at Y = 1 the 2x2 determinant form telescopes to 1 exactly
    f = igusa_two_by_two_form()
    assert f.evaluate(2, 1) == 1
    assert f.evaluate(3, 1) == 1
    with pytest.raises(ZetaError):
        f.evaluate(2, 2)  # 1 - X^-1 Y vanishes at (2, 2)


# ----------------------------------------------------------------------
# expansion


def test_expand_heisenberg_closed_form():
    # hand expansion of (1 - Y)/((1 - qY)(1 - q^2 Y)):
    # c_0 = 1, c_1 = q^2 + q - 1, c_2 = q^4 + q^3 - q, c_3 at q=2 is 92
    s = expand(heisenberg_cc_form(), 2, 4)
    assert s.coeffs == [1, 5, 22, 92]
    assert s.provenance == ["expanded-from-rational"] * 4
    s = expand(heisenberg_cc_form(), 3, 3)
    assert s.coeffs == [1, 11, 105]
    for q in (2, 3, 5):
        s = expand(heisenberg_cc_form(), q, 3)
        assert s.coeffs[1] == q * q + q - 1
        assert s.coeffs[2] == q**4 + q**3 - q


def test_expand_is_multiplicative_and_additive():
    r1 = heisenberg_cc_form()
    r2 = igusa_two_by_two_form()
    for q in (2, 3):
        lhs = expand(r1 * r2, q, 5)
        rhs = expand(r1, q, 5) * expand(r2, q, 5)
        assert lhs == rhs
        both = expand(r1 + r2, q, 5)
        a, b = expand(r1, q, 5), expand(r2, q, 5)
        assert both.coeffs == [x + y for x, y in zip(a.coeffs, b.coeffs)]


def test_expand_rejects_bad_input():
    with pytest.raises(ZetaError):
        expand(heisenberg_cc_form(), 1, 3)
    # a bare negative power of Y is not a power series
    with pytest.raises(ZetaError):
        expand(BivariateRational(Y(-1)), 2, 3)
    # but negative powers that cancel against a factor are fine:
    # Y^-1 * (XY) / (1 - XY) = X/(1 - XY) shifted, still a series
    r = BivariateRational(Y(-1) * X() * Y(), {(1, 1): 1})
    s = expand(r, 2, 3)
    assert s.coeffs == [2, 4, 8]


def _series_oracle(rational, q, M):
    """expand in Fractions: the numerator's series (its powers Y^0..Y^{M-1}
    at X = q) times each factor's truncated geometric series, multiplied
    through ZetaSeries.__mul__, over the constant."""
    num = [Fraction(0)] * M
    for (ex, ey), c in rational.numerator.terms.items():
        if ey < M:
            num[ey] += c * Fraction(q) ** ex
    series = ZetaSeries(q, num, "expanded-from-rational")
    const = Fraction(rational.const)
    for (a, b), mult in rational.factors:
        if b == 0:
            const *= (1 - Fraction(q) ** a) ** mult
            continue
        geometric = ZetaSeries(
            q, [Fraction(q) ** (a * (e // b)) if e % b == 0 else 0
                for e in range(M)], "expanded-from-rational")
        for _ in range(mult):
            series = series * geometric
    return [c / const for c in series.coeffs]


def test_expand_matches_geometric_series_oracle():
    rng = random.Random(SEED)
    for _ in range(300):
        M = rng.randint(1, 6)
        terms = {(rng.randint(-6, 6), rng.randint(0, M + 2)):
                 rng.randint(-9, 9) for _ in range(rng.randint(1, 4))}
        factors = {}
        for _ in range(rng.randint(0, 3)):
            key = (rng.randint(-8, 4), rng.randint(0, 4))
            if key != (0, 0):
                factors[key] = rng.randint(1, 3)
        r = BivariateRational(Laurent(2, terms), factors, rng.randint(1, 6))
        for q in (2, 3, 5, 7):
            assert expand(r, q, M).coeffs == _series_oracle(r, q, M), (r, q)


def test_expand_keeps_negative_powers_that_vanish_at_q():
    # (X - 2) Y^-1 and (X^2 - 4) Y^-2 vanish at q = 2 only, and
    # (2 X^-1 - 1) Y^-1 with it; the rest is a power series
    vanish = (X() - 2) * Y(-1) + (X(2) - 4) * Y(-2) + (X(-1) * 2 - 1) * Y(-1)
    tail = Laurent.const(1, 2) + X(-3) * Y(2)
    for factors in ({}, {(1, 1): 2}, {(-2, 1): 1, (-40, 5): 1, (3, 0): 1}):
        r = BivariateRational(vanish + tail, factors, 3)
        want = _series_oracle(BivariateRational(tail, factors, 3), 2, 5)
        assert expand(r, 2, 5).coeffs == want
        for q in (3, 5, 7):
            with pytest.raises(ZetaError, match="negative Y powers: \\[-2"):
                expand(r, q, 5)


def test_expand_errors():
    # a pole of a b = 0 factor: 1 - X^a vanishes at q >= 2 only for a = 0,
    # which the constructor refuses, so the factor is set directly
    with pytest.raises(ZetaError, match="is zero"):
        BivariateRational(Y(), {(0, 0): 1})
    r = BivariateRational(Y(), {(1, 1): 1})
    r.factors = ((0, 0), 1), ((1, 1), 1)
    with pytest.raises(ZetaError, match="pole"):
        expand(r, 2, 4)
    with pytest.raises(ZetaError, match="negative Y power is not"):
        expand(BivariateRational(Y(), {(1, -1): 1, (1, 1): 1}), 3, 4)
    with pytest.raises(ZetaError, match="negative Y powers: \\[-1\\]"):
        expand(BivariateRational(X(-1) * Y(-1) + Y(), {(-2, 1): 2}), 5, 4)
    # with no factor to expand, no power is truncated before the check,
    # not even at an M that keeps no coefficient
    with pytest.raises(ZetaError, match="negative Y powers: \\[-3\\]"):
        expand(BivariateRational(Y(-3), {(2, 0): 1}), 2, -5)


def test_series_equality_and_product():
    a = ZetaSeries(2, [1, 5, 22], "enumerated")
    b = ZetaSeries(2, [1, 5, 22], "expanded-from-rational")
    assert a == b  # provenance does not affect equality
    assert a != ZetaSeries(3, [1, 5, 22], "enumerated")
    c = a * a
    assert c.coeffs == [1, 10, 69]
    with pytest.raises(ZetaError):
        a * ZetaSeries(3, [1], "enumerated")


# ----------------------------------------------------------------------
# enumerated class-counting series


def test_cc_zeta_heisenberg_small():
    s = cc_zeta("heisenberg", "zq", 2, 1, 3)
    assert [int(c) for c in s.coeffs] == [1, 5, 22]
    assert s.provenance == ["enumerated"] * 3
    s = cc_zeta("heisenberg", "fqt", 3, 1, 3)
    assert [int(c) for c in s.coeffs] == [1, 11, 105]


def test_cc_zeta_matches_closed_form_prefix():
    for kind in ("zq", "fqt"):
        enum = cc_zeta("heisenberg", kind, 2, 1, 3)
        assert enum == expand(heisenberg_cc_form(), 2, 3)


def test_cc_variant_form_disagrees_at_linear_term():
    # the three-factor variant has Y-coefficient 1 + 2 q^3, not q^2 + q - 1
    for q in (2, 3):
        got = expand(heisenberg_cc_variant_form(), q, 2)
        assert got.coeffs[0] == 1
        assert got.coeffs[1] == 1 + 2 * q**3
        assert got.coeffs[1] != q * q + q - 1


def test_cc_zeta_m1_and_bad_m():
    s = cc_zeta("chevalley:A1", "zq", 3, 1, 1)
    assert s.coeffs == [1]
    with pytest.raises(ZetaError):
        cc_zeta("heisenberg", "zq", 2, 1, 0)


# ----------------------------------------------------------------------
# double-coset series


def test_sub_family_literals():
    assert sub_family("A2", "all").text == "chevalley:A2"
    assert sub_family("A2", "-").text == "parabolic:A2:-"
    assert sub_family("A2", "").text == "parabolic:A2:-"
    assert sub_family("A2", "a1").text == "parabolic:A2:a1"
    assert sub_family("A2", "roots:a1,a2,a1+a2").text == \
        "rootset:A2:a1,a2,a1+a2"


def test_hecke_zeta_borel_a1():
    s = hecke_zeta("A1", "-", "-", "zq", 2, 1, 3)
    assert [int(c) for c in s.coeffs] == [1, 2, 3]
    s = hecke_zeta("A1", "-", "-", "fqt", 3, 1, 2)
    assert [int(c) for c in s.coeffs] == [1, 2]


def test_hecke_zeta_borel_a2():
    # level 1 is classical Bruhat: |W| = 6 double cosets
    s = hecke_zeta("A2", "-", "-", "zq", 2, 1, 2)
    assert [int(c) for c in s.coeffs] == [1, 6]


def test_hecke_zeta_maximal_parabolics_a2():
    s = hecke_zeta("A2", "a1", "a2", "zq", 2, 1, 2)
    assert [int(c) for c in s.coeffs] == [1, 2]


def test_hecke_zeta_rootset_borel_agree():
    # the full positive system plus torus is the Borel subgroup
    a = hecke_zeta("A2", "roots:a1,a2,a1+a2", "-", "zq", 2, 1, 2)
    b = hecke_zeta("A2", "-", "-", "zq", 2, 1, 2)
    assert a == b


def test_hecke_zeta_whole_group():
    s = hecke_zeta("A1", "all", "all", "zq", 2, 1, 2)
    assert [int(c) for c in s.coeffs] == [1, 1]


# ----------------------------------------------------------------------
# consistency chains


def test_prop62_heisenberg_z4():
    r = prop62_consistency("heisenberg", "zq", 2, 1, 3)
    assert r["ok"]
    lv = {l["m"]: l for l in r["levels"]}
    assert lv[1]["classes"] == 5
    assert lv[1]["commuting_pairs"] == 40
    assert lv[2]["classes"] == 22
    # top-level depth counts scale to every lower level exactly
    assert lv[1]["depth_pairs"] * lv[1]["order"] ** 2 == 40 * 64**2


def test_prop62_heisenberg_fqt():
    r = prop62_consistency("heisenberg", "fqt", 2, 1, 3)
    assert r["ok"]
    assert [l["classes"] for l in r["levels"]] == [1, 5, 22]


def test_prop62_chevalley_a1():
    r = prop62_consistency("chevalley:A1", "zq", 3, 1, 2)
    assert r["ok"]
    lv = r["levels"][1]
    assert lv["order"] == 24
    assert lv["burnside_ok"] and lv["measure_ok"]


def test_prop73_borel_a1_both_kinds():
    for kind in ("zq", "fqt"):
        r = prop73_consistency("A1", "-", "-", kind, 2, 1, 3)
        assert r["ok"], r
        assert [l["b_m"] for l in r["levels"]] == [2, 3]
        assert r["alpha"] == Fraction(9, 4)
        assert r["deviations"] == []
        for l in r["levels"]:
            assert l["e_m"] == l["b_m"] * l["p1_order"] * l["p2_order"]


def test_prop73_maximal_parabolics_a2():
    r = prop73_consistency("A2", "a1", "a2", "zq", 2, 1, 2)
    assert r["ok"]
    l1 = r["levels"][0]
    assert l1["b_m"] == 2
    assert l1["p1_order"] == 24 and l1["p2_order"] == 24
    # alpha = k_G^2 / (k_P1 k_P2) at q = 2: (21/32)^2 / (24/64)^2
    assert r["alpha"] == Fraction(21, 32) ** 2 / Fraction(24, 64) ** 2


def test_pair_scans_refuse_past_their_cap(monkeypatch):
    # with the cap at 10, the 8 elements of Heis(Z/2) are scanned and the
    # 64 of Heis(Z/4) (and the 48 of A1(Z/4)) are refused
    monkeypatch.setattr(groups, "PAIR_SCAN_CAP", 10)
    monkeypatch.setattr(zeta, "PAIR_SCAN_CAP", 10)
    small = cache.table_for("heisenberg", parse_ring("zq:p=2,f=1,m=1"))
    assert small.commuting_pairs() == 5 * 8
    assert small.pair_depth_counts()[1] == 5 * 8
    big = cache.table_for("heisenberg", parse_ring("zq:p=2,f=1,m=2"))
    with pytest.raises(TooLarge, match="exceeds cap 10"):
        big.commuting_pairs()
    with pytest.raises(TooLarge, match="exceeds cap 10"):
        big.pair_depth_counts()
    with pytest.raises(TooLarge, match="exceeds cap 10"):
        prop62_consistency("heisenberg", "zq", 2, 1, 3)
    with pytest.raises(TooLarge, match="exceeds cap 10"):
        prop73_consistency("A1", "-", "-", "zq", 2, 1, 3)


def test_pair_scans_refuse_by_the_order_law_first(generated, monkeypatch):
    # the top level's order law refuses the scan before any table: B2 over
    # F2[t]/t^2 has 720 * 2^10 elements, and with the cap at 10 so do
    # Heis(Z/4) (64) and A1(Z/4) (48)
    with pytest.raises(TooLarge, match="pair scan over 737280 elements"):
        prop73_consistency("B2", "a1", "a2", "fqt", 2, 1, 3)
    monkeypatch.setattr(zeta, "PAIR_SCAN_CAP", 10)
    with pytest.raises(TooLarge, match="pair scan over 64 elements"):
        prop62_consistency("heisenberg", "zq", 2, 1, 3)
    with pytest.raises(TooLarge, match="pair scan over 48 elements"):
        prop73_consistency("A1", "-", "-", "zq", 2, 1, 3)
    assert generated == []


# ----------------------------------------------------------------------
# transfer and Euler product


def test_transfer_cc_heisenberg():
    r = transfer_report("heisenberg", [2, 3], 1, 3)
    assert r["ok"] and r["mode"] == "cc"
    assert r["rows"][0]["zq"] == [1, 5, 22]
    assert r["rows"][0]["fqt"] == [1, 5, 22]
    assert r["rows"][1]["zq"] == [1, 11, 105]


def test_transfer_hecke_a1():
    r = transfer_report("chevalley:A1", [2, 3, 5], 1, 2, s1="-", s2="-")
    assert r["ok"] and r["mode"] == "hecke"
    for row in r["rows"]:
        assert row["zq"] == [1, 2] and row["fqt"] == [1, 2]


def test_transfer_hecke_needs_chevalley():
    with pytest.raises(ZetaError):
        transfer_report("heisenberg", [2], 1, 2, s1="-", s2="-")


def test_euler_multiplicativity_heisenberg():
    r = euler_multiplicativity("heisenberg", 6)
    assert r["ok"]
    assert r["cc"] == 55
    assert sorted(p["modulus"] for p in r["parts"]) == [2, 3]
    r = euler_multiplicativity("heisenberg", 12)
    assert r["ok"]
    assert r["cc"] == 242
    assert r["product"] == 22 * 11
    with pytest.raises(ZetaError):
        euler_multiplicativity("heisenberg", 1)
