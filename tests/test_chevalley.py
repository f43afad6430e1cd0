"""Chevalley layer: signs, exponentials, torus elements, conjugation laws.

The sl2 adjoint action is written out by hand as an independent oracle; the
bigger systems are covered by the construction-time verification (Jacobi,
antisymmetry, string magnitudes) plus spot values like the N = 2 constant
in B2 and the classical point counts.
"""

import numpy as np
import pytest

from localzeta import chevalley
from localzeta.chevalley import (
    ChevalleyError,
    ChevalleyGroup,
    chevalley_group,
)
from localzeta.groups import Family, _chevalley_generators
from localzeta.rings import make_ring, parse_ring
from localzeta.rootdata import SYSTEMS, root_system


def test_all_systems_construct_and_verify():
    # construction re-derives the bracket table and checks Jacobi,
    # antisymmetry and |N| = p_down + 1, so this is not just a smoke test
    for name in SYSTEMS:
        cg = chevalley_group(name)
        assert cg.dim == cg.rs.rank + len(cg.rs.roots)


def test_struct_hash_reproducible():
    a = ChevalleyGroup("B2").struct_hash()
    b = ChevalleyGroup("B2").struct_hash()
    assert a == b
    assert a != ChevalleyGroup("C2").struct_hash()


def test_sl2_adjoint_matrices_by_hand():
    # basis (H, X_a, X_{-a}); ad X_a sends H -> -2 X_a, X_{-a} -> H - t...
    cg = chevalley_group("A1")
    ring = parse_ring("zq:p=5,f=1,m=1")
    t = 3
    M = cg.x(ring, cg.rs.positive[0], t)
    want = ring.mat_from_int(
        np.array([[1, 0, t], [-2 * t, 1, -(t * t)], [0, 0, 1]])
    )
    assert (M == want).all()
    u = 2
    H = cg.h(ring, cg.rs.positive[0], u)
    want = ring.mat_from_int(np.diag([1, u * u, pow(u, -2, 5)]))
    assert (H == want).all()


def test_divided_power_depth():
    # (ad X)^3 = 0 in every system here, so x(t) is quadratic in t
    for name in SYSTEMS:
        cg = chevalley_group(name)
        for v in cg.rs.roots:
            assert len(cg._divided[v]) == 3
            # the opposite root space always survives two steps
            assert cg._divided[v][2].any()


def test_structure_constant_values():
    a2 = chevalley_group("A2")
    x, y = a2.rs.simple  # a1, a2
    # positive order puts a2 before a1 (coordinate lex), so (a2, a1) is the
    # extraspecial pair and carries the positive sign
    assert a2.nsigns[(y, x)] == 1
    assert a2.nsigns[(x, y)] == -1
    nx, ny = a2.rs.negative(x), a2.rs.negative(y)
    assert a2.nsigns[(ny, nx)] == -1
    b2 = chevalley_group("B2")
    s1, s2 = b2.rs.simple
    e1 = b2.rs.parse_root("a1+a2")
    assert abs(b2.nsigns[(s2, e1)]) == 2  # two-step string through a1
    assert b2.nsigns[(s2, s1)] == 1


def test_coroot_rows():
    b2 = chevalley_group("B2")
    long_root = b2.rs.parse_root("a1+2a2")
    short_root = b2.rs.parse_root("a1+a2")
    assert b2._coroot_rows[long_root] == (1, 1)
    assert b2._coroot_rows[short_root] == (2, 1)
    a2 = chevalley_group("A2")
    assert a2._coroot_rows[a2.rs.highest_root()] == (1, 1)


def test_one_parameter_additivity():
    cg = chevalley_group("B2")
    ring = parse_ring("zq:p=3,f=1,m=2")
    for g in cg.rs.roots:
        for t1 in [0, 1, 5, 7]:
            for t2 in [1, 4, 8]:
                lhs = ring.mat_mul(cg.x(ring, g, t1), cg.x(ring, g, t2))
                rhs = cg.x(ring, g, ring.add(t1, t2))
                assert (lhs == rhs).all()


def test_h_equals_weyl_product():
    # h(root, u) must agree with x-word w(root,u) w(root,-1) in every ring
    for lit in ["zq:p=3,f=1,m=2", "zq:p=2,f=2,m=2", "fqt:p=2,f=1,m=3"]:
        ring = parse_ring(lit)
        for name in ["A1", "A2", "B2"]:
            cg = chevalley_group(name)
            minus_one = ring.neg(ring.one)
            for g in cg.rs.roots:
                for u in ring.units():
                    lhs = ring.mat_mul(
                        cg.w(ring, g, u), cg.w(ring, g, minus_one)
                    )
                    assert (lhs == cg.h(ring, g, u)).all()


def test_h_conjugation_scales_root_parameters():
    # h_a(u) x_b(t) h_a(u)^{-1} = x_b(u^{<b,a>} t)
    ring = parse_ring("zq:p=3,f=1,m=2")
    for name in ["A2", "B2"]:
        cg = chevalley_group(name)
        rs = cg.rs
        for a in rs.roots:
            for b in rs.roots:
                k = rs.pairing(b, a)
                for u in ring.units():
                    h = cg.h(ring, a, u)
                    hinv = cg.h(ring, a, ring.invert(u))
                    for t in range(ring.size):
                        lhs = ring.mat_mul(
                            ring.mat_mul(h, cg.x(ring, b, t)), hinv
                        )
                        scaled = ring.mul(ring.pow(u, k), t)
                        assert (lhs == cg.x(ring, b, scaled)).all()
                        break  # one t per unit is plenty inside this sweep
                # and a full t sweep at the first unit
                u = ring.units()[0]
                h = cg.h(ring, a, u)
                hinv = cg.h(ring, a, ring.invert(u))
                pows = ring.pow(u, k)
                for t in range(ring.size):
                    lhs = ring.mat_mul(
                        ring.mat_mul(h, cg.x(ring, b, t)), hinv
                    )
                    assert (lhs == cg.x(ring, b, ring.mul(pows, t))).all()


def test_tau_conjugation_uses_coefficient_exponent():
    # tau_b(u) x_g(t) tau_b(u)^{-1} = x_g(u^{[g:b]} t)
    ring = parse_ring("zq:p=2,f=1,m=3")
    for name in ["A2", "B2"]:
        cg = chevalley_group(name)
        rs = cg.rs
        for slot in range(rs.rank):
            for u in ring.units():
                tau = cg.tau(ring, slot, u)
                tinv = cg.tau(ring, slot, ring.invert(u))
                for g in rs.roots:
                    k = rs.coeffs[g][slot]
                    for t in [1, 3, 5]:
                        lhs = ring.mat_mul(
                            ring.mat_mul(tau, cg.x(ring, g, t)), tinv
                        )
                        scaled = ring.mul(ring.pow(u, k), t)
                        assert (lhs == cg.x(ring, g, scaled)).all()


def test_tau_is_injective_but_h_is_not():
    ring = parse_ring("zq:p=5,f=1,m=1")
    cg = chevalley_group("A1")
    root = cg.rs.positive[0]
    taus = {cg.tau(ring, 0, u).tobytes() for u in ring.units()}
    assert len(taus) == len(ring.units())
    hs = {cg.h(ring, root, u).tobytes() for u in ring.units()}
    assert len(hs) == len(ring.units()) // 2  # u and -u collide in PGL-adj


def test_torus_parameters_require_units():
    ring = parse_ring("zq:p=2,f=1,m=2")
    cg = chevalley_group("A1")
    with pytest.raises(ChevalleyError):
        cg.tau(ring, 0, 2)
    with pytest.raises(ChevalleyError):
        cg.h(ring, cg.rs.positive[0], 0)


def test_big_cell_injective():
    # negative cell x coweight torus x positive cell: distinct parameters
    # give distinct matrices, (q-1)^l q^{2 npos} of them over a field
    ring = parse_ring("zq:p=3,f=1,m=1")
    cg = chevalley_group("A1")
    seen = set()
    for s in range(3):
        for lam in ring.units():
            for t in range(3):
                M = cg.big_cell(ring, [s], [lam], [t])
                seen.add(M.tobytes())
    assert len(seen) == 2 * 9


def test_point_counts_and_haar_polynomial():
    from fractions import Fraction

    a1 = chevalley_group("A1")
    assert a1.point_count(2) == 6
    assert a1.point_count(3) == 24
    a2 = chevalley_group("A2")
    assert a2.point_count(2) == 168
    d4 = chevalley_group("D4")
    assert d4.point_count(2) == 174182400
    for name in SYSTEMS:
        cg = chevalley_group(name)
        poly = cg.haar_unit_polynomial()
        for q in (2, 3, 4, 5):
            lhs = poly.evaluate([Fraction(q)])
            assert lhs == Fraction(cg.point_count(q), q**cg.dim)


def test_generator_family_sizes():
    # one x generator per root and additive generator, one tau generator
    # per simple slot and unit generator when the family has its torus
    ring = parse_ring("zq:p=2,f=1,m=2")
    nadd = len(ring.additive_generators())
    nunit = len(ring.unit_generators())

    def count(text):
        fam = Family(text)
        return len(_chevalley_generators(fam.cg, ring, fam.roots,
                                         fam.include_torus))

    assert count("unipotent:A2") == 3 * nadd
    assert count("borel:A2") == 3 * nadd + 2 * nunit
    a2 = Family("chevalley:A2")
    assert len(_chevalley_generators(a2.cg, ring, a2.roots, False)) \
        == 6 * nadd
    assert count("parabolic:A2:a1") == 4 * nadd + 2 * nunit


def test_symbolic_identity_reports():
    # torus conjugation, one-parameter law, and the h-product diagonal
    # are polynomial identities: a pass here is a proof, not a sample
    from localzeta.chevalley import verify_torus_conjugation

    for name in ("A1", "A2", "B2"):
        rep = verify_torus_conjugation(name)
        assert rep["ok"], rep
        cg = chevalley_group(name)
        assert len(rep["torus_single"]) == len(cg.rs.roots) * cg.rs.rank
        assert len(rep["one_parameter"]) == len(cg.rs.roots)
    one = verify_torus_conjugation(chevalley_group("A1"))
    pair = one["torus_single"][0]
    assert pair["exponent"] in (2, -2)


def test_haar_constants_normalization():
    from fractions import Fraction

    from localzeta.chevalley import haar_constants

    a1 = chevalley_group("A1")
    rep = haar_constants(a1, 2, 6, 2)
    assert rep["k"] == Fraction(3, 4)
    assert rep["normalization"] == 1 and rep["ok"]
    assert rep["density_exponents"] == {"a1": -3}
    rep = haar_constants(a1, 3, 24, 6)
    assert rep["ok"]
    a2 = chevalley_group("A2")
    rep = haar_constants(a2, 2, 168, 8)
    assert rep["ok"]
    # a wrong borel order must be flagged
    assert not haar_constants(a1, 2, 6, 4)["ok"]


def test_iwahori_box_image():
    from localzeta.chevalley import iwahori_box_report

    a1 = chevalley_group("A1")
    for lit in ("zq:p=2,f=1,m=1", "zq:p=2,f=1,m=2", "zq:p=3,f=1,m=2",
                "fqt:p=2,f=1,m=2"):
        rep = iwahori_box_report(a1, parse_ring(lit))
        assert rep["ok"], rep


def _scaled_norms(monkeypatch, scale):
    """Distort (v, v) for the roots in scale, as a wrong root datum would."""
    real = chevalley._dot

    def dot(u, v):
        same = tuple(u) == tuple(v)
        return real(u, v) * (scale.get(tuple(u), 1) if same else 1)

    monkeypatch.setattr(chevalley, "_dot", dot)


def test_cycle_quotient_must_be_integral(monkeypatch):
    rs = root_system("A2")
    _scaled_norms(monkeypatch, {rs.positive[-1]: 2})
    with pytest.raises(ChevalleyError, match="by the cycle .* is -1/2, not "
                       "an integer"):
        chevalley._structure_signs(rs)


def test_jacobi_quotient_must_be_integral(monkeypatch):
    rs = root_system("A3")
    # a1 and a1+a2 doubled: every cycle quotient stays integral, but
    # N(a1, a2+a3) = -(term1 + term3) / N(s, -xi) becomes -1/2
    a1, a12 = rs.positive[2], rs.positive[4]
    assert rs.coeffs[a1] == (1, 0, 0) and rs.coeffs[a12] == (1, 1, 0)
    _scaled_norms(monkeypatch, {a1: 2, a12: 2})
    with pytest.raises(ChevalleyError, match="by the Jacobi identity is "
                       "-1/2, not an integer"):
        chevalley._structure_signs(rs)


def test_extraspecial_constant_must_be_nonzero(monkeypatch):
    rs = root_system("A3")
    # p_down = -1 makes every N(xi, eta) zero, so N(s, -xi) is zero
    monkeypatch.setattr(rs, "p_down", lambda a, b: -1)
    with pytest.raises(ChevalleyError, match="is 0, not a nonzero integer"):
        chevalley._structure_signs(rs)
