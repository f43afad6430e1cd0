import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from localzeta import cli, igusa
from localzeta.groups import IdentityError, TooLarge
from localzeta.igusa import (
    IgusaError,
    igusa_truncation,
    level_set_measures,
    parse_poly,
    zero_count,
)
from localzeta.laurent import Laurent
from localzeta.rings import make_ring, parse_ring
from localzeta.zeta import (
    expand,
    igusa_coordinate_form,
    igusa_determinant_form,
    igusa_two_by_two_form,
)

DET = "a*b - c*d"
DET3 = "a*e*i+b*f*g+c*d*h-c*e*g-b*d*i-a*f*h"


def test_parse_poly_basics():
    p = parse_poly(DET)
    assert p.vars == ("a", "b", "c", "d")
    assert p.terms.terms == {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1}
    p = parse_poly("x_1 + 12")
    assert (p.vars, p.terms.terms) == (("x_1",), {(1,): 1, (0,): 12})
    # unary minus binds looser than ^
    assert parse_poly("-x^2").terms.terms == {(2,): -1}
    assert parse_poly("(x + 1)^2 - x^2").terms.terms == {(1,): 2, (0,): 1}


@pytest.mark.parametrize("text,arity", [
    ("a+b+c-a-b-c", 3), ("x - x", 1), ("0*y + 1", 1), ("x^0", 1),
])
def test_vars_are_syntactic(text, arity):
    # every identifier of the text is an axis, also where its terms cancel
    assert parse_poly(text).terms.terms in ({}, {(0,) * arity: 1})
    rep = level_set_measures(text, make_ring("zq", p=2, f=1, m=3))
    assert rep["arity"] == arity


def _sparse(rng, names):
    # the seeded monomial shapes of the igusa benchmark polynomials
    terms = []
    for shape in ("{u}", "{u}*{v}", "{u}^2*{v}"):
        u, v = rng.sample(names, 2)
        terms.append(f"{rng.randint(1, 3)}*" + shape.format(u=u, v=v))
    return " + ".join(terms)


def _oracle_polys(rng):
    for _ in range(10):
        w, x, y, z = rng.sample(["w", "x", "y", "z"], 4)
        yield f"{w} + " + _sparse(rng, [x, y, z])
        yield f"({w} + {_sparse(rng, [x, y, z])})*{x} - {y}*{z}"
        k, j, c = rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 99)
        yield (f"-(({w} - {rng.randint(0, 9)}*{x})^{k} + {c})^{j}"
               f" - -{y}*{c}^2 + {rng.randint(0, 9)}")


def _int_value(text, names, point):
    # Python's own integer arithmetic, independent of Laurent and the rings
    return eval(text.replace("^", "**"), {}, dict(zip(names, point)))


def test_expansion_agrees_with_integer_arithmetic():
    rng = random.Random(20261020)
    for text in _oracle_polys(rng):
        f = parse_poly(text)
        for _ in range(5):
            point = [rng.randint(-20, 20) for _ in f.vars]
            assert f.terms.evaluate(point) == _int_value(text, f.vars, point)


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (5, 2)])
def test_evaluate_agrees_with_integer_arithmetic(p, m):
    # over Z/p^m an index is its residue, so _evaluate must give f mod p^m
    ring = make_ring("zq", p=p, f=1, m=m)
    rng = random.Random(p)
    for text in _oracle_polys(rng):
        f = parse_poly(text)
        cols = [[rng.randrange(p**m) for _ in f.vars] for _ in range(50)]
        want = [_int_value(text, f.vars, col) % p**m for col in cols]
        points = np.array(cols, dtype=np.int64).T
        assert igusa._evaluate(f.terms, ring, points).tolist() == want


def test_expansion_budget_refuses_a_product_before_forming_it(monkeypatch):
    formed = []
    mul = Laurent.__mul__

    def spy(a, b):
        formed.append(len(a.terms) * len(b.terms))
        return mul(a, b)

    monkeypatch.setattr(Laurent, "__mul__", spy)
    monkeypatch.setattr(igusa, "EXPANSION_CAP", 12)
    assert len(parse_poly("(a + b + c)*(w + x + y + z)").terms.terms) == 12
    assert formed == [12]
    formed.clear()
    monkeypatch.setattr(igusa, "EXPANSION_CAP", 11)
    with pytest.raises(TooLarge, match="12 pairs of terms, over budget 11"):
        parse_poly("(a + b + c)*(w + x + y + z)")
    assert formed == []
    # powers square through the same check: (x + 1)^4 squares x + 1 (4
    # pairs), then x^2 + 2x + 1 (9 pairs)
    monkeypatch.setattr(igusa, "EXPANSION_CAP", 8)
    with pytest.raises(TooLarge, match="9 pairs"):
        parse_poly("(x + 1)^4")
    assert formed == [4]
    # a coefficient counts once per 4096-bit block: 2^4096 (4097 bits)
    # is formed, squaring it would cost 2 * 2 pairs
    monkeypatch.setattr(igusa, "EXPANSION_CAP", 3)
    assert parse_poly("2^4096").terms.terms == {(): 2**4096}
    with pytest.raises(TooLarge, match="4 pairs"):
        parse_poly("2^8192")


def _igusa_exit_code(poly):
    return cli.main(["igusa", "--poly", poly, "--ring", "zq:p=2,f=1,m=3"])


def test_expansion_budget_at_the_command_line(capsys):
    start = time.perf_counter()
    assert _igusa_exit_code("(x+1)^100000") == 3
    assert _igusa_exit_code("7^100000000") == 3
    # each refusal takes about half a second; expanding would take hours
    assert time.perf_counter() - start < 10
    assert "over budget" in capsys.readouterr().err
    # one term, however high its power, still runs, and so does the
    # largest expansion the tests make: 489 * 513 pairs in its last product
    assert _igusa_exit_code("x^1000000") == 0
    assert _igusa_exit_code("(x+1)^1000") == 0


def test_parse_poly_errors():
    for bad in ("a /", "(a", "a + ", "x ^ y", "3 % 4", ""):
        with pytest.raises(IgusaError):
            parse_poly(bad)


def test_zero_count_determinant_f2():
    # over F_2: ab = cd has 3*3 + 1*1 solutions
    r = make_ring("zq", p=2, f=1, m=1)
    assert zero_count(DET, r) == 10
    q = 2
    assert 10 == q**3 + q**2 - q


def test_zero_count_single_variable():
    assert zero_count("x", make_ring("zq", p=3, f=1, m=2)) == 1
    assert zero_count("x", make_ring("fqt", p=3, f=1, m=2)) == 1


def test_zero_count_constants():
    r = make_ring("zq", p=2, f=1, m=2)
    assert zero_count("1", r) == 0
    assert zero_count("0", r) == 1  # R^0 is one point
    assert zero_count("4 + 0*x", r) == r.size  # 4 = 0 in Z/4


def test_zero_count_ambient_axes_scale():
    # a variable that f mentions but does not depend on is still an axis
    r = make_ring("zq", p=3, f=1, m=1)
    base = zero_count("x", r)
    assert zero_count("x + 0*y*z", r) == base * r.size**2


def test_zero_count_power_and_identities():
    r9 = make_ring("zq", p=3, f=1, m=2)
    assert zero_count("x^2", r9) == 3  # x in {0, 3, 6}
    # binomial identity vanishes everywhere
    r8 = make_ring("zq", p=2, f=1, m=3)
    n = zero_count("(a+b)^2 - a^2 - 2*a*b - b^2", r8)
    assert n == r8.size**2
    assert zero_count("- - x - x", r8) == r8.size


def test_zero_count_arity_checks(monkeypatch):
    # the budget is checked against the grid of the d variables f mentions
    with pytest.raises(TooLarge):
        zero_count("x + y + z", make_ring("zq", p=2, f=1, m=12))
    r = make_ring("zq", p=2, f=1, m=2)
    monkeypatch.setattr(igusa, "GRID_CAP", r.size**4)
    assert zero_count(DET, r) == level_set_measures(DET, r)["zero_counts"][1]
    monkeypatch.setattr(igusa, "GRID_CAP", r.size**4 - 1)
    with pytest.raises(TooLarge, match="grid of 256 points"):
        zero_count(DET, r)


def test_level_set_measures_determinant():
    top = make_ring("zq", p=2, f=1, m=4)
    rep = level_set_measures(DET, top)
    assert rep["zero_counts"][0] == 10
    # mu(v >= 1) = 10/16, so mu(v = 0) = 3/8
    assert rep["measures"][0] == Fraction(3, 8)
    assert all(mu >= 0 for mu in rep["measures"])
    assert sum(rep["measures"]) + rep["tail"] == 1
    assert rep["tail"] == Fraction(rep["zero_counts"][-1], 16**4)


def test_level_set_measures_coordinate():
    for q, kind in ((2, "zq"), (3, "zq"), (2, "fqt")):
        top = make_ring(kind, p=q, f=1, m=4)
        rep = level_set_measures("x", top)
        for n, mu in enumerate(rep["measures"]):
            assert mu == Fraction(1, q**n) * (1 - Fraction(1, q))


def test_level_set_measures_needs_valuation():
    with pytest.raises(IgusaError):
        level_set_measures("x", make_ring("zn", n=6))


def test_zero_counts_monotone_under_reduction():
    # each level-(m+1) zero reduces to a level-m zero; fibers have q^d points
    top = make_ring("zq", p=2, f=1, m=4)
    N = [1] + level_set_measures(DET, top)["zero_counts"]
    for i in range(len(N) - 1):
        assert 0 <= N[i + 1] <= 2**4 * N[i]


def test_igusa_truncation_matches_closed_form():
    top = make_ring("zq", p=2, f=1, m=4)
    series, tail = igusa_truncation(DET, top)
    assert series == expand(igusa_two_by_two_form(), 2, 4)
    assert series.provenance == ["enumerated"] * 4
    assert sum(series.coeffs) + tail == 1

    top3 = make_ring("zq", p=3, f=1, m=3)
    series3, _ = igusa_truncation(DET, top3)
    assert series3 == expand(igusa_two_by_two_form(), 3, 3)


def test_igusa_truncation_transfer():
    for kind in ("zq", "fqt"):
        s, _ = igusa_truncation(DET, make_ring(kind, p=2, f=1, m=3))
        assert s == expand(igusa_two_by_two_form(), 2, 3)


def test_igusa_truncation_univariate():
    s, tail = igusa_truncation("x", make_ring("zq", p=2, f=1, m=5))
    assert s == expand(igusa_coordinate_form(), 2, 5)
    assert tail == Fraction(1, 32)


# (poly, ring, chunk): a chunk, when given, replaces CHUNK, so that the
# scan and the lifting split their grids and fibres at odd offsets
LIFT_CASES = [
    (DET, "zq:p=2,f=1,m=5", None),
    (DET, "fqt:p=2,f=1,m=5", None),
    (DET, "zq:p=3,f=1,m=3", None),
    (DET, "fqt:p=3,f=1,m=3", None),
    (DET, "zq:p=2,f=2,m=2", None),
    (DET, "fqt:p=2,f=2,m=2", None),
    ("x*y - z^2", "zq:p=3,f=1,m=3", 5),
    ("x^3 - y^2", "fqt:p=2,f=1,m=6", 3),
    ("0", "zq:p=2,f=1,m=2", 3),
    ("1", "zq:p=2,f=1,m=2", 3),
    ("4", "zq:p=2,f=1,m=2", 1),
    ("x^2", "zq:p=3,f=1,m=2", 1),
    (DET3, "zq:p=2,f=1,m=2", None),
    (DET3, "fqt:p=2,f=1,m=2", None),
    ("a+b+c-a-b-c", "zq:p=2,f=1,m=4", None),
    ("a+b+c-a-b-c", "fqt:p=3,f=1,m=2", 4),
] + [
    # both ring kinds at every p of 2, 3 and 5 and f of 1, 2 and 3, each
    # at the deepest level whose scan stays small
    (poly, f"{kind}:p={p},f={f},m={m}", None)
    for poly in ("x^3 - y^2", "x*y - 6")
    for kind in ("zq", "fqt")
    for p, f, m in [(2, 1, 5), (2, 2, 3), (2, 3, 2), (3, 1, 4), (3, 2, 2),
                    (3, 3, 2), (5, 1, 3), (5, 2, 2), (5, 3, 1)]
]


def _scan_counts(poly, top):
    return [zero_count(poly, top.subring_level(k))
            for k in range(1, top.m + 1)]


@pytest.mark.parametrize("poly,ring,chunk", LIFT_CASES)
def test_lifted_counts_match_scan(monkeypatch, poly, ring, chunk):
    top = parse_ring(ring)
    if chunk is not None:
        monkeypatch.setattr(igusa, "CHUNK", chunk)
    got = level_set_measures(poly, top)["zero_counts"]
    assert got == _scan_counts(poly, top)


@pytest.mark.parametrize("chunk", [8, 64])
def test_lifted_counts_in_small_pieces(monkeypatch, chunk):
    # 8 splits one fibre of q^4 = 16 lifts over two pieces; 64 puts four
    # zeros in each piece
    top = make_ring("zq", p=2, f=1, m=4)
    want = _scan_counts(DET, top)
    monkeypatch.setattr(igusa, "CHUNK", chunk)
    assert level_set_measures(DET, top)["zero_counts"] == want


def test_lift_checks_its_digit_steps():
    # step (k, u) is pi^k u: the digits of u (as the level-1 ring orders
    # them) in digit row k, zero in every other row, and the check accepts
    # exactly that array
    for lit in ("fqt:p=2,f=1,m=3", "zq:p=3,f=1,m=2", "zq:p=2,f=2,m=3",
                "fqt:p=3,f=2,m=2"):
        ring = parse_ring(lit)
        one = ring.subring_level(1)
        steps = igusa._digit_steps(ring)
        assert steps.shape == (ring.m, ring.q)
        assert steps.dtype == np.min_scalar_type(ring.size - 1)
        for k in range(ring.m):
            for u in range(ring.q):
                rows = ring.DIGITS[steps[k, u]]
                assert rows[k].tolist() == one.DIGITS[u, 0].tolist()
                assert not np.delete(rows, k, axis=0).any()
        assert igusa._check_steps(ring, steps) is steps


@pytest.mark.parametrize("lit,k,u", [
    ("fqt:p=2,f=1,m=2", 1, 1),
    ("zq:p=2,f=1,m=3", 0, 1),
    ("zq:p=3,f=1,m=2", 1, 2),
    ("zq:p=2,f=2,m=2", 1, 2),
    ("fqt:p=2,f=2,m=2", 0, 3),
])
def test_a_corrupt_digit_step_is_refused(monkeypatch, lit, k, u):
    # one wrong entry of the steps stops the count before any point is
    # evaluated
    top = parse_ring(lit)
    build, evaluated = igusa._digit_steps, []

    def corrupt(ring):
        steps = build(ring).copy()
        steps[k, u] = (int(steps[k, u]) + 1) % ring.size
        return steps

    def spy(f, ring, points):
        evaluated.append(points)

    monkeypatch.setattr(igusa, "_digit_steps", corrupt)
    monkeypatch.setattr(igusa, "_evaluate", spy)
    with pytest.raises(IdentityError, match="digit step"):
        level_set_measures("x", top)
    assert not evaluated


def test_lifting_memory_does_not_grow_with_zeros(monkeypatch):
    # every one of the 2^21 points at the top level is a zero; small
    # pieces make any array that grows with the zeros stand out
    monkeypatch.setattr(igusa, "CHUNK", 1 << 12)
    top = make_ring("zq", p=2, f=1, m=7)
    poly = "a+b+c-a-b-c"
    tracemalloc.start()
    try:
        assert zero_count(poly, top) == top.size**3
        scan = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert level_set_measures(poly, top)["zero_counts"][-1] == top.size**3
        lift = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lift <= scan


def test_budget_checked_before_any_level(monkeypatch):
    f = parse_poly("a*b")
    evaluated = []
    evaluate = igusa._evaluate

    def spy(g, ring, points):
        if g is f.terms:  # f itself, not a partial
            evaluated.extend(map(tuple, points.T.tolist()))
        return evaluate(g, ring, points)

    monkeypatch.setattr(igusa, "_evaluate", spy)
    # a*b over F_2 has 4 grid points and one singular zero, (0, 0); up to
    # level 9 the lifting evaluates at most 4 + (4^8 - 1)/3 = 21849 points
    monkeypatch.setattr(igusa, "GRID_CAP", 21848)
    top = make_ring("zq", p=2, f=1, m=9)
    with pytest.raises(TooLarge, match="up to 21849 points"):
        level_set_measures(f, top)
    # the level-1 scan met each grid point once; any lift would have
    # evaluated f at (0, 0) again
    assert sorted(evaluated) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    evaluated.clear()
    monkeypatch.setattr(igusa, "GRID_CAP", 3)
    with pytest.raises(TooLarge, match="grid of 4 points"):
        level_set_measures(f, top)
    assert not evaluated


@pytest.mark.parametrize(
    "poly,ring,chunk", LIFT_CASES + [("x - x", "zq:p=2,f=1,m=5", None)])
def test_budget_accepts_every_ambient_grid_within_it(monkeypatch, poly,
                                                     ring, chunk):
    # a scan of the top level accepts exactly q^(m d) <= GRID_CAP, d the
    # variables f mentions; for d >= 1 the bound on evaluated points never
    # exceeds that grid, and x - x (q^d = 2, every zero singular) meets it
    # with equality.  With d = 0 each level evaluates its one point once.
    top = parse_ring(ring)
    want = _scan_counts(poly, top)
    d = len(parse_poly(poly).vars)
    if chunk is not None:
        monkeypatch.setattr(igusa, "CHUNK", chunk)
    monkeypatch.setattr(igusa, "GRID_CAP", top.size**d if d else top.m)
    assert level_set_measures(poly, top)["zero_counts"] == want


@pytest.mark.parametrize("poly", ["0", "2", "9"])
def test_counts_without_variables(poly):
    # no variables: every zero is singular and the counts stay integers
    top = make_ring("zq", p=3, f=1, m=3)
    counts = level_set_measures(poly, top)["zero_counts"]
    assert counts == _scan_counts(poly, top)
    assert counts == [int(int(poly) % 3**k == 0) for k in (1, 2, 3)]
    assert all(type(n) is int for n in counts)


def test_derivative_by_hand():
    def d(text, name):
        f = parse_poly(text)
        return igusa._partials(f.terms)[f.vars.index(name)].terms

    assert d("x^3", "x") == {(2,): 3}
    assert d("-x^2", "x") == {(1,): -2}
    assert d("(x + 1)^2", "x") == {(1,): 2, (0,): 2}
    assert d("(x*y)^2", "x") == {(1, 2): 2}
    assert d("x^1", "x") == {(0,): 1}
    assert d("x^0", "x") == {}
    assert d("x*y", "x") == {(0, 1): 1}
    assert d("x - y", "y") == {(0, 0): -1}
    assert igusa._partials(parse_poly("5").terms) == []
    assert d("x^2 + 7 + 0*y", "y") == {}


def test_derivative_of_square_vanishes_mod_two():
    # d(x^2)/dx = 2x vanishes mod 2, though not on Z/8
    (dx,) = igusa._partials(parse_poly("x^2").terms)
    assert dx.terms == {(1,): 2}
    dx = igusa.Poly(dx, ("x",), "2*x")
    assert zero_count(dx, make_ring("zq", p=2, f=1, m=1)) == 2
    assert zero_count(dx, make_ring("fqt", p=2, f=1, m=3)) == 8
    assert zero_count(dx, make_ring("zq", p=2, f=1, m=3)) == 2
    # so the one zero of x^2 over F_2 is singular, and the zero (0, 0) of
    # x^2 + y is smooth
    f2 = make_ring("zq", p=2, f=1, m=1)
    step = igusa._digit_steps(f2)[0]
    smooth, singular = igusa._level_one_zeros(parse_poly("x^2"), f2, step)
    assert (smooth, singular.tolist()) == (0, [[0]])
    smooth, singular = igusa._level_one_zeros(parse_poly("x^2 + y"), f2,
                                              step)
    assert (smooth, singular.shape) == (2, (2, 0))


SPLIT_CASES = [
    (DET, "zq:p=2,f=1,m=2"),
    (DET, "fqt:p=3,f=1,m=2"),
    (DET, "zq:p=2,f=2,m=2"),
    ("x^2 - 2*y^2", "zq:p=2,f=2,m=2"),
    ("x^3 - y^2", "fqt:p=2,f=1,m=2"),
    ("x^3 - y^2", "zq:p=3,f=1,m=2"),
    ("x*y - z^2", "zq:p=3,f=1,m=2"),
    ("(x + y)^3 - x*y + 1", "fqt:p=3,f=1,m=2"),
    ("x^2 + y^2 + 1", "zq:p=5,f=1,m=2"),
    ("x^4 + 2*x^2*y", "zq:p=2,f=1,m=2"),
]


@pytest.mark.parametrize("poly,ring", SPLIT_CASES)
def test_singular_zeros_have_all_or_no_zero_lifts(poly, ring):
    level2 = parse_ring(ring)
    f = parse_poly(poly)
    q, d, size = level2.q, len(f.vars), level2.size
    # brute force over the level-2 grid: the zero lifts of each level-1 point
    idx = np.arange(size**d)
    cols = [(idx // size**j % size).astype(np.int32) for j in range(d)]
    vals = igusa._evaluate(f.terms, level2, np.array(cols))
    proj = level2.project_table(1)
    below = sum(proj[c].astype(np.int64) * q**j for j, c in enumerate(cols))
    zero1 = np.bincount(below[proj[vals] == 0], minlength=q**d) > 0
    lifts = np.bincount(below[vals == level2.zero], minlength=q**d)
    all_or_none = (lifts == 0) | (lifts == q**d)
    # the scan runs in the level-2 ring; its singular zeros are canonical
    # lifts, which project to their level-1 points
    smooth, singular = igusa._level_one_zeros(
        f, level2, igusa._digit_steps(level2)[0])
    assert smooth == int((zero1 & ~all_or_none).sum())
    assert not level2.DIGITS[singular][..., 1:, :].any()
    flat = sum(proj[singular[j]].astype(np.int64) * q**j for j in range(d))
    assert sorted(flat) == list(np.flatnonzero(zero1 & all_or_none))


@pytest.mark.parametrize("q", [2, 3])
def test_determinant_form_small_cases(q):
    for M in (1, 3, 5):
        assert expand(igusa_determinant_form(1), q, M) == expand(
            igusa_coordinate_form(), q, M)
        assert expand(igusa_determinant_form(2), q, M) == expand(
            igusa_two_by_two_form(), q, M)


@pytest.mark.parametrize("kind", ["zq", "fqt"])
def test_determinant_form_three_by_three(kind):
    series, tail = igusa_truncation(DET3, make_ring(kind, p=2, f=1, m=2))
    assert series == expand(igusa_determinant_form(3), 2, 2)
    assert series.coeffs == [Fraction(21, 64), Fraction(147, 512)]
    assert tail == Fraction(100864, 2**18)


DET3_COUNTS = [
    (2, 4, [344, 100864, 27557888, 7283408896]),
    (3, 3, [8451, 59895369, 402931657467]),
]


@pytest.mark.parametrize("kind", ["zq", "fqt"])
@pytest.mark.parametrize("q,M,counts", DET3_COUNTS)
def test_determinant_form_three_by_three_deeper(kind, q, M, counts):
    rep = level_set_measures(DET3, make_ring(kind, p=q, f=1, m=M))
    assert rep["zero_counts"] == counts
    assert rep["measures"] == expand(igusa_determinant_form(3), q, M).coeffs
    if q == 2:
        assert rep["measures"] == [Fraction(21, 64), Fraction(147, 512),
                                   Fraction(735, 4096), Fraction(3255, 32768)]
