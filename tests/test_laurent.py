"""Exactness of the mixed int/Fraction coefficient representation.

Laurent and LinForm store integral coefficients as ints and the rest as
Fractions.  Each test runs seeded random arithmetic on them and compares
the result, evaluated at rational points, with the same operation carried
out on the operands' values in Fractions alone.  Every coefficient of every
result must be in normal form: an int, or a Fraction that is not integral,
and never a float.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from localzeta.laurent import Laurent, exact
from localzeta.presburger import LinForm, _as_laurent

SEED = 20261018
VARS = ("a", "b", "n")


def _assert_normal(coeffs):
    for c in coeffs:
        assert type(c) is int or (
            type(c) is Fraction and c.denominator != 1
        ), repr(c)


def _coeff(rng):
    if rng.random() < 0.7:
        return rng.randint(-5, 5)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _point(rng, n):
    out = []
    while len(out) < n:
        x = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        if x:
            out.append(x)
    return out


def _laurent(rng, nvars=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(-2, 3) for _ in range(nvars))
        terms[e] = _coeff(rng)
    return Laurent(nvars, terms)


def _linform(rng):
    coeffs = {v: _coeff(rng) for v in rng.sample(VARS, rng.randint(0, 3))}
    return LinForm(coeffs, _coeff(rng))


INDEX = {v: i for i, v in enumerate(VARS)}


def _poly(rng):
    """A polynomial in VARS, as the summation engine's multipliers are:
    a Laurent with no negative power, variable INDEX[v] for v."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = [0] * len(VARS)
        for v in rng.sample(VARS, rng.randint(0, 2)):
            e[INDEX[v]] = rng.randint(1, 2)
        terms[tuple(e)] = _coeff(rng)
    return Laurent(len(VARS), terms)


def test_exact_normal_form():
    assert type(exact(3)) is int
    assert exact(Fraction(6, 3)) == 2 and type(exact(Fraction(6, 3))) is int
    assert type(exact(Fraction(1, 2))) is Fraction
    assert type(exact(np.int64(4))) is int
    assert type(exact(True)) is int
    with pytest.raises(TypeError):
        exact(0.5)
    with pytest.raises(TypeError):
        exact(np.float64(2.0))


def _substituted_value(f, value, pt):
    """Value at pt of f with variable 0 replaced by a number, in Fractions."""
    return sum(
        (Fraction(c) * value ** e[0] * pt[1] ** e[1]
         for e, c in f.terms.items()),
        Fraction(0),
    )


def test_laurent_arithmetic_matches_fractions():
    rng = random.Random(SEED)
    for _ in range(300):
        f, g = _laurent(rng), _laurent(rng)
        k = rng.randint(1, 7)
        pt = _point(rng, 2)
        fv, gv = f.evaluate(pt), g.evaluate(pt)
        mono = Laurent.monomial(
            _coeff(rng) or 3, (rng.randint(-2, 2), rng.randint(-2, 2))
        )
        mv = mono.evaluate(pt)
        # a polynomial may only replace a variable that has no negative power
        f_pos = Laurent(2, {(abs(e[0]), e[1]): c for e, c in f.terms.items()})
        cases = [
            (f + g, fv + gv),
            (f - g, fv - gv),
            (f * g, fv * gv),
            (-f, -fv),
            (f * Fraction(1, k), fv / k),
            (f * k + Fraction(1, k), fv * k + Fraction(1, k)),
            (f ** 2, fv ** 2),
            (mono.monomial_inverse(), 1 / mv),
            (mono ** -2, mv ** -2),
            (f.substitute(0, mono), _substituted_value(f, mv, pt)),
            (f_pos.substitute(0, g), _substituted_value(f_pos, gv, pt)),
        ]
        for got, want in cases:
            _assert_normal(got.terms.values())
            assert got.evaluate(pt) == want


@pytest.mark.parametrize("k,products", [(0, 0), (1, 1), (4, 3), (5, 4)])
def test_pow_squares_only_while_bits_are_left(monkeypatch, k, products):
    # square-and-multiply: one product per bit of k, one square per bit
    # below the top one, and no square after the last bit
    p = Laurent.var(0, 2) + Laurent.var(1, 2) + 1
    want = Laurent.const(1, 2)
    for _ in range(k):
        want = want * p
    calls = []
    mul = Laurent.__mul__

    def spy(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Laurent, "__mul__", spy)
    assert p ** k == want
    assert len(calls) == products


def _fraction_product(f, g):
    """The terms of f * g, summed in Fractions and then normalised."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {e: exact(c) for e, c in out.items() if c}


def test_products_keep_int_coefficients_ints():
    rng = random.Random(SEED + 3)
    for _ in range(300):
        f, g = _laurent(rng), _laurent(rng)
        got = f * g
        assert got.terms == _fraction_product(f, g)
        _assert_normal(got.terms.values())
        if all(type(c) is int for h in (f, g) for c in h.terms.values()):
            assert all(type(c) is int for c in got.terms.values())
    # Fractions that multiply or add up to integers leave ints, and terms
    # that cancel leave nothing
    half = Laurent(1, {(1,): Fraction(1, 2), (0,): Fraction(1, 2)})
    got = half * Laurent(1, {(1,): Fraction(1, 2), (0,): Fraction(-1, 2)})
    assert got.terms == {(2,): Fraction(1, 4), (0,): Fraction(-1, 4)}
    got = half * 2
    assert got.terms == {(1,): 1, (0,): 1}
    assert all(type(c) is int for c in got.terms.values())
    # big binomials stay exact ints
    p = (Laurent.var(0, 1) + 1) ** 300
    assert len(p.terms) == 301
    assert all(type(c) is int for c in p.terms.values())
    assert p.terms[(150,)] == math.comb(300, 150)


def test_linform_arithmetic_matches_fractions():
    rng = random.Random(SEED + 1)
    for _ in range(300):
        f, g = _linform(rng), _linform(rng)
        k = rng.randint(1, 7)
        var = rng.choice(VARS)
        env = dict(zip(VARS, _point(rng, len(VARS))))
        # results may share coefficient dicts with their operands, so no
        # operation may change an operand
        before = [(dict(h.coeffs), h.const) for h in (f, g)]
        # a ground form evaluates to its int constant; the reference
        # arithmetic must stay in Fractions
        fv, gv = Fraction(f.evaluate(env)), Fraction(g.evaluate(env))
        present = f + LinForm({var: 1})  # holds var unless it cancels
        pv = fv + env[var]
        cases = [
            (f + g, fv + gv),
            (f - g, fv - gv),
            (f - f, 0),
            (f + Fraction(1, k), fv + Fraction(1, k)),
            (f - k, fv - k),
            (f.scale(Fraction(1, k)), fv / k),
            (f.scale(-k), -k * fv),
            (f.scale(1), fv),
            (f.scale(0), 0),
            (f.drop(var), fv - f.coeff(var) * env[var]),
            (f.drop("absent"), fv),
            (present.drop(var), pv - present.coeff(var) * env[var]),
            (f.substitute(var, g), fv + f.coeff(var) * (gv - env[var])),
            (f.substitute("absent", g), fv),
            (present.substitute(var, g),
             pv + present.coeff(var) * (gv - env[var])),
            (present.substitute(var, f.scale(Fraction(1, k))),
             pv + present.coeff(var) * (fv / k - env[var])),
        ]
        for got, want in cases:
            _assert_normal(list(got.coeffs.values()) + [got.const])
            _assert_normal([got.coeff(var)])
            assert 0 not in got.coeffs.values()
            assert got.evaluate(env) == want
        assert [(h.coeffs, h.const) for h in (f, g)] == before


def test_poly_arithmetic_matches_fractions():
    rng = random.Random(SEED + 2)
    for _ in range(200):
        f, g = _poly(rng), _poly(rng)
        L = _linform(rng)
        k = rng.randint(1, 7)
        var = rng.choice(VARS)
        i = INDEX[var]
        pt = _point(rng, len(VARS))
        env = dict(zip(VARS, pt))
        fv, gv = f.evaluate(pt), g.evaluate(pt)
        sub_pt = list(pt)
        sub_pt[i] = L.evaluate(env)
        cases = [
            (f + g, fv + gv),
            (f * g, fv * gv),
            (f * Fraction(1, k), fv / k),
            (f ** 3, fv ** 3),
            (_as_laurent(L, INDEX), L.evaluate(env)),
            (f.substitute(i, _as_laurent(L, INDEX)), f.evaluate(sub_pt)),
        ]
        for got, want in cases:
            _assert_normal(got.terms.values())
            assert got.evaluate(pt) == want
        # the form's terms are built directly: the same as by the
        # normalising constructor
        assert _as_laurent(L, INDEX).terms == Laurent(len(VARS), {
            **{tuple(int(v == w) for w in VARS): c
               for v, c in L.coeffs.items()},
            (0,) * len(VARS): L.const,
        }).terms
        parts = f.split(i)
        for part in parts.values():
            _assert_normal(part.terms.values())
            assert all(e[i] == 0 for e in part.terms)
        assert sum(
            (p.evaluate(pt) * pt[i] ** e for e, p in parts.items()),
            Fraction(0),
        ) == fv
        # split recomposes f exactly
        assert sum(
            (p * Laurent.var(i, len(VARS), e) for e, p in parts.items()),
            Laurent(len(VARS)),
        ) == f
