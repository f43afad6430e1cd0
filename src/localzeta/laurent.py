"""Multivariate Laurent polynomials with exact coefficients.

This is the one polynomial type of the package: it holds the expansion of
every Igusa polynomial, and on the summation path the numerators of
rational functions and the multipliers that the Presburger engine creates
by telescoping and Faulhaber sums.

Terms are stored sparsely as ``{exponent tuple: coefficient}`` with zero
coefficients dropped, so equality is structural and exact.  Exponents may be
negative.

Coefficients are exact rationals kept in one normal form, produced by
``exact``: a Python ``int`` when the value is integral, a ``Fraction`` only
when it is not.  Almost every coefficient met in practice is an integer,
and int arithmetic is many times faster than Fraction arithmetic.  Since
``int`` and ``Fraction(n)`` compare and hash equal and print identically,
the representation never shows in a result.  Division must go through
``Fraction``: ``int / int`` would give a float, which ``exact`` refuses.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add


def exact(c):
    """c as an int when it is integral, else as a Fraction.

    Every exact container (Laurent polynomials, linear forms, bivariate
    rationals) stores its coefficients through this, so a
    Fraction with denominator 1 never survives.  Floats raise TypeError.
    """
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise TypeError(f"inexact coefficient {c!r}")
        c = Fraction(c)
    return int(c.numerator) if c.denominator == 1 else c


class Laurent:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        out = {}
        if terms:
            for e, c in terms.items():
                c = exact(c)
                if not c:
                    continue
                e = tuple(int(x) for x in e)
                if len(e) != nvars:
                    raise ValueError(f"exponent {e} has wrong arity")
                s = exact(out.get(e, 0) + c)
                if s:
                    out[e] = s
                else:
                    del out[e]
        self.terms = out

    # ------------------------------------------------------------------

    @classmethod
    def _one_term(cls, nvars, e, c):
        # one term needs none of the normalising constructor's merging
        r = cls.__new__(cls)
        r.nvars = nvars
        c = exact(c)
        r.terms = {e: c} if c else {}
        return r

    @classmethod
    def const(cls, c, nvars):
        return cls._one_term(nvars, (0,) * nvars, c)

    @classmethod
    def var(cls, i, nvars, power=1):
        e = [0] * nvars
        e[i] = int(power)
        return cls._one_term(nvars, tuple(e), 1)

    @classmethod
    def monomial(cls, c, exps):
        e = tuple(map(int, exps))
        return cls._one_term(len(e), e, c)

    def is_zero(self):
        return not self.terms

    # ------------------------------------------------------------------

    def _check(self, other):
        if isinstance(other, (int, Fraction)):
            other = Laurent.const(other, self.nvars)
        if other.nvars != self.nvars:
            raise ValueError("arity mismatch")
        return other

    def __add__(self, other):
        other = self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = exact(out.get(e, 0) + c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        r = Laurent(self.nvars)
        r.terms = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = Laurent(self.nvars)
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) + (-self)

    def __mul__(self, other):
        other = self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if type(s) is not int:
                    s = exact(s)
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        r = Laurent(self.nvars)
        r.terms = out
        return r

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            inv = self.monomial_inverse()
            if inv is None:
                raise ValueError("negative power of a non-monomial")
            return inv ** (-k)
        acc = Laurent.const(1, self.nvars)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            k >>= 1
            if k:
                base = base * base
        return acc

    def monomial_inverse(self):
        if len(self.terms) != 1:
            return None
        ((e, c),) = self.terms.items()
        return Laurent(self.nvars, {tuple(-x for x in e): Fraction(1) / c})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Laurent.const(other, self.nvars)
        return isinstance(other, Laurent) and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ------------------------------------------------------------------

    def evaluate(self, point):
        """Exact value at a point of Fractions (nonzero where needed)."""
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= Fraction(x) ** k
            total += v
        return total

    def split(self, i):
        """{power of variable i: the terms of that power, with variable i
        set to power 0}, each a Laurent of the same arity."""
        out = {}
        for e, c in self.terms.items():
            out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
        parts = {}
        for k, terms in out.items():
            parts[k] = r = Laurent(self.nvars)
            r.terms = terms
        return parts

    def substitute(self, i, value):
        """Replace variable i by a Laurent of the same arity, raising it
        to each power of variable i once."""
        value = self._check(value)
        if not any(e[i] for e in self.terms):
            return self
        out = Laurent(self.nvars)
        for k, piece in self.split(i).items():
            out = out + (piece * value**k if k else piece)
        return out

    # ------------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def format(self, names):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for nm, k in zip(names, e):
                if k == 1:
                    factors.append(nm)
                elif k:
                    factors.append(f"{nm}^{k}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        names = [f"v{i}" for i in range(self.nvars)]
        return f"Laurent({self.format(names)})"
