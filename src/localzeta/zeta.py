"""Truncated zeta series, bivariate rationals, and counting identities.

The enumeration side produces exact coefficient lists: c_m counts conjugacy
classes of the level-m quotient, b_m counts double cosets of two parabolic
subgroups.  The symbolic side is a numerator Laurent polynomial in
(X, Y) = (q, q^{-s}) over a factored denominator prod (1 - X^a Y^b)^mult;
expand() substitutes a numeric q and expands the geometric factors exactly,
which is how candidate closed forms are compared against enumeration.

The two consistency chains tie measure-theoretic counts to class counts:

* commutator depth: #{(x,y) in G_M^2 : w(x,y) >= m} * |G_m|^2 equals
  (commuting pairs of G_m) * |G_M|^2, and commuting pairs = c_m |G_m|;
* parabolic depth: #{pairs with min(lam_{S2}(y), lam_{S1}(xyx^-1)) >= m}
  scales the same way to e_m = #{(x,y): y in P2, xyx^-1 in P1}, which in
  turn equals b_m |P1| |P2|.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .cache import as_family, table_for
from .groups import (
    ENUM_CAP,
    PAIR_SCAN_CAP,
    Family,
    IdentityError,
    TooLarge,
    parabolic_depths,
)
from .laurent import Laurent, exact
from .rings import crt_split, make_ring


class ZetaError(ValueError):
    pass


# ----------------------------------------------------------------------
# series


class ZetaSeries:
    """Exact truncated series sum_m c_m Y^m at a fixed residue size q.

    Coefficients are Fractions (counting series have integer entries; the
    Igusa truncations carry honest measures).  provenance tags each
    coefficient as "enumerated" or "expanded-from-rational".
    """

    __slots__ = ("q", "coeffs", "provenance")

    def __init__(self, q, coeffs, provenance):
        self.q = int(q)
        self.coeffs = [Fraction(c) for c in coeffs]
        if isinstance(provenance, str):
            provenance = [provenance] * len(self.coeffs)
        self.provenance = list(provenance)
        if len(self.provenance) != len(self.coeffs):
            raise ZetaError("provenance length mismatch")

    @property
    def M(self):
        return len(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, ZetaSeries)
            and self.q == other.q
            and self.coeffs == other.coeffs
        )

    def __mul__(self, other):
        if not isinstance(other, ZetaSeries) or other.q != self.q:
            raise ZetaError("series product needs matching q")
        M = min(self.M, other.M)
        out = [Fraction(0)] * M
        for i, a in enumerate(self.coeffs[:M]):
            for j, b in enumerate(other.coeffs[: M - i]):
                out[i + j] += a * b
        return ZetaSeries(self.q, out, "expanded-from-rational")

    def __repr__(self):
        vals = ", ".join(str(c) for c in self.coeffs)
        return f"ZetaSeries(q={self.q}, [{vals}])"


# ----------------------------------------------------------------------
# bivariate rationals


def _factor_poly(a, b):
    return Laurent.const(1, 2) - Laurent.monomial(1, (a, b))


class BivariateRational:
    """numerator / (const * prod (1 - X^a Y^b)^mult), exactly.

    The denominator stays factored; no multivariate gcd is attempted.  The
    normal form clears rational content out of the numerator into the
    constant and keeps the constant positive, so equal construction paths
    give identical representations.
    """

    __slots__ = ("numerator", "factors", "const")

    def __init__(self, numerator, factors=(), const=1):
        if not isinstance(numerator, Laurent) or numerator.nvars != 2:
            raise ZetaError("numerator must be a Laurent in (X, Y)")
        fac = {}
        items = factors.items() if isinstance(factors, dict) else factors
        for (a, b), mult in items:
            if (a, b) == (0, 0):
                raise ZetaError("denominator factor (1 - X^0 Y^0) is zero")
            if mult:
                fac[(int(a), int(b))] = fac.get((int(a), int(b)), 0) + mult
        if any(m < 0 for m in fac.values()):
            raise ZetaError("negative factor multiplicity")
        const = exact(const)
        if const == 0:
            raise ZetaError("zero denominator constant")
        # normal form: integer numerator, positive integer constant and
        # content gcd 1, reached in integers (lcm-scale, then divide)
        terms = numerator.terms
        scale = math.lcm(const.denominator,
                         *(c.denominator for c in terms.values()))
        if scale != 1:
            terms = {e: exact(c * scale) for e, c in terms.items()}
            const = exact(const * scale)
        if type(const) is not int:
            raise ZetaError(f"denominator constant {const} is not integral")
        g = math.gcd(const, *terms.values())
        if const < 0:
            g = -g
        if g != 1:
            terms = {e: c // g for e, c in terms.items()}
            const //= g
        if terms is not numerator.terms:
            numerator = Laurent(2)
            numerator.terms = terms
        self.numerator = numerator
        self.factors = tuple(sorted(fac.items()))
        self.const = const

    @classmethod
    def one(cls):
        return cls(Laurent.const(1, 2))

    def is_zero(self):
        return self.numerator.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, BivariateRational)
            and self.numerator == other.numerator
            and self.factors == other.factors
            and self.const == other.const
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Laurent)):
            num = self.numerator * other
            return BivariateRational(num, self.factors, self.const)
        fac = dict(self.factors)
        for key, mult in other.factors:
            fac[key] = fac.get(key, 0) + mult
        return BivariateRational(
            self.numerator * other.numerator, fac, self.const * other.const
        )

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, BivariateRational):
            raise ZetaError("can only add BivariateRationals")
        fac1, fac2 = dict(self.factors), dict(other.factors)
        union = {
            key: max(fac1.get(key, 0), fac2.get(key, 0))
            for key in set(fac1) | set(fac2)
        }
        num1 = self.numerator * other.const
        num2 = other.numerator * self.const
        for key, mult in union.items():
            up1 = mult - fac1.get(key, 0)
            up2 = mult - fac2.get(key, 0)
            if up1:
                num1 = num1 * _factor_poly(*key) ** up1
            if up2:
                num2 = num2 * _factor_poly(*key) ** up2
        return BivariateRational(num1 + num2, union, self.const * other.const)

    def __neg__(self):
        return BivariateRational(-self.numerator, self.factors, self.const)

    def __sub__(self, other):
        return self + (-other)

    def evaluate(self, q, y):
        """Exact value at X = q, Y = y (Fractions)."""
        val = self.numerator.evaluate([Fraction(q), Fraction(y)])
        den = Fraction(self.const)
        for (a, b), mult in self.factors:
            base = 1 - Fraction(q) ** a * Fraction(y) ** b
            if base == 0:
                raise ZetaError(f"pole at factor (1 - X^{a} Y^{b})")
            den *= base**mult
        return val / den

    def __repr__(self):
        den = " ".join(
            f"(1 - X^{a} Y^{b})^{m}" for (a, b), m in self.factors
        )
        c = f"{self.const} " if self.const != 1 else ""
        return f"({self.numerator.format(('X', 'Y'))}) / {c}{den or '1'}"


def expand(rational: BivariateRational, q, M) -> ZetaSeries:
    """Exact coefficients of Y^0..Y^{M-1} after substituting X = q.

    The work is in ints over one power of q.  The numerator is scaled by
    q^S, so that every coefficient is an int over q^S, and kept in a list
    indexed by the Y-exponent, from its lowest (negative) power up to
    Y^{M-1}.  Each factor (1 - X^a Y^b)^mult with b >= 1 is divided in
    by mult passes of the recurrence out[e] += q^a * out[e - b].  For
    a < 0 a pass first raises S by (-a) * floor((len - 1) / b), which
    makes each of its divisions by q^(-a) exact.  Factors with b = 0 are
    constants at the substitution (a pole there is an error).  One
    Fraction is built per coefficient, at the end.  A surviving negative
    power of Y is an error: the result is required to be an honest power
    series.
    """
    if q < 2:
        raise ZetaError("expansion needs q >= 2")
    terms = rational.numerator.terms
    # every Y-exponent above M - 1 drops out once a factor is expanded;
    # without one, only the negative powers matter beside Y^0..Y^{M-1}
    top = M - 1
    if not any(b >= 1 for (_, b), _ in rational.factors):
        top = max(top, -1)
    lo = min([0] + [ey for _, ey in terms])
    S = max([0] + [-ex for ex, _ in terms])
    out = [0] * max(top - lo + 1, 0)
    for (ex, ey), c in terms.items():
        if ey <= top:
            out[ey - lo] += c * q ** (ex + S)
    const = Fraction(rational.const)
    for (a, b), mult in rational.factors:
        if b < 0:
            raise ZetaError("factor with negative Y power is not expandable")
        if b == 0:
            base = 1 - Fraction(q) ** a
            if base == 0:
                raise ZetaError(f"pole: (1 - X^{a}) vanishes at q = {q}")
            const *= base**mult
            continue
        for _ in range(mult):
            if a >= 0:
                ratio = q**a
                for e in range(b, len(out)):
                    out[e] += ratio * out[e - b]
                continue
            # after the lift, out[e - b] sums q^(-a*(K - k)) times the
            # input at e - b - k*b over k <= K - 1: a multiple of q^(-a)
            K = max(len(out) - 1, 0) // b
            lift, step = q ** (-a * K), q**-a
            out = [v * lift for v in out]
            S += -a * K
            for e in range(b, len(out)):
                quo, rem = divmod(out[e - b], step)
                if rem:
                    raise ZetaError(
                        f"inexact division by q^{-a} at Y^{e - b + lo}")
                out[e] += quo
    bad = [e + lo for e, v in enumerate(out[:-lo]) if v]
    if bad:
        raise ZetaError(f"expansion has negative Y powers: {bad}")
    den = const.numerator * q**S
    coeffs = [Fraction(out[n - lo] * const.denominator, den) for n in range(M)]
    return ZetaSeries(q, coeffs, "expanded-from-rational")


# ----------------------------------------------------------------------
# library of closed forms


def _X(power=1):
    return Laurent.var(0, 2, power)


def _Y(power=1):
    return Laurent.var(1, 2, power)


def heisenberg_cc_form() -> BivariateRational:
    """(1 - Y) / ((1 - XY)(1 - X^2 Y)).

    Matches the enumerated Heisenberg class-counting series at every level
    tested: coefficients 1, q^2 + q - 1, q^4 + q^3 - q, ...
    """
    return BivariateRational(
        Laurent.const(1, 2) - _Y(), {(1, 1): 1, (2, 1): 1}
    )


def heisenberg_cc_variant_form() -> BivariateRational:
    """(1 + Y - XY - X^2 Y + X^3 Y) / ((1 - XY)(1 - X^2 Y)(1 - X^3 Y)).

    A circulated closed-form variant kept for mismatch reporting: its
    Y-linear coefficient is 1 + 2 q^3, which disagrees with the enumerated
    q^2 + q - 1, so verify() documents the discrepancy instead of using it.
    """
    num = (
        Laurent.const(1, 2)
        + _Y()
        - _X() * _Y()
        - _X(2) * _Y()
        + _X(3) * _Y()
    )
    return BivariateRational(num, {(1, 1): 1, (2, 1): 1, (3, 1): 1})


def igusa_two_by_two_form() -> BivariateRational:
    """(1 - X^-1)(1 - X^-2) / ((1 - X^-1 Y)(1 - X^-2 Y)).

    Level-set generating function of the 2x2 determinant integrand in four
    variables; validated against exhaustive zero counts.
    """
    num = (Laurent.const(1, 2) - _X(-1)) * (Laurent.const(1, 2) - _X(-2))
    return BivariateRational(num, {(-1, 1): 1, (-2, 1): 1})


def igusa_coordinate_form() -> BivariateRational:
    """(1 - X^-1) / (1 - X^-1 Y): the one-variable integrand f = x."""
    return BivariateRational(
        Laurent.const(1, 2) - _X(-1), {(-1, 1): 1}
    )


def igusa_determinant_form(n) -> BivariateRational:
    """prod_{i=1..n} (1 - X^-i) / (1 - X^-i Y): the n x n determinant.

    Igusa's integral of |det|^s over the n^2 entries; n = 1 and n = 2 are
    igusa_coordinate_form and igusa_two_by_two_form.
    """
    num = Laurent.const(1, 2)
    for i in range(1, n + 1):
        num = num * (Laurent.const(1, 2) - _X(-i))
    return BivariateRational(num, {(-i, 1): 1 for i in range(1, n + 1)})


# ----------------------------------------------------------------------
# enumerated series


def _levels(kind, p, f, M):
    return [make_ring(kind, p=p, f=f, m=m) for m in range(1, M)]


def cc_zeta(family, kind, p, f, M, cap=ENUM_CAP) -> ZetaSeries:
    """Class-counting series: c_m = #classes of the level-m quotient."""
    if M < 1:
        raise ZetaError("M must be at least 1")
    fam = as_family(family)
    coeffs = [Fraction(1)]
    for ring in _levels(kind, p, f, M):
        c = table_for(fam, ring, cap).class_count()
        if c <= 0:
            raise ZetaError("class count must be positive")
        coeffs.append(Fraction(c))
    return ZetaSeries(p**f, coeffs, "enumerated")


def sub_family(system, text) -> Family:
    """Subgroup literal: 'all', '-' (Borel), 'a1,a2', or 'roots:...'."""
    text = text.strip()
    if text == "all":
        return Family(f"chevalley:{system}")
    if text.startswith("roots:"):
        return Family(f"rootset:{system}:{text[len('roots:'):]}")
    return Family(f"parabolic:{system}:{text or '-'}")


def hecke_zeta(system, s1, s2, kind, p, f, M, cap=ENUM_CAP) -> ZetaSeries:
    """Double-coset counting series for two parabolic-type subgroups,
    each the index set of G its generators reach, so each level enumerates
    G alone; the pair law e = b |Q1| |Q2| is checked at every level."""
    if M < 1:
        raise ZetaError("M must be at least 1")
    fam = Family(f"chevalley:{system}")
    fam1, fam2 = sub_family(system, s1), sub_family(system, s2)
    coeffs = [Fraction(1)]
    for ring in _levels(kind, p, f, M):
        G = table_for(fam, ring, cap)
        b, e, n1, n2 = G.double_coset_data(fam1.generators(ring),
                                           fam2.generators(ring))
        if e != b * n1 * n2:
            raise IdentityError(
                f"double-coset/pair-count identity fails at level {ring.m}"
            )
        coeffs.append(Fraction(b))
    return ZetaSeries(p**f, coeffs, "enumerated")


# ----------------------------------------------------------------------
# consistency chains


def _check_pair_scan(order):
    """TooLarge when a pair scan over order elements passes its cap; a
    None order (no order law) is left to the scan itself."""
    if order is not None and order > PAIR_SCAN_CAP:
        raise TooLarge(
            f"pair scan over {order} elements exceeds cap {PAIR_SCAN_CAP}"
        )


def prop62_consistency(family, kind, p, f, M):
    """Ties the commutator-depth level sets to class counts, exactly.

    For each 1 <= m < M: commuting pairs e_m of the level-m quotient must
    equal c_m |G_m| (class-count identity), and the depth histogram of the
    top-level table must satisfy
    #{(x,y) in G_top^2 : w(x,y) >= m} * |G_m|^2 = e_m * |G_top|^2,
    which is the statement that both sides compute the measure of the
    depth-m pair set.
    """
    fam = as_family(family)
    rings = _levels(kind, p, f, M)
    _check_pair_scan(fam.predicted_order(rings[-1]))
    top = table_for(fam, rings[-1])
    hist = top.pair_depth_counts()
    top_sq = top.size**2
    levels = [
        {
            "m": 0,
            "order": 1,
            "classes": 1,
            "commuting_pairs": 1,
            "depth_pairs": int(hist[0]),
            "burnside_ok": True,
            "measure_ok": int(hist[0]) == top_sq,
        }
    ]
    for ring in rings:
        G = table_for(fam, ring)
        c = G.class_count()
        e = G.commuting_pairs()
        m = ring.m
        levels.append(
            {
                "m": m,
                "order": G.size,
                "classes": c,
                "commuting_pairs": e,
                "depth_pairs": int(hist[m]),
                "burnside_ok": e == c * G.size,
                "measure_ok": int(hist[m]) * G.size**2 == e * top_sq,
            }
        )
    return {
        "family": fam.text,
        "ring_kind": kind,
        "p": p,
        "f": f,
        "q": p**f,
        "M": M,
        "levels": levels,
        "ok": all(l["burnside_ok"] and l["measure_ok"] for l in levels),
    }


def prop73_consistency(system, s1, s2, kind, p, f, M):
    """Parabolic-depth chain: pair-depth level sets match b_m |P1| |P2|.

    P1 and P2 are index sets of G (``double_coset_data``).  Also checks
    the order law |P(level m)| = q^{(m-1) dim P} |P(F_q)|, dim P = rank +
    #roots, against level-1 subgroup tables enumerated on their own;
    failures land in the report, nothing is raised.
    """
    q = p**f
    fam = Family(f"chevalley:{system}")
    fam1, fam2 = sub_family(system, s1), sub_family(system, s2)
    rings = _levels(kind, p, f, M)
    _check_pair_scan(fam.predicted_order(rings[-1]))
    tables = []
    levels = []
    deviations = []
    for ring in rings:
        m = ring.m
        G = table_for(fam, ring)
        tables.append(G)
        b, e, n1, n2 = G.double_coset_data(fam1.generators(ring),
                                           fam2.generators(ring))
        entry = {
            "m": m,
            "order": G.size,
            "b_m": b,
            "e_m": e,
            "p1_order": n1,
            "p2_order": n2,
            "chain_ok": e == b * n1 * n2,
        }
        for tag, size, subfam in (("p1", n1, fam1), ("p2", n2, fam2)):
            want = q ** ((m - 1) * subfam.dim_scheme) \
                * table_for(subfam, rings[0]).size
            entry[f"{tag}_order_law_ok"] = size == want
            if size != want:
                deviations.append(
                    f"order law fails for {subfam.text} at level {m}: "
                    f"{size} != {want}"
                )
        levels.append(entry)

    top = tables[-1]
    _check_pair_scan(top.size)
    lam1 = parabolic_depths(tables, [fam1.generators(r) for r in rings])
    lam2 = parabolic_depths(tables, [fam2.generators(r) for r in rings])
    mtop = rings[-1].m
    hist = np.zeros(mtop + 1, dtype=np.int64)
    inv_mats = top.mats[top.inv]
    for i in range(top.size):
        x, xinv = top.mats[i], inv_mats[i]
        conj = top.ring.mat_mul(top.ring.mat_mul(x, top.mats), xinv)
        perm = top.lookup_batch(conj)
        w = np.minimum(lam2, lam1[perm])
        hist += np.bincount(w, minlength=mtop + 1)
    pairs_ge = np.cumsum(hist[::-1])[::-1]
    top_sq = top.size**2
    measure = [int(pairs_ge[0]) == top_sq]
    for entry in levels:
        m = entry["m"]
        entry["depth_pairs"] = int(pairs_ge[m])
        m_ok = int(pairs_ge[m]) * entry["order"] ** 2 == entry["e_m"] * top_sq
        entry["measure_ok"] = m_ok
        measure.append(m_ok)

    k_g = Fraction(table_for(fam, rings[0]).size, q**fam.dim_scheme)
    k_1 = Fraction(table_for(fam1, rings[0]).size, q**fam1.dim_scheme)
    k_2 = Fraction(table_for(fam2, rings[0]).size, q**fam2.dim_scheme)
    return {
        "system": system,
        "s1": s1,
        "s2": s2,
        "ring_kind": kind,
        "p": p,
        "f": f,
        "q": q,
        "M": M,
        "alpha": k_g**2 / (k_1 * k_2),
        "levels": levels,
        "deviations": deviations,
        "ok": all(measure)
        and all(
            l["chain_ok"] and l["p1_order_law_ok"] and l["p2_order_law_ok"]
            for l in levels
        ),
    }


# ----------------------------------------------------------------------
# transfer and Euler product


def transfer_report(family, primes, f, M, s1=None, s2=None, cap=ENUM_CAP):
    """Side-by-side coefficients over both ring kinds at identical q."""
    fam = as_family(family)
    mode = "cc" if s1 is None else "hecke"
    if mode == "hecke" and not fam.text.startswith("chevalley:"):
        raise ZetaError("hecke transfer needs a chevalley family")
    rows = []
    for p in primes:
        if mode == "cc":
            a = cc_zeta(fam, "zq", p, f, M, cap)
            b = cc_zeta(fam, "fqt", p, f, M, cap)
        else:
            system = fam.text.split(":")[1]
            a = hecke_zeta(system, s1, s2, "zq", p, f, M, cap)
            b = hecke_zeta(system, s1, s2, "fqt", p, f, M, cap)
        flags = [x == y for x, y in zip(a.coeffs, b.coeffs)]
        rows.append(
            {
                "p": p,
                "q": p**f,
                "zq": [int(c) for c in a.coeffs],
                "fqt": [int(c) for c in b.coeffs],
                "equal_per_level": flags,
                "equal": all(flags),
            }
        )
    return {
        "family": fam.text,
        "mode": mode,
        "s1": s1,
        "s2": s2,
        "f": f,
        "M": M,
        "rows": rows,
        "ok": all(r["equal"] for r in rows),
    }


def euler_multiplicativity(family, n, cap=ENUM_CAP):
    """cc over Z/n must equal the product of cc over its prime-power parts."""
    if n < 2:
        raise ZetaError("modulus must be at least 2")
    fam = as_family(family)
    total = table_for(fam, make_ring("zn", n=n), cap).class_count()
    parts = []
    product = 1
    for pk in crt_split(n):
        cc = table_for(fam, make_ring("zn", n=pk), cap).class_count()
        parts.append({"modulus": pk, "cc": cc})
        product *= cc
    return {
        "family": fam.text,
        "n": n,
        "cc": total,
        "parts": parts,
        "product": product,
        "ok": total == product,
    }
