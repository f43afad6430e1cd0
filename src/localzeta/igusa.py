"""Exhaustive level-set integration of polynomial absolute values.

From the zero counts N_n of an integer polynomial at each truncation
level the measures mu(v(f) = n) are exact rationals, and their generating
series in t = q^{-s} is the truncated integral of |f|^s over the
d-dimensional unit polydisc.  The counts are exhaustive, and every level
is counted in the top ring R_m alone.  A point of level k is its
canonical digit lift, the index of R_m whose digit rows k and above are
zero.  Truncation is a ring homomorphism, so f vanishes at level k exactly
where the valuation of f at that lift is at least k, and every zero at
level n + 1 lies over a zero at level n.  For n >= 1 the stationary phase
identity

    f(y + pi^n t) = f(y) + pi^n grad f(y mod pi) . t   (mod pi^(n+1))

splits the zeros by the formal gradient mod pi.  A smooth zero (gradient
nonzero) has exactly q^(d-1) zero lifts, all smooth, so it is counted and
never evaluated again.  A singular zero (gradient zero) has all q^d of its
lifts as zeros, or none, and one evaluation decides which.  Its lifts add
pi^n u to each coordinate, u in the residue field: a digit step, one of q
indices per level, added to an index with no carry.  So
level_set_measures scans the q^d points of level 1 once and then
evaluates one point per singular zero of each level: the work is the sum
of the singular zeros, not of N_n * q^d.  zero_count, the plain scan of
the whole grid of one ring, run on each truncation, is the oracle for
those counts.  The budget applies to the points evaluated: the level-1
grid is checked before the scan, and a bound on all later evaluations
before any lift.  f is parsed into its expansion, a Laurent, and the
gradient is read off its terms; the arithmetic at the points stays in the
ring's lookup tables, so the numbers are an independent check on any
closed form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .groups import IdentityError, TooLarge
from .laurent import Laurent
from .rings import Ring
from .zeta import ZetaSeries

GRID_CAP = 10**8
EXPANSION_CAP = 5 * 10**5  # pairs of terms in one product while parsing
CHUNK = 1 << 18


class IgusaError(ValueError):
    pass


# ----------------------------------------------------------------------
# polynomials


class Poly(NamedTuple):
    """An integer polynomial as parsed: terms is its expansion, a Laurent
    with non-negative exponents in vars, the sorted identifiers of text.
    vars is read from the tokens, so x in x - x still counts."""

    terms: Laurent
    vars: tuple
    text: str


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j]))
            i = j
        elif c in "+-*^()":
            tokens.append((c, c))
            i += 1
        else:
            raise IgusaError(f"bad character {c!r} in polynomial")
    tokens.append(("end", None))
    return tokens


def _product(a, b):
    """a * b, refused before it is formed if it costs over EXPANSION_CAP:
    its pairs of terms, each counted once per 4096-bit block of the largest
    coefficient on either side, so that 7^100000000 is refused as well."""
    pairs = len(a.terms) * len(b.terms)
    for p in (a, b):
        pairs *= 1 + max(map(int.bit_length, p.terms.values()),
                         default=0) // 4096
    if pairs > EXPANSION_CAP:
        raise TooLarge(f"expanding the polynomial would multiply {pairs} "
                       f"pairs of terms, over budget {EXPANSION_CAP}")
    return a * b


def _power(base, k):
    # square-and-multiply through _product, squaring only while bits are left
    out = Laurent.const(1, base.nvars)
    while k:
        if k & 1:
            out = _product(out, base)
        k >>= 1
        if k:
            base = _product(base, base)
    return out


def parse_poly(text) -> Poly:
    """Grammar: integer literals, identifiers, + - * ^ and parentheses.
    The polynomial is expanded as it is parsed, each product by _product."""
    if isinstance(text, Poly):
        return text
    tokens = _tokenize(text)
    names = tuple(sorted({v for k, v in tokens if k == "ident"}))
    d = len(names)
    variables = {name: Laurent.var(i, d) for i, name in enumerate(names)}
    pos = [0]

    def peek():
        return tokens[pos[0]][0]

    def take(kind):
        tok = tokens[pos[0]]
        if tok[0] != kind:
            raise IgusaError(f"expected {kind}, found {tok[0]} in {text!r}")
        pos[0] += 1
        return tok[1]

    def atom():
        k = peek()
        if k == "int":
            return Laurent.const(take("int"), d)
        if k == "ident":
            return variables[take("ident")]
        if k == "(":
            take("(")
            node = expr()
            take(")")
            return node
        raise IgusaError(f"unexpected {k} in {text!r}")

    def power():
        # ^ binds tighter than unary minus and is right-associative
        base = atom()
        if peek() == "^":
            take("^")
            if peek() == "int":
                return _power(base, take("int"))
            raise IgusaError("exponent must be a nonnegative integer")
        return base

    def factor():
        if peek() == "-":
            take("-")
            return -factor()
        return power()

    def term():
        node = factor()
        while peek() == "*":
            take("*")
            node = _product(node, factor())
        return node

    def expr():
        node = term()
        while peek() in ("+", "-"):
            if take(peek()) == "+":
                node = node + term()
            else:
                node = node - term()
        return node

    root = expr()
    take("end")
    return Poly(root, names, text if isinstance(text, str) else str(text))


def _partials(f):
    """The formal partials of the Laurent f, one per variable: the term
    c x^e of f gives c e_i x^(e - 1_i) in the i-th, where e_i > 0."""
    return [
        Laurent(f.nvars, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                          for e, c in f.terms.items() if e[i]})
        for i in range(f.nvars)
    ]


def _evaluate(f, ring: Ring, points):
    """f at each column of the (d, n) index array points, as ring indices,
    monomial by monomial; each power by square-and-multiply inside it."""
    out = None
    for e, c in f.terms.items():
        c = ring.from_int(c)
        if c == ring.zero:
            continue  # most terms of (x + 1)^1000 over Z/8, say
        term = None
        for x, k in zip(points, e):
            while k:
                if k & 1:
                    term = x if term is None else ring.MUL[term, x]
                k >>= 1
                if k:
                    x = ring.MUL[x, x]
        if term is None:
            term = np.full(points.shape[1], c, dtype=np.int32)
        elif c != ring.one:
            term = ring.MUL[c].take(term)
        out = term if out is None else ring.ADD[out, term]
    if out is None:
        return np.full(points.shape[1], ring.zero, dtype=np.int32)
    return out


def zero_count(poly, ring: Ring) -> int:
    """N = #{x in ring^d : f(x) = 0} over the d variables f mentions, by
    exhaustive evaluation; the budget is checked against that grid."""
    poly = parse_poly(poly)
    d = len(poly.vars)
    grid = ring.size**d
    if grid > GRID_CAP:
        raise TooLarge(f"grid of {grid} points exceeds budget {GRID_CAP}")
    total = 0
    for lo in range(0, grid, CHUNK):
        points = _digit_strings(ring.size, d, lo, min(grid, lo + CHUNK))
        total += int(np.count_nonzero(
            _evaluate(poly.terms, ring, points) == ring.zero))
    return total


def _vanishes(f, ring: Ring, points, k):
    """Boolean mask: f = 0 mod pi^k at each column of the (d, n) array
    points.  Truncation to level k is a ring homomorphism, so this is f = 0
    at the level-k truncation of the points."""
    return ring.VAL[_evaluate(f, ring, points)] >= k


def _residue_digits(ring: Ring):
    """(q, f) array: row u holds the F_p digits of the residue u, in the
    digit order of the level-1 ring."""
    return np.arange(ring.q)[:, None] // ring.p ** np.arange(ring.f) % ring.p


def _digit_steps(ring: Ring):
    """(m, q) array: entry (k, u) is the index of pi^k u, u running
    through the residue field.

    A point of level k is its canonical lift to ring, the index whose
    digit rows k and above are zero, so adding a row-k step to it is an
    index sum with no carry.  The entries take the smallest unsigned dtype
    that holds an index of ring, which keeps the lifted zeros small.
    """
    steps = ring.W @ _residue_digits(ring).T
    return steps.astype(np.min_scalar_type(ring.size - 1))


def _check_steps(ring: Ring, steps):
    """steps, once each entry (k, u) reads back through ring.DIGITS as the
    digits of u in row k and zero in every other row."""
    eye = np.eye(ring.m, dtype=bool)[:, None, :, None]
    if not np.array_equal(ring.DIGITS[steps],
                          eye * _residue_digits(ring)[:, None, :]):
        raise IdentityError(
            f"a digit step of {ring.literal} does not read back to its "
            f"residue in its own digit row"
        )
    return steps


def _digit_strings(q, d, lo, hi):
    """(d, hi - lo) array: row j holds base-q digit j of lo..hi-1."""
    powers = q ** np.arange(d, dtype=np.int64)
    return np.arange(lo, hi, dtype=np.int64) // powers[:, None] % q


def _lifts(step, zeros, q, d):
    """The q^d lifts of the columns of zeros, in pieces of at most CHUNK.

    zeros is a (d, n) array of level-k points and step the row k of
    _digit_steps.  Lift (column r, digit string s) has coordinate j equal
    to zeros[j, r] + step[digits[j, s]]; each piece is a (d, width) array
    of level-(k + 1) points, its lifts taken column by column.
    """
    fibre = q**d
    rows = max(1, CHUNK // fibre)  # zeros per piece
    width = min(fibre, CHUNK)  # digit strings per piece
    for lo in range(0, fibre, width):
        digits = step[_digit_strings(q, d, lo, min(fibre, lo + width))]
        for r in range(0, zeros.shape[1], rows):
            block = zeros[:, r:r + rows]
            # (d, rows * width), not (d, -1): with d = 0 there is no -1
            yield (block[:, :, None] + digits[:, None, :]).reshape(
                d, block.shape[1] * digits.shape[1])


def _level_one_zeros(poly, ring: Ring, step):
    """(smooth, singular): the zeros of f on the residue grid F_q^d.

    step is the row 0 of _digit_steps(ring).  smooth is the number of
    zeros where the formal gradient of f is nonzero mod pi; singular is a
    (d, s) array of the zeros where it vanishes, as their canonical lifts
    to ring.  The grid is the set of lifts of the level-0 point, scanned in
    pieces of at most CHUNK points.
    """
    d = len(poly.vars)
    partials = _partials(poly.terms)
    origin = np.zeros((d, 1), dtype=step.dtype)
    smooth = 0
    singular = [origin[:, :0]]
    for grid in _lifts(step, origin, ring.q, d):
        zeros = grid[:, _vanishes(poly.terms, ring, grid, 1)]
        flat = np.ones(zeros.shape[1], dtype=bool)
        for partial in partials:
            flat &= _vanishes(partial, ring, zeros, 1)
        smooth += int(np.count_nonzero(~flat))
        singular.append(zeros[:, flat])
    return smooth, np.concatenate(singular, axis=1)


def _stationary_zero_counts(poly, ring: Ring):
    """N_k = #{x in R_k^d : f(x) = 0} for 1 <= k <= m, the d variables f
    mentions and R_k the level-k truncation of ring.

    Every point is its canonical lift to ring, and f vanishes at level k
    where its value in ring has valuation at least k.  For k >= 1, a
    level-k zero x with lift y and any t in R^d satisfy

        f(y + pi^k t) = f(y) + pi^k grad f(x mod pi) . t   (mod pi^(k+1)),

    so the zeros fall in two kinds, fixed by their image on level 1.  A
    smooth zero (gradient nonzero mod pi) has exactly q^(d-1) zero lifts,
    all smooth again: its subtree is counted without evaluation.  A
    singular zero (gradient zero mod pi) has all q^d of its lifts as
    zeros, singular again, or none: f at x itself, the lift with digit row
    k zero, decides which.  Only singular zeros are lifted, by the digit
    steps of row k, depth first in pieces of at most CHUNK; the deepest
    level keeps only their number.

    The budget caps the points evaluated: q^d for the level-1 scan,
    checked before it, and q^d + s_1 * sum_{j=0}^{m-2} q^(jd) in all,
    with s_1 the singular level-1 zeros, checked before any lift.
    """
    q, d, m = ring.q, len(poly.vars), ring.m
    fibre = q**d
    if fibre > GRID_CAP:
        raise TooLarge(f"grid of {fibre} points exceeds budget {GRID_CAP}")
    steps = _check_steps(ring, _digit_steps(ring))
    smooth, singular = _level_one_zeros(poly, ring, steps[0])
    bound = fibre + singular.shape[1] * sum(fibre**j for j in range(m - 1))
    if bound > GRID_CAP:
        raise TooLarge(
            f"lifting evaluates up to {bound} points, over budget {GRID_CAP}"
        )
    # without variables there are no smooth zeros, so q^(d-1) never arises
    counts = [smooth * q ** (k * max(d - 1, 0)) for k in range(m)]
    counts[0] += singular.shape[1]

    def lift(k, zeros):
        # zeros: singular zeros of level k; a passing one's lifts add row k
        for r in range(0, zeros.shape[1], CHUNK):
            piece = zeros[:, r:r + CHUNK]
            passed = piece[:, _vanishes(poly.terms, ring, piece, k + 1)]
            counts[k] += passed.shape[1] * fibre
            if k + 1 < m:
                for lifts in _lifts(steps[k], passed, q, d):
                    lift(k + 1, lifts)

    if m > 1:
        lift(1, singular)
    return counts


def level_set_measures(poly, ring: Ring):
    """Exact measures mu(v(f) = n) for 0 <= n < m, plus the tail mass.

    Uses mu(v >= n) = q^{-nd} N_n with N_n the zero count at level n over
    the d variables f mentions, so the measures and the tail q^{-md} N_m
    partition 1 exactly.  The N_n come from the stationary-phase count,
    which runs in ring alone and lifts only the singular zeros, by digit
    steps; zero_count on each truncation of ring is the brute-force oracle
    for them.  The budget caps the points evaluated.
    """
    poly = parse_poly(poly)
    if ring.VAL is None:
        raise IgusaError(f"no valuation on {ring.literal}")
    d, q, m = len(poly.vars), ring.q, ring.m
    counts = [1]  # N_0: the empty congruence
    counts += _stationary_zero_counts(poly, ring)
    mass = [Fraction(n, q ** (k * d)) for k, n in enumerate(counts)]
    return {
        "poly": poly.text,
        "ring": ring.literal,
        "arity": d,
        "zero_counts": counts[1:],
        "measures": [a - b for a, b in zip(mass, mass[1:])],  # mu(v = n)
        "tail": mass[m],
    }


def igusa_truncation(poly, ring: Ring):
    """(series, tail): sum_{n<m} mu(v=n) t^n and the q^{-md} N_m bound.

    The series coefficients are honest measures; adding the tail to the
    coefficient sum gives exactly 1, and any closed form claiming the
    integral must match the coefficients after expand().
    """
    data = level_set_measures(poly, ring)
    series = ZetaSeries(ring.q, data["measures"], "enumerated")
    return series, data["tail"]
