"""Exhaustive level-set integration of polynomial absolute values.

From the zero counts N_n of an integer polynomial at each truncation
level the measures mu(v(f) = n) are exact rationals, and their generating
series in t = q^{-s} is the truncated integral of |f|^s over the
d-dimensional unit polydisc.  The counts are exhaustive.  Every zero at
level n + 1 lies over a zero at level n, because truncation is a ring
homomorphism, and for n >= 1 the stationary phase identity

    f(y + pi^n t) = f(y) + pi^n grad f(y mod pi) . t   (mod pi^(n+1))

splits the zeros by the formal gradient mod pi.  A smooth zero (gradient
nonzero) has exactly q^(d-1) zero lifts, all smooth, so it is counted and
never evaluated again.  A singular zero (gradient zero) has all q^d of its
lifts as zeros, or none, and one evaluation decides which.  So
level_set_measures scans the q^d points of level 1 once and then
evaluates one point per singular zero of each level: the work is the sum
of the singular zeros, not of N_n * q^d.  zero_count, the plain scan of
the whole grid, is the oracle for those counts.  The budget applies to
the points evaluated: the level-1 grid is checked before the scan, and a
bound on all later evaluations before any lift.  The arithmetic stays in
lookup tables, so the numbers are an independent check on any closed
form.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .groups import IdentityError, TooLarge
from .rings import Ring
from .zeta import ZetaSeries

GRID_CAP = 10**8
CHUNK = 1 << 18


class IgusaError(ValueError):
    pass


# ----------------------------------------------------------------------
# polynomial expressions


class Poly:
    """Expression tree over named variables with integer constants."""

    __slots__ = ("ast", "vars", "text")

    def __init__(self, ast, text):
        self.ast = ast
        self.text = text
        names = set()
        _collect_vars(ast, names)
        self.vars = tuple(sorted(names))

    def __repr__(self):
        return f"Poly({self.text!r}, vars={self.vars})"


def _collect_vars(ast, out):
    op = ast[0]
    if op == "var":
        out.add(ast[1])
    elif op in ("add", "sub", "mul"):
        _collect_vars(ast[1], out)
        _collect_vars(ast[2], out)
    elif op in ("neg",):
        _collect_vars(ast[1], out)
    elif op == "pow":
        _collect_vars(ast[1], out)


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


def parse_poly(text) -> Poly:
    """Grammar: integer literals, identifiers, + - * ^ and parentheses."""
    if isinstance(text, Poly):
        return text
    tokens = _tokenize(text)
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
            return ("const", take("int"))
        if k == "ident":
            return ("var", take("ident"))
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
                return ("pow", base, take("int"))
            raise IgusaError("exponent must be a nonnegative integer")
        return base

    def factor():
        if peek() == "-":
            take("-")
            return ("neg", factor())
        return power()

    def term():
        node = factor()
        while peek() == "*":
            take("*")
            node = ("mul", node, factor())
        return node

    def expr():
        node = term()
        while peek() in ("+", "-"):
            if take(peek()) == "+":
                node = ("add", node, term())
            else:
                node = ("sub", node, term())
        return node

    root = expr()
    take("end")
    return Poly(root, text if isinstance(text, str) else str(text))


_ZERO = ("const", 0)
_ONE = ("const", 1)


def _neg(a):
    return _ZERO if a == _ZERO else ("neg", a)


def _add(a, b):
    if a == _ZERO:
        return b
    return a if b == _ZERO else ("add", a, b)


def _sub(a, b):
    if b == _ZERO:
        return a
    return _neg(b) if a == _ZERO else ("sub", a, b)


def _mul(a, b):
    if _ZERO in (a, b):
        return _ZERO
    if a == _ONE:
        return b
    return a if b == _ONE else ("mul", a, b)


def _pow(base, n):
    if n == 0:
        return _ONE
    return base if n == 1 else ("pow", base, n)


def _derivative(ast, name):
    """Formal partial derivative of ast in the variable name, as an AST.

    pow with exponent n becomes n * base^(n-1) * base'.  The constants 0
    and 1 are folded where they meet neg, add, sub, mul and pow, so the
    partial in a variable that ast never mentions is ("const", 0).
    """
    op = ast[0]
    if op == "const":
        return _ZERO
    if op == "var":
        return _ONE if ast[1] == name else _ZERO
    if op == "neg":
        return _neg(_derivative(ast[1], name))
    if op in ("add", "sub"):
        join = _add if op == "add" else _sub
        return join(_derivative(ast[1], name), _derivative(ast[2], name))
    if op == "mul":
        a, b = ast[1], ast[2]
        return _add(_mul(_derivative(a, name), b),
                    _mul(a, _derivative(b, name)))
    if op == "pow":
        base, n = ast[1], ast[2]
        if n == 0:
            return _ZERO
        return _mul(_mul(("const", n), _pow(base, n - 1)),
                    _derivative(base, name))
    raise IgusaError(f"unknown node {op!r}")


def _eval_chunk(ast, ring, coords, width):
    op = ast[0]
    if op == "const":
        return np.full(width, ring.from_int(ast[1]), dtype=np.int32)
    if op == "var":
        return coords[ast[1]]
    if op == "neg":
        return ring.NEG[_eval_chunk(ast[1], ring, coords, width)]
    if op == "add":
        a = _eval_chunk(ast[1], ring, coords, width)
        b = _eval_chunk(ast[2], ring, coords, width)
        return ring.ADD[a, b]
    if op == "sub":
        a = _eval_chunk(ast[1], ring, coords, width)
        b = _eval_chunk(ast[2], ring, coords, width)
        return ring.ADD[a, ring.NEG[b]]
    if op == "mul":
        a = _eval_chunk(ast[1], ring, coords, width)
        b = _eval_chunk(ast[2], ring, coords, width)
        return ring.MUL[a, b]
    if op == "pow":
        base = _eval_chunk(ast[1], ring, coords, width)
        out = np.full(width, ring.one, dtype=np.int32)
        k = ast[2]
        while k:
            if k & 1:
                out = ring.MUL[out, base]
            base = ring.MUL[base, base]
            k >>= 1
        return out
    raise IgusaError(f"unknown node {op!r}")


def zero_count(poly, ring: Ring) -> int:
    """N = #{x in ring^d : f(x) = 0} over the d variables f mentions, by
    exhaustive evaluation; the budget is checked against that grid."""
    poly = parse_poly(poly)
    names = poly.vars
    grid = ring.size ** len(names)
    if grid > GRID_CAP:
        raise TooLarge(f"grid of {grid} points exceeds budget {GRID_CAP}")
    total = 0
    for lo in range(0, grid, CHUNK):
        hi = min(grid, lo + CHUNK)
        idx = np.arange(lo, hi, dtype=np.int64)
        coords = {
            name: ((idx // ring.size**axis) % ring.size).astype(np.int32)
            for axis, name in enumerate(names)
        }
        vals = _eval_chunk(poly.ast, ring, coords, hi - lo)
        total += int((vals == ring.zero).sum())
    return total


def _lift_table(ring: Ring, k):
    """(|R_k|, q) table: row x lists the q elements of ring over x in R_k.

    ring is at level k + 1 and R_k is its truncation at level k; level 0
    is a single point.  The entries take the smallest unsigned dtype that
    holds them, which keeps the lifted zeros small.
    """
    q = ring.q
    dtype = np.min_scalar_type(ring.size - 1)
    if k == 0:
        return np.arange(q, dtype=dtype).reshape(1, q)
    proj = ring.project_table(k)
    fibres = np.bincount(proj, minlength=q**k)
    if fibres.shape != (q**k,) or (fibres != q).any():
        raise IdentityError(
            f"projection {ring.literal} -> level {k} has a fibre "
            f"of size other than {q}"
        )
    return np.argsort(proj, kind="stable").astype(dtype).reshape(-1, q)


def _digit_strings(q, d, lo, hi):
    """(d, hi - lo) array: row j holds base-q digit j of lo..hi-1."""
    powers = q ** np.arange(d, dtype=np.int64)
    return np.arange(lo, hi, dtype=np.int64) // powers[:, None] % q


def _lifts(table, zeros, q, d):
    """The q^d lifts of the columns of zeros, in pieces of at most CHUNK.

    zeros is a (d, n) array on R_k and table the level-(k+1) lift table.
    Lift (column r, digit string s) has coordinate j equal to
    table[zeros[j, r], digits[j, s]]; each piece is a (d, width) array on
    R_{k+1}, its lifts taken column by column.
    """
    fibre = q**d
    rows = max(1, CHUNK // fibre)  # zeros per piece
    width = min(fibre, CHUNK)  # digit strings per piece
    for lo in range(0, fibre, width):
        digits = _digit_strings(q, d, lo, min(fibre, lo + width))
        for r in range(0, zeros.shape[1], rows):
            block = zeros[:, r:r + rows]
            out = np.empty((d, block.shape[1] * digits.shape[1]),
                           dtype=table.dtype)
            for j in range(d):
                out[j] = np.take(table[block[j]], digits[j], axis=1).ravel()
            yield out


def _is_zero(ast, ring: Ring, names, points):
    """Boolean mask: f = 0 at each column of the (d, n) array points."""
    coords = dict(zip(names, points))
    return _eval_chunk(ast, ring, coords, points.shape[1]) == ring.zero


def _level_one_zeros(poly, ring: Ring):
    """(smooth, singular): the zeros of f on the residue grid F_q^d.

    ring is at level 1.  smooth is the number of zeros where the formal
    gradient of f is nonzero; singular is a (d, s) array of the zeros
    where it vanishes.  The grid is the set of lifts of the level-0 point,
    scanned in pieces of at most CHUNK points.
    """
    names = poly.vars
    partials = [_derivative(poly.ast, name) for name in names]
    table = _lift_table(ring, 0)
    origin = np.zeros((len(names), 1), dtype=table.dtype)
    smooth = 0
    singular = [origin[:, :0]]
    for grid in _lifts(table, origin, ring.q, len(names)):
        zeros = grid[:, _is_zero(poly.ast, ring, names, grid)]
        flat = np.ones(zeros.shape[1], dtype=bool)
        for partial in partials:
            flat &= _is_zero(partial, ring, names, zeros)
        smooth += int(np.count_nonzero(~flat))
        singular.append(zeros[:, flat])
    return smooth, np.concatenate(singular, axis=1)


def _stationary_zero_counts(poly, rings):
    """N_k = #{x in R_k^d : f(x) = 0} for the d variables f mentions.

    rings[k - 1] is the level-k ring.  For k >= 1, a level-k zero x with
    lift y and any t in R^d satisfy

        f(y + pi^k t) = f(y) + pi^k grad f(x mod pi) . t   (mod pi^(k+1)),

so the zeros fall in two kinds, fixed by their image on level 1.  A
    smooth zero (gradient nonzero mod pi) has exactly q^(d-1) zero lifts,
    all smooth again: its subtree is counted without evaluation.  A
    singular zero (gradient zero mod pi) has all q^d of its lifts as
    zeros, singular again, or none: f at the lift table[x, 0] decides
    which.  Only singular zeros are lifted, depth first in pieces of at
    most CHUNK; the deepest level keeps only their number.

    The budget caps the points evaluated: q^d for the level-1 scan,
    checked before it, and q^d + s_1 * sum_{j=0}^{m-2} q^(jd) in all,
    with s_1 the singular level-1 zeros, checked before any lift.
    """
    q, d, m = rings[0].q, len(poly.vars), len(rings)
    fibre = q**d
    if fibre > GRID_CAP:
        raise TooLarge(f"grid of {fibre} points exceeds budget {GRID_CAP}")
    tables = {k: _lift_table(rings[k], k) for k in range(1, m)}
    smooth, singular = _level_one_zeros(poly, rings[0])
    bound = fibre + singular.shape[1] * sum(fibre**j for j in range(m - 1))
    if bound > GRID_CAP:
        raise TooLarge(
            f"lifting evaluates up to {bound} points, over budget {GRID_CAP}"
        )
    # without variables there are no smooth zeros, so q^(d-1) never arises
    counts = [smooth * q ** (k * max(d - 1, 0)) for k in range(m)]
    counts[0] += singular.shape[1]

    def lift(k, zeros):
        # zeros: singular zeros of level k; their lifts live on rings[k]
        ring, table = rings[k], tables[k]
        for r in range(0, zeros.shape[1], CHUNK):
            piece = zeros[:, r:r + CHUNK]
            passed = piece[:, _is_zero(poly.ast, ring, poly.vars,
                                       table[piece, 0])]
            counts[k] += passed.shape[1] * fibre
            if k + 1 < m:
                for lifts in _lifts(table, passed, q, d):
                    lift(k + 1, lifts)

    if m > 1:
        lift(1, singular)
    return counts


def level_set_measures(poly, ring: Ring):
    """Exact measures mu(v(f) = n) for 0 <= n < m, plus the tail mass.

    Uses mu(v >= n) = q^{-nd} N_n with N_n the zero count at level n over
    the d variables f mentions, so the measures and the tail q^{-md} N_m
    partition 1 exactly.  The N_n come from the stationary-phase count,
    which lifts only the singular zeros through the fibres of the
    projection; zero_count is the brute-force oracle for them.  The
    budget caps the points evaluated.
    """
    poly = parse_poly(poly)
    if ring.VAL is None:
        raise IgusaError(f"no valuation on {ring.literal}")
    d = len(poly.vars)
    q = ring.q
    m = ring.m
    rings = [ring.subring_level(k) for k in range(1, m + 1)]
    counts = [1]  # N_0: the empty congruence
    counts += _stationary_zero_counts(poly, rings)
    measures = []
    for n in range(m):
        mu = Fraction(counts[n], q ** (n * d)) - Fraction(
            counts[n + 1], q ** ((n + 1) * d)
        )
        measures.append(mu)
    tail = Fraction(counts[m], q ** (m * d))
    return {
        "poly": poly.text,
        "ring": ring.literal,
        "arity": d,
        "zero_counts": counts[1:],
        "measures": measures,
        "tail": tail,
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
