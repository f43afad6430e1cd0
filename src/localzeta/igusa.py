"""Exhaustive level-set integration of polynomial absolute values.

From the zero counts N_n of an integer polynomial at each truncation
level the measures mu(v(f) = n) are exact rationals, and their generating
series in t = q^{-s} is the truncated integral of |f|^s over the
d-dimensional unit polydisc.  The counts are exhaustive: every zero at
level n + 1 lies over a zero at level n, because truncation is a ring
homomorphism, so level_set_measures enumerates the q^d points of the fibre
over each level-n zero and nothing else.  zero_count, the plain scan of
the whole grid, is the oracle for those counts.  The budget applies to the
ambient grid of every level and is checked before any evaluation.  The
arithmetic stays in lookup tables, so the numbers are an independent
check on any closed form.
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


def zero_count(poly, ring: Ring, arity=None) -> int:
    """N = #{x in ring^arity : f(x) = 0}, by exhaustive evaluation.

    Only the axes f actually mentions are scanned; unused ambient axes
    multiply the count by a power of |ring| at the end.  The budget is
    checked against the full ambient grid.
    """
    poly = parse_poly(poly)
    if arity is None:
        arity = len(poly.vars)
    if arity < len(poly.vars):
        raise IgusaError(
            f"arity {arity} below variable count {len(poly.vars)}"
        )
    if ring.size**arity > GRID_CAP:
        raise TooLarge(
            f"grid of {ring.size**arity} points exceeds budget {GRID_CAP}"
        )
    names = poly.vars
    grid = ring.size ** len(names)
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
    return total * ring.size ** (arity - len(names))


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


def _lift_chunk(poly, ring: Ring, table, zeros, digits, keep):
    """The zeros of f among the lifts of the rows of zeros by digits.

    Lift (row r, digit string s) has coordinate j equal to
    table[zeros[r, j], digits[j, s]]; lifts are taken row-major.  Returns
    the zeros found, one row each, as a (hits, d) array on ring; unless
    keep, the rows have no columns and only their number is kept.
    """
    cols = [np.take(table[zeros[:, j]], digits[j], axis=1).ravel()
            for j in range(len(poly.vars))]
    width = len(zeros) * digits.shape[1]
    vals = _eval_chunk(poly.ast, ring, dict(zip(poly.vars, cols)), width)
    hits = np.flatnonzero(vals == ring.zero)
    kept = cols if keep else []
    found = np.empty((len(hits), len(kept)), dtype=table.dtype)
    for j, col in enumerate(kept):
        found[:, j] = col[hits]
    return found


def _lifted_zero_counts(poly, rings):
    """N_k = #{x in R_k^d : f(x) = 0} for the d variables f mentions.

    rings[k - 1] is the level-k ring.  Every level-(k+1) zero lies over a
    level-k zero, so only the q^d lifts of each level-k zero are
    evaluated, in pieces of at most CHUNK lifts.  The lifting runs depth
    first: the zeros a piece finds go straight on to the next level, so
    at most about one piece per level is held, however many zeros there
    are.
    """
    q, d = rings[0].q, len(poly.vars)
    fibre = q**d
    rows = max(1, CHUNK // fibre)  # zeros per piece
    width = min(fibre, CHUNK)  # digit strings per piece
    tables = [_lift_table(ring, k) for k, ring in enumerate(rings)]
    counts = [0] * len(rings)

    def lift(k, zeros):
        deeper = k + 1 < len(rings)
        for lo in range(0, fibre, width):
            digits = _digit_strings(q, d, lo, min(fibre, lo + width))
            for r in range(0, len(zeros), rows):
                found = _lift_chunk(poly, rings[k], tables[k],
                                    zeros[r:r + rows], digits, deeper)
                counts[k] += len(found)
                if deeper and len(found):
                    lift(k + 1, found)

    lift(0, np.zeros((1, d), dtype=np.int32))
    return counts


def level_set_measures(poly, ring: Ring, arity=None):
    """Exact measures mu(v(f) = n) for 0 <= n < m, plus the tail mass.

    Uses mu(v >= n) = q^{-nd} N_n with N_n the zero count at level n, so
    the measures and the tail q^{-md} N_m partition 1 exactly.  The N_n
    come from lifting the level-(n-1) zeros through the fibres of the
    projection; zero_count is the brute-force oracle for them.  The
    budget is checked on the ambient grid of every level before any
    evaluation.
    """
    poly = parse_poly(poly)
    if ring.VAL is None:
        raise IgusaError(f"no valuation on {ring.literal}")
    if arity is None:
        arity = len(poly.vars)
    if arity < len(poly.vars):
        raise IgusaError(
            f"arity {arity} below variable count {len(poly.vars)}"
        )
    d = arity
    q = ring.q
    m = ring.m
    for k in range(1, m + 1):
        if q ** (k * d) > GRID_CAP:
            raise TooLarge(
                f"grid of {q ** (k * d)} points exceeds budget {GRID_CAP}"
            )
    rings = [ring.subring_level(k) for k in range(1, m + 1)]
    lifted = _lifted_zero_counts(poly, rings)
    unused = d - len(poly.vars)
    counts = [1]  # N_0: the empty congruence
    counts += [n * r.size**unused for n, r in zip(lifted, rings)]
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


def igusa_truncation(poly, ring: Ring, arity=None):
    """(series, tail): sum_{n<m} mu(v=n) t^n and the q^{-md} N_m bound.

    The series coefficients are honest measures; adding the tail to the
    coefficient sum gives exactly 1, and any closed form claiming the
    integral must match the coefficients after expand().
    """
    data = level_set_measures(poly, ring, arity)
    series = ZetaSeries(ring.q, data["measures"], "enumerated")
    return series, data["tail"]
