"""Presburger formulas, quantifier elimination, and symbolic summation.

The pipeline: parse a formula over integer variables, eliminate quantifiers
Cooper-style, decompose the solution set into disjoint cells, and sum the
weight q^(s*A + B) over each cell variable by variable.  Every variable is
removed either as a finite arithmetic progression (telescoping, valid as an
algebraic identity regardless of convergence) or as a one-sided geometric
ray, which must contract for large s; sigma0 records the smallest integer s
at which every ray contracts.  The result is an exact BivariateRational in
(X, Y) = (q, q^-s) whose expansion matches brute-force partial sums.

Eliminating a variable branches on residues: on z = M0*u + r to resolve
the congruences on z, and on the residue of each bound numerator N when
a bound z <= N/A is floored.  A branch whose new congruence, together
with the congruences already there on the same single variable, has no
integer solution (checked over one period, ``_congruences_clash``) is
dropped when it is created.  This leaves the sum unchanged: the branch
has no integer point, and keeping it would only defer its death to the
elimination of that variable, whose residue modulus is a multiple of the
period, so every residue there grounds some congruence to false.  The
branching reads only the literals and the denominators of z in the
exponents, so one plan (``_bound_branches``) per literal list serves
every term with those literals while z is eliminated.

Divergence is always an error, never a silent wrong value, and an empty
cell sums to 0: a variable with no bound or on a non-contracting ray
raises ``Divergent`` only when ``_has_point`` finds an integer point
for the rest of its term, by the branching (``_bound_branches``) that
sums each variable.  The engine refuses runaway case splits via the
modulus budget and refuses formulas with more than four free variables.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .laurent import Laurent, exact
from .zeta import BivariateRational, ZetaSeries, _factor_poly

VAR_BUDGET = 4
MODULUS_BUDGET = 64
CELL_BUDGET = 4096  # the most cells of any test, verify or bench spec: 191

RESERVED = {"and", "or", "not", "exists", "forall", "mod", "q", "s"}


class PresburgerError(ValueError):
    pass


class Divergent(PresburgerError):
    """The sum has a non-contracting recession ray (reported in args)."""


class VariableBudget(PresburgerError):
    pass


class ModulusBudget(PresburgerError):
    pass


class CellBudget(PresburgerError):
    pass


# ----------------------------------------------------------------------
# linear forms


class LinForm:
    """Rational linear combination of variables plus a constant: the int
    numerators ``nums`` (nonzero, by variable) and ``cnum`` over one int
    ``den`` > 0, with gcd(den, nums, cnum) = 1, so integral forms have
    den = 1 and int arithmetic.  Parsed atoms are integral; rational forms
    appear only in the summation engine, where they stay integer-valued on
    their cells (floors of bounds along fixed residues).  ``coeff``,
    ``coeffs`` and ``const`` give values in the ``laurent.exact`` form.
    Forms are immutable, so a result may share its dict with an operand,
    as a shift of the constant does when no common factor divides out.
    """

    __slots__ = ("nums", "cnum", "den")

    def __init__(self, coeffs=None, const=0):
        values = {v: exact(c) for v, c in (coeffs or {}).items()}
        const = exact(const)
        den = math.lcm(const.denominator,
                       *(c.denominator for c in values.values()))
        self.nums = {v: int(c * den) for v, c in values.items() if c}
        self.cnum = int(const * den)
        self.den = den

    @classmethod
    def _make(cls, nums, cnum, den):
        """(nums, cnum) / den for nonzero ints nums and den > 0, their
        common factor divided out; nums is kept when there is none."""
        if den != 1:
            g = math.gcd(den, cnum, *nums.values())
            if g != 1:
                nums = {v: c // g for v, c in nums.items()}
                cnum //= g
                den //= g
        out = object.__new__(cls)
        out.nums = nums
        out.cnum = cnum
        out.den = den
        return out

    @classmethod
    def of(cls, var):
        return cls._make({var: 1}, 0, 1)

    @classmethod
    def constant(cls, c):
        return cls({}, c)

    @property
    def coeffs(self):
        if self.den == 1:
            return self.nums
        return {v: exact(Fraction(c, self.den)) for v, c in self.nums.items()}

    @property
    def const(self):
        if self.den == 1:
            return self.cnum
        return exact(Fraction(self.cnum, self.den))

    def _shift(self, n, d=1):
        """self + n/d for ints n and d > 0."""
        if not n:
            return self
        den = self.den
        if den % d == 0:
            return LinForm._make(self.nums, self.cnum + n * (den // d), den)
        m = math.lcm(den, d)
        return LinForm._make({v: c * (m // den) for v, c in self.nums.items()},
                             self.cnum * (m // den) + n * (m // d), m)

    def _combined(self, other, sign):
        """self + sign * other for a form or a number, sign = +-1."""
        if not isinstance(other, LinForm):
            n, d = _ratio(other)
            return self._shift(sign * n, d)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        if a == 1:
            out = dict(self.nums)
        else:
            out = {v: c * a for v, c in self.nums.items()}
        for v, c in other.nums.items():
            s = out.get(v, 0) + b * c
            if s:
                out[v] = s
            else:
                del out[v]
        return LinForm._make(out, self.cnum * a + b * other.cnum, den)

    def __add__(self, other):
        return self._combined(other, 1)

    def __sub__(self, other):
        return self._combined(other, -1)

    def scale(self, k):
        n, d = _ratio(k)
        if not n:
            return LinForm._make({}, 0, 1)
        if n == d == 1:
            return self
        nums = self.nums
        if n != 1:
            nums = {v: c * n for v, c in nums.items()}
        return LinForm._make(nums, self.cnum * n, self.den * d)

    def coeff(self, var):
        c = self.nums.get(var, 0)
        return c if self.den == 1 else exact(Fraction(c, self.den))

    def coeff_den(self, var):
        """The denominator of var's coefficient in lowest terms."""
        return self.den // math.gcd(self.nums.get(var, 0), self.den)

    def drop(self, var):
        if var not in self.nums:
            return self
        rest = dict(self.nums)
        del rest[var]
        return LinForm._make(rest, self.cnum, self.den)

    def substitute(self, var, form: "LinForm"):
        c = self.nums.get(var)
        if not c:
            return self
        # (rest + c*var)/d with var = (F + f)/e is (e*rest + c*(F + f))/(d*e)
        e = form.den
        out = {v: x * e for v, x in self.nums.items() if v != var}
        for v, x in form.nums.items():
            s = out.get(v, 0) + c * x
            if s:
                out[v] = s
            else:
                del out[v]
        return LinForm._make(out, self.cnum * e + c * form.cnum, self.den * e)

    def vars(self):
        return frozenset(self.nums)

    def is_ground(self):
        return not self.nums

    def evaluate(self, env):
        total = self.cnum
        for v, c in self.nums.items():
            total += c * env[v]
        return total if self.den == 1 else Fraction(total, self.den)

    def key(self):
        return (tuple(sorted(self.coeffs.items())), self.const)

    def __eq__(self, other):
        return (isinstance(other, LinForm) and self.den == other.den
                and self.cnum == other.cnum and self.nums == other.nums)

    def __hash__(self):
        return hash((self.den, self.cnum, frozenset(self.nums.items())))

    def __repr__(self):
        parts = [f"{c}*{v}" for v, c in sorted(self.coeffs.items())]
        parts.append(str(self.const))
        return " + ".join(parts)


def _ratio(k):
    """(numerator, denominator) of an int or a Fraction; floats refused."""
    if type(k) is int:
        return k, 1
    if isinstance(k, Fraction):
        return k.numerator, k.denominator
    return operator.index(k), 1


# ----------------------------------------------------------------------
# formulas

# AST nodes: ("le", L) for L <= 0; ("cong"|"ncong", L, n) for L = / != 0
# mod n; ("true",), ("false",); ("and"|"or", a, b); ("not", a);
# ("exists"|"forall", var, a).


def free_vars(ast):
    op = ast[0]
    if op in ("le", "cong", "ncong"):
        return ast[1].vars()
    if op in ("true", "false"):
        return frozenset()
    if op == "not":
        return free_vars(ast[1])
    if op in ("and", "or"):
        return free_vars(ast[1]) | free_vars(ast[2])
    if op in ("exists", "forall"):
        return free_vars(ast[2]) - {ast[1]}
    raise PresburgerError(f"unknown node {op!r}")


def is_quantifier_free(ast):
    op = ast[0]
    if op in ("exists", "forall"):
        return False
    if op == "not":
        return is_quantifier_free(ast[1])
    if op in ("and", "or"):
        return is_quantifier_free(ast[1]) and is_quantifier_free(ast[2])
    return True


class PresburgerFormula:
    __slots__ = ("ast", "text")

    def __init__(self, ast, text=""):
        self.ast = ast
        self.text = text

    @property
    def free(self):
        return tuple(sorted(free_vars(self.ast)))

    def is_quantifier_free(self):
        return is_quantifier_free(self.ast)

    def __repr__(self):
        return f"PresburgerFormula({self.text or self.ast!r})"


# ----------------------------------------------------------------------
# parsing


def _tokenize_formula(text):
    tokens = []
    i = 0
    two = {"<=", ">=", "!="}
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif text[i : i + 2] in two:
            tokens.append((text[i : i + 2], None, i))
            i += 2
        elif c in "+-*()<>=^":
            tokens.append((c, None, i))
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in ("and", "or", "not", "exists", "forall", "mod"):
                tokens.append((word, None, i))
            else:
                tokens.append(("ident", word, i))
            i = j
        else:
            raise PresburgerError(f"bad character {c!r} at position {i}")
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent for formulas and linear terms, with positions."""

    def __init__(self, text, allow_s=False):
        self.text = text
        self.tokens = _tokenize_formula(text)
        self.pos = 0
        self.allow_s = allow_s

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise PresburgerError(
                f"expected {kind}, found {tok[0]} at position {tok[2]}"
            )
        self.pos += 1
        return tok

    def fail(self, msg):
        tok = self.tokens[self.pos]
        raise PresburgerError(f"{msg} at position {tok[2]}")

    # terms: integer linear combinations; products need a literal factor

    def term(self):
        node = self.product()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs = self.product()
            node = node + rhs if op == "+" else node - rhs
        return node

    def product(self):
        factors = [self.unary_factor()]
        while self.peek() == "*":
            self.take("*")
            factors.append(self.unary_factor())
        out = LinForm.constant(1)
        for f in factors:
            out = self._lin_mul(out, f)
        return out

    def _lin_mul(self, a, b):
        if a.is_ground():
            return b.scale(a.const)
        if b.is_ground():
            return a.scale(b.const)
        if self.allow_s:
            # weight exponents may multiply one plain variable by s
            pa, pb = _pure_var(a), _pure_var(b)
            if pa and pb:
                (va, ca), (vb, cb) = pa, pb
                if vb == "s" and va != "s" and not va.endswith("*s"):
                    return LinForm({va + "*s": ca * cb})
                if va == "s" and vb != "s" and not vb.endswith("*s"):
                    return LinForm({vb + "*s": ca * cb})
        self.fail("nonlinear product")

    def unary_factor(self):
        if self.peek() == "-":
            self.take("-")
            return self.unary_factor().scale(-1)
        if self.peek() == "+":
            self.take("+")
            return self.unary_factor()
        if self.peek() == "int":
            return LinForm.constant(self.take()[1])
        if self.peek() == "ident":
            tok = self.take()
            name = tok[1]
            if name in RESERVED and not (self.allow_s and name == "s"):
                raise PresburgerError(
                    f"reserved word {name!r} at position {tok[2]}"
                )
            return LinForm.of(name)
        if self.peek() == "(":
            self.take("(")
            node = self.term()
            self.take(")")
            return node
        self.fail("expected a term")

    # formulas

    def formula(self):
        node = self.conjunct()
        while self.peek() == "or":
            self.take("or")
            node = ("or", node, self.conjunct())
        return node

    def conjunct(self):
        node = self.unary_formula()
        while self.peek() == "and":
            self.take("and")
            node = ("and", node, self.unary_formula())
        return node

    def unary_formula(self):
        k = self.peek()
        if k == "not":
            self.take("not")
            return ("not", self.unary_formula())
        if k in ("exists", "forall"):
            self.take(k)
            tok = self.take("ident")
            if tok[1] in RESERVED:
                raise PresburgerError(
                    f"reserved word {tok[1]!r} at position {tok[2]}"
                )
            return (k, tok[1], self.unary_formula())
        if k == "(":
            # parenthesized formula or a parenthesized term in an atom;
            # backtrack if the inside fails to be a formula
            saved = self.pos
            self.take("(")
            try:
                inner = self.formula()
                self.take(")")
            except PresburgerError:
                self.pos = saved
                return self.atom()
            if self.peek() in ("<=", "<", ">=", ">", "=", "!="):
                self.pos = saved
                return self.atom()
            return inner
        return self.atom()

    def atom(self):
        lhs = self.term()
        rel = self.peek()
        if rel not in ("<=", "<", ">=", ">", "=", "!="):
            self.fail(f"expected a relation, found {rel}")
        self.take()
        rhs = self.term()
        if self.peek() == "mod":
            self.take("mod")
            tok = self.take("int")
            n = tok[1]
            if n < 1:
                raise PresburgerError(
                    f"modulus must be positive at position {tok[2]}"
                )
            if rel == "=":
                return ("cong", lhs - rhs, n)
            if rel == "!=":
                return ("ncong", lhs - rhs, n)
            raise PresburgerError(
                f"'mod' requires = or != at position {tok[2]}"
            )
        if rel == "<=":
            return ("le", lhs - rhs)
        if rel == "<":
            return ("le", lhs - rhs + 1)
        if rel == ">=":
            return ("le", rhs - lhs)
        if rel == ">":
            return ("le", rhs - lhs + 1)
        if rel == "=":
            return ("and", ("le", lhs - rhs), ("le", rhs - lhs))
        return ("or", ("le", lhs - rhs + 1), ("le", rhs - lhs + 1))


def _pure_var(L: LinForm):
    if L.cnum == 0 and len(L.nums) == 1:
        ((v, c),) = L.coeffs.items()
        return (v, c)
    return None


def parse(text) -> PresburgerFormula:
    """Formula grammar: linear atoms with <= < = != >= >, optional
    'mod n' on (in)equations, 'and or not exists forall', parentheses."""
    if isinstance(text, PresburgerFormula):
        return text
    p = _Parser(text)
    ast = p.formula()
    p.take("end")
    return PresburgerFormula(ast, text)


def parse_weight(text):
    """Weight grammar: q^( E ) with E integer-linear in the variables and
    in s-products like -n*s; returns (A, B) with exponent = s*A + B."""
    p = _Parser(text, allow_s=True)
    tok = p.take("ident")
    if tok[1] != "q":
        raise PresburgerError(f"weight must start with q at {tok[2]}")
    p.take("^")
    p.take("(")
    expo = p.term()
    p.take(")")
    p.take("end")
    if expo.den != 1:
        raise PresburgerError("weight coefficients must be integers")
    A = {}
    B = {}
    for v, c in expo.nums.items():
        if v == "s":
            # a bare k*s term: constant coefficient on s
            A[""] = A.get("", 0) + c
        elif v.endswith("*s"):
            A[v[:-2]] = c
        else:
            B[v] = c
    consts = A.pop("", 0)
    return LinForm(A, consts), LinForm(B, expo.cnum)


# ----------------------------------------------------------------------
# simplification


def _ground_literal(ast):
    """Evaluate a variable-free literal to a true/false node, else None.
    Its value cnum/den is a multiple of n iff cnum is one of n*den."""
    op = ast[0]
    if op == "le" and not ast[1].nums:
        return ("true",) if ast[1].cnum <= 0 else ("false",)
    if op in ("cong", "ncong") and not ast[1].nums:
        hit = ast[1].cnum % (ast[2] * ast[1].den) == 0
        if op == "ncong":
            hit = not hit
        return ("true",) if hit else ("false",)
    return None


def simplify(ast):
    op = ast[0]
    if op in ("le", "cong", "ncong"):
        return _ground_literal(ast) or ast
    if op in ("true", "false"):
        return ast
    if op == "not":
        a = simplify(ast[1])
        if a[0] == "true":
            return ("false",)
        if a[0] == "false":
            return ("true",)
        return ("not", a)
    if op in ("and", "or"):
        a = simplify(ast[1])
        b = simplify(ast[2])
        zero, one = ("false",), ("true",)
        if op == "or":
            zero, one = one, zero
        if a == zero or b == zero:
            return zero
        if a == one:
            return b
        if b == one:
            return a
        return (op, a, b)
    if op in ("exists", "forall"):
        body = simplify(ast[2])
        if body[0] in ("true", "false"):
            return body
        return (op, ast[1], body)
    raise PresburgerError(f"unknown node {op!r}")


def _negate_literal(lit):
    op = lit[0]
    if op == "le":
        # not (t <= 0) is 1 - t <= 0
        return ("le", lit[1].scale(-1) + 1)
    if op == "cong":
        return ("ncong", lit[1], lit[2])
    if op == "ncong":
        return ("cong", lit[1], lit[2])
    raise PresburgerError(f"not a literal: {op!r}")


def nnf(ast, neg=False):
    """Negation normal form; all negations are folded into literals."""
    op = ast[0]
    if op in ("le", "cong", "ncong"):
        return _negate_literal(ast) if neg else ast
    if op == "true":
        return ("false",) if neg else ast
    if op == "false":
        return ("true",) if neg else ast
    if op == "not":
        return nnf(ast[1], not neg)
    if op in ("and", "or"):
        flip = {"and": "or", "or": "and"}
        return (
            flip[op] if neg else op,
            nnf(ast[1], neg),
            nnf(ast[2], neg),
        )
    if op in ("exists", "forall"):
        flip = {"exists": "forall", "forall": "exists"}
        return (flip[op] if neg else op, ast[1], nnf(ast[2], neg))
    raise PresburgerError(f"unknown node {op!r}")


def _map_literals(ast, fn):
    """The quantifier-free NNF formula with each literal replaced by
    fn(literal)."""
    op = ast[0]
    if op in ("le", "cong", "ncong"):
        return fn(ast)
    if op in ("true", "false"):
        return ast
    if op in ("and", "or"):
        return (op, _map_literals(ast[1], fn), _map_literals(ast[2], fn))
    raise PresburgerError(
        f"{op!r} node in a formula that must be quantifier-free NNF"
    )


def _literals(ast):
    """Every literal of a formula, left to right."""
    op = ast[0]
    if op in ("le", "cong", "ncong"):
        yield ast
    elif op in ("not", "and", "or"):
        for child in ast[1:]:
            yield from _literals(child)
    elif op in ("exists", "forall"):
        yield from _literals(ast[2])


def _subst(lit, var, form):
    return (lit[0], lit[1].substitute(var, form), *lit[2:])


# ----------------------------------------------------------------------
# Cooper quantifier elimination


def _scale_for(lit, var, lam):
    """Rewrite a literal so the variable's coefficient is exactly +-1,
    under the change of variable var' = lam * var."""
    form = lit[1]
    c = form.nums.get(var)
    if not c:
        return lit
    unit = LinForm._make({var: 1 if c > 0 else -1}, 0, 1)
    # c/den is an integer dividing lam; k > 0 keeps the <= direction
    k = lam * form.den // abs(c)
    scaled = form.scale(k).drop(var) + unit
    if lit[0] == "le":
        return ("le", scaled)
    return (lit[0], scaled, lit[2] * k)


def _minus_infinity(lit, var):
    """Limit of a literal as var -> -inf: lower bounds go false, upper
    bounds go true, congruences survive."""
    c = lit[1].nums.get(var, 0)
    if lit[0] != "le" or not c:
        return lit
    # c > 0 is an upper bound var + t <= 0, satisfied at -inf
    return ("true",) if c > 0 else ("false",)


def _cooper(var, ast):
    """Eliminate exists var from a quantifier-free NNF formula."""
    ast = simplify(ast)
    if var not in free_vars(ast):
        return ast
    forms = [lit[1] for lit in _literals(ast) if var in lit[1].nums]
    if any(form.nums[var] % form.den for form in forms):
        raise PresburgerError("rational coefficient in QE input")
    lam = math.lcm(*(abs(form.nums[var]) // form.den for form in forms))
    scaled = _map_literals(ast, lambda lit: _scale_for(lit, var, lam))
    if lam > 1:
        scaled = ("and", scaled, ("cong", LinForm.of(var), lam))
    D = 1
    bterms = {}
    for lit in _literals(scaled):
        c = lit[1].nums.get(var, 0)
        if c and lit[0] != "le":
            D = math.lcm(D, lit[2])
        elif c < 0:
            # -var + t <= 0: bound term is t, shifted to strict form t - 1
            b = lit[1].drop(var) - 1
            bterms[b.key()] = b
    at_minus_inf = _map_literals(
        scaled, lambda lit: _minus_infinity(lit, var))

    def at(ast, form):
        return simplify(_map_literals(ast, lambda lit: _subst(lit, var, form)))

    pieces = []
    for j in range(1, D + 1):
        pieces.append(at(at_minus_inf, LinForm.constant(j)))
        for b in bterms.values():
            pieces.append(at(scaled, b + j))
    out = ("false",)
    for piece in pieces:
        if piece[0] == "true":
            return ("true",)
        if piece[0] == "false":
            continue
        out = piece if out[0] == "false" else ("or", out, piece)
    return out


def eliminate_quantifiers(formula) -> PresburgerFormula:
    """Equivalent quantifier-free formula over the same free variables."""
    formula = parse(formula)

    def rec(ast):
        op = ast[0]
        if op in ("le", "cong", "ncong", "true", "false"):
            return ast
        if op == "not":
            return ("not", rec(ast[1]))
        if op in ("and", "or"):
            return (op, rec(ast[1]), rec(ast[2]))
        if op == "exists":
            return _cooper(ast[1], nnf(rec(ast[2])))
        if op == "forall":
            return ("not", _cooper(ast[1], nnf(rec(ast[2]), neg=True)))
        raise PresburgerError(f"unknown node {op!r}")

    out = simplify(nnf(rec(formula.ast)))
    return PresburgerFormula(out, f"qf({formula.text})")


# ----------------------------------------------------------------------
# disjoint cells


def _cell_counts(ast):
    """(len(cells(ast)), len(cells(not ast))), without building a cell."""
    op = ast[0]
    if op in ("le", "cong", "ncong"):
        ground = _ground_literal(ast)
        if ground is None:
            return 1, 1
        op = ground[0]
    if op in ("true", "false"):
        return (1, 0) if op == "true" else (0, 1)
    if op == "not":
        return _cell_counts(ast[1])[::-1]
    if op in ("and", "or"):
        a, not_a = _cell_counts(ast[1])
        b, not_b = _cell_counts(ast[2])
        if op == "and":
            return a * b, not_a + a * not_b
        return a + not_a * b, not_a * not_b
    raise PresburgerError("cells need a quantifier-free formula")


def cells(ast):
    """Disjoint conjunctions of literals covering exactly the formula."""
    op = ast[0]
    if op == "true":
        return [[]]
    if op == "false":
        return []
    if op in ("le", "cong", "ncong"):
        g = _ground_literal(ast)
        if g is not None:
            return [[]] if g[0] == "true" else []
        return [[ast]]
    if op == "not":
        return cells(nnf(ast[1], neg=True))
    if op == "and":
        return [a + b for a in cells(ast[1]) for b in cells(ast[2])]
    if op == "or":
        first = cells(ast[1])
        rest = [
            a + b
            for a in cells(nnf(ast[1], neg=True))
            for b in cells(ast[2])
        ]
        return first + rest
    raise PresburgerError("cells need a quantifier-free formula")


# ----------------------------------------------------------------------
# multipliers from telescoping: Laurents whose variable i is order[i]


def _as_laurent(form: LinForm, index):
    """A form as a Laurent polynomial, variable v at index[v]."""
    n = len(index)
    terms = {}
    for v, c in form.coeffs.items():
        e = [0] * n
        e[index[v]] = 1
        terms[tuple(e)] = c
    if form.const:
        terms[(0,) * n] = form.const
    out = Laurent(n)
    out.terms = terms
    return out


@functools.lru_cache(maxsize=None)
def _stirling2(k, j):
    if k == j == 0:
        return 1
    if k == 0 or j == 0:
        return 0
    return j * _stirling2(k - 1, j) + _stirling2(k - 1, j - 1)


@functools.lru_cache(maxsize=None)
def _geometric_moment(k, bx, by):
    """Sum over v >= 0 of v^k (X^bx Y^by)^v as a BivariateRational."""
    total = None
    for j in range(0, k + 1):
        c = _stirling2(k, j) * math.factorial(j)
        if not c:
            continue
        piece = BivariateRational(
            Laurent.monomial(c, (bx * j, by * j)), {(bx, by): j + 1}
        )
        total = piece if total is None else total + piece
    return total


def _faulhaber(k, hp1: Laurent) -> Laurent:
    """Sum over v = 0..H of v^k as a polynomial in the variables of H,
    given hp1 = H + 1."""
    total = Laurent(hp1.nvars)
    for j in range(0, k + 1):
        c = _stirling2(k, j)
        if not c:
            continue
        ff = Laurent.const(1, hp1.nvars)
        for i in range(j + 1):
            ff = ff * (hp1 - i)
        total = total + ff * Fraction(c, j + 1)
    return total


# ----------------------------------------------------------------------
# summation engine


class SummationSpec:
    """A formula plus the exponent decomposition q^(s*A + B)."""

    def __init__(self, formula, weight):
        self.formula = parse(formula)
        self.A, self.B = (
            parse_weight(weight) if isinstance(weight, str) else weight
        )
        missing = (self.A.vars() | self.B.vars()) - set(
            free_vars(self.formula.ast)
        )
        if missing:
            raise PresburgerError(
                f"weight variables {sorted(missing)} not free in formula"
            )


class SumResult(NamedTuple):
    rational: BivariateRational
    sigma0: "int | None"
    cells: int


class _Term:
    """One summand: pref * mult * X^xexp * Y^yexp over the points where
    every literal of lits holds.  mult is a Laurent polynomial whose
    variable i is the i-th variable of the spec's elimination order.

    pref is a structural key, (moments, coef): the sorted tuple of the
    (k, dx, dy) of each geometric moment factor and an int coefficient.
    ``_ground_terms`` builds one BivariateRational per distinct key.
    """

    __slots__ = ("pref", "mult", "xexp", "yexp", "lits")

    def __init__(self, pref, mult, xexp, yexp, lits):
        self.pref = pref
        self.mult = mult
        self.xexp = xexp
        self.yexp = yexp
        self.lits = lits


def _check_ground_lits(lits):
    """Split into (alive, remaining); alive=False kills the branch."""
    out = []
    for lit in lits:
        g = _ground_literal(lit)
        if g is None:
            out.append(lit)
        elif g[0] == "false":
            return False, []
    return True, out


def _congruences_clash(lits):
    """Whether the congruence literals that each name a single variable
    are shown to have no common integer solution.

    Literals on different variables are independent, so each variable is
    decided alone.  Whether c*x + k = 0 mod n holds (an integer multiple
    of n) is periodic in x with period n*den(c), so the literals on x
    repeat with period the lcm of n*den(c) over them, and the residues of
    one period decide them.  A period over MODULUS_BUDGET is not searched
    and leaves the answer False (not shown)."""
    groups, periods = {}, {}
    for lit in lits:
        form = lit[1]
        if lit[0] != "le" and len(form.nums) == 1:
            ((v, c),) = form.nums.items()
            n = lit[2]
            # (c*x + k)/den is an integer multiple of n iff c*x + k is
            # one of n*den
            groups.setdefault(v, []).append(
                (lit[0] == "cong", c, form.cnum, n * form.den))
            periods[v] = math.lcm(periods.get(v, 1), n * form.coeff_den(v))
    return any(
        periods[v] <= MODULUS_BUDGET and not any(
            all(((a * x + b) % m == 0) == holds for holds, a, b, m in rows)
            for x in range(periods[v])
        )
        for v, rows in groups.items()
    )


def _residue_branches(lits, z, denoms):
    """Substitute z = M0*u + r, with u renamed z; returns (M0, [(r,
    literals at r)]) with congruences on z resolved into constraints on
    the rest.  M0 also clears denoms, the denominators of z in the
    weight exponents.

    Each residue is decided by its congruences first: at r a congruence
    is its r = 0 form shifted by c*r, and a residue whose congruences
    are false, or clash (``_congruences_clash``), has no integer point.
    The le-literals are shifted only for the residues that remain."""
    zlits, rest = [], []
    for lit in lits:
        (zlits if z in lit[1].nums else rest).append(lit)
    M0 = math.lcm(*denoms, *(
        lit[1].coeff_den(z) * (1 if lit[0] == "le" else lit[2])
        for lit in zlits))
    if M0 > MODULUS_BUDGET:
        raise ModulusBudget(
            f"residue modulus {M0} for {z} exceeds {MODULUS_BUDGET}"
        )
    stretch = LinForm._make({z: M0}, 0, 1)  # z = M0*z with z reused as u
    # (op, form at r = 0, coefficient c/d of r, modulus) in literal order
    shifted = []
    for lit in zlits:
        form = lit[1]
        c, d = form.nums[z], form.den
        if lit[0] == "le":
            shifted.append(("le", form.substitute(z, stretch), c, d, None))
            continue
        # congruence: coefficient of u is c*M0/d, divisible by the
        # modulus, so the literal drops u entirely
        n = lit[2]
        if c * M0 % (d * n):
            raise PresburgerError(
                f"residue modulus {M0} does not clear {lit[0]} on {z}"
            )
        shifted.append((lit[0], form.drop(z), c, d, n))
    congs = [entry for entry in shifted if entry[0] != "le"]
    branches = []
    for r in range(M0):
        at_r = [(op, form._shift(c * r, d), n) for op, form, c, d, n in congs]
        alive, found = _check_ground_lits(at_r)
        if not alive or (any(len(lit[1].nums) == 1 for lit in found)
                         and _congruences_clash(rest + found)):
            continue
        # the literals in their order, less the congruences true at r
        kept = iter(at_r)
        out = list(rest)
        for op, form, c, d, _ in shifted:
            if op == "le":
                out.append(("le", form._shift(c * r, d)))
            elif (lit := next(kept))[1].nums:
                out.append(lit)
        branches.append((r, out))
    return M0, branches


def _unit_bounds(lits, z):
    """Normalize every le-literal on z to z >= L or z <= U with exact
    integer-valued forms, branching on residues of the bound numerators.

    Returns a list of (lowers, uppers, residual literals) branches; the
    residue congruences land in the residual literals.  A residue whose
    congruence is false, or clashes with the single-variable congruences
    already there (``_congruences_clash``), has no integer point and
    makes no branch.
    """
    zlits, rest = [], []
    for lit in lits:
        (zlits if z in lit[1].nums else rest).append(lit)
    branches = [([], [], rest)]
    for lit in zlits:
        c, d = lit[1].nums[z], lit[1].den
        if lit[0] != "le" or c % d:
            raise PresburgerError(
                f"bound on {z} is not an integral inequality: {lit}"
            )
        a = c // d
        body = lit[1].drop(z)
        # a*z + body <= 0
        if a > 0:
            N = body.scale(-1)  # z <= N / a
        else:
            N = body  # z >= N / (-a); note -a > 0
        A = abs(a)
        new = []
        for lowers, uppers, lits in branches:
            if A == 1:
                if a > 0:
                    new.append((lowers, uppers + [N], lits))
                else:
                    new.append((lowers + [N], uppers, lits))
                continue
            if A > MODULUS_BUDGET:
                raise ModulusBudget(
                    f"bound coefficient {A} for {z} exceeds {MODULUS_BUDGET}"
                )
            for srem in range(A):
                clit = ("cong", N - srem, A)
                g = _ground_literal(clit)
                if g is not None and g[0] == "false":
                    continue
                kept = lits if g is not None else lits + [clit]
                if len(N.nums) == 1 and _congruences_clash(kept):
                    continue
                # (N - srem)/A
                top = clit[1]
                base = LinForm._make(top.nums, top.cnum, top.den * A)
                if a > 0:
                    # z <= N/A; floor is (N - srem)/A on this residue
                    new.append((lowers, uppers + [base], kept))
                else:
                    # z >= N/A; ceil is floor + (1 if srem else 0)
                    L = base + (1 if srem else 0)
                    new.append((lowers + [L], uppers, kept))
        branches = new
    return branches


def _tight_branches(forms, sense):
    """Disjoint branches picking the tight bound among candidate forms.

    sense=+1 picks the maximum (tight lower bound), -1 the minimum.
    Yields (form, extra literals); first-minimal index tie-breaking, and
    (None, []) when there is no bound.
    """
    if len(forms) <= 1:
        yield (forms[0] if forms else None), []
        return
    for k, tight in enumerate(forms):
        lits = []
        for i, other in enumerate(forms):
            if i == k:
                continue
            diff = (other - tight).scale(sense)
            # earlier candidates must lose strictly, later at most tie
            lits.append(("le", diff + 1 if i < k else diff))
        yield tight, lits


def _integral_le(lit):
    """An le-literal as one with the same integer points, with integer
    coefficients of gcd 1 and an integer constant.

    The form's numerators give a*x + b <= 0 (den > 0 keeps the sign).
    As a*x is a multiple of g = gcd(a) at every integer point, that is
    (a/g)*x + ceil(b/g) <= 0, the tightening of the Omega test.  Ground
    and other literals are returned as they are."""
    form = lit[1]
    if lit[0] != "le" or not form.nums:
        return lit
    g = math.gcd(*form.nums.values())
    return ("le", LinForm._make({v: c // g for v, c in form.nums.items()},
                               -(-form.cnum // g), 1))


def _rationally_empty(lits):
    """Whether Fourier-Motzkin elimination shows that the le-literals have
    no rational solution.  Congruences are dropped, which only enlarges
    the set.  False (not shown) once the rows would exceed CELL_BUDGET.
    Each row is its numerators over den > 0: int arithmetic throughout."""
    rows = [LinForm._make(lit[1].nums, lit[1].cnum, 1)
            for lit in lits if lit[0] == "le"]
    while True:
        if any(not r.nums and r.cnum > 0 for r in rows):
            return True
        rows = [r for r in rows if r.nums]
        if not rows:
            return False

        def left(v):  # rows left after eliminating v
            up = sum(r.nums.get(v, 0) > 0 for r in rows)
            down = sum(r.nums.get(v, 0) < 0 for r in rows)
            return len(rows) - up - down + up * down

        v = min(sorted(set().union(*(r.nums for r in rows))), key=left)
        if left(v) > CELL_BUDGET:
            return False
        up = [r for r in rows if r.nums.get(v, 0) > 0]
        down = [r for r in rows if r.nums.get(v, 0) < 0]
        rows = [r for r in rows if v not in r.nums] + [
            a.scale(-b.nums[v]) + b.scale(a.nums[v])
            for a in up for b in down
        ]


def _has_point(lits):
    """Whether a conjunction of literals has an integer point.

    The le-literals are tightened (``_integral_le``) and tested by their
    rational relaxation (``_rationally_empty``); then the variable with
    the fewest splits (bound coefficients times residue moduli) is
    eliminated through ``_bound_branches``, the engine's own exact
    projection, with L <= U added where z has both bounds (a side with
    none is a ray, on which z exists), and each branch is decided the
    same way, depth first.  Exact: only ``ModulusBudget`` can stop it."""
    alive, lits = _check_ground_lits(map(_integral_le, lits))
    if not alive or _rationally_empty(lits):
        return False
    free = sorted(set().union(*(lit[1].nums for lit in lits)))
    if not free:
        return True

    def splits(v):  # bounds to floor and residues to try, in product
        return math.prod(abs(lit[1].nums[v]) if lit[0] == "le"
                         else lit[2] * lit[1].den
                         for lit in lits if v in lit[1].nums)

    _, plan = _bound_branches(lits, min(free, key=splits))
    return any(_has_point(rest if L is None or U is None
                          else rest + [("le", L - U)])
               for _, rest, L, U in plan)


def _times_moment(pref, k, dx, dy, coef=1):
    """The prefactor key pref times the moment G_k(X^dx Y^dy) and coef."""
    moments, c = pref
    return tuple(sorted(moments + ((k, dx, dy),))), c * coef


def _build_prefactor(pref):
    """The BivariateRational of a prefactor key (``_Term``)."""
    moments, coef = pref
    out = BivariateRational.one()
    for moment in moments:
        out = out * _geometric_moment(*moment)
    return out * coef


def _sum_progression(term, z, lower, upper, ctx):
    """Integrate variable z over its (possibly one-sided) range."""
    bx, rx = divmod(term.xexp.nums.get(z, 0), term.xexp.den)
    by, ry = divmod(term.yexp.nums.get(z, 0), term.yexp.den)
    if rx or ry:
        raise PresburgerError(
            f"non-integer weight coefficient on {z}: "
            f"X^{term.xexp.coeff(z)} Y^{term.yexp.coeff(z)}"
        )
    xrest = term.xexp.drop(z)
    yrest = term.yexp.drop(z)
    index = ctx["index"]
    i = index[z]

    def contracting(dx, dy):
        return dy > 0 or (dy == 0 and dx < 0)

    if lower is None and upper is None:
        if _has_point(term.lits):
            raise Divergent(f"variable {z} is unbounded in both directions")
        return

    if lower is not None and upper is not None:
        H = upper - lower
        exist = ("le", lower - upper)  # the range is nonempty
        if _ground_literal(exist) == ("false",):
            return
        if (bx, by) == (0, 0):
            # pure polynomial block: Faulhaber in H
            mult = term.mult.substitute(i, _as_laurent(LinForm.of(z) + lower,
                                                       index))
            hp1 = _as_laurent(H + 1, index)
            out = Laurent(len(index))
            for k, piece in mult.split(i).items():
                out = out + piece * _faulhaber(k, hp1)
            yield _Term(term.pref, out, xrest, yrest,
                        term.lits + [exist])
            return
        # choose the contracting direction for the telescope
        if contracting(bx, by):
            base, dx, dy = lower, bx, by
        else:
            base, dx, dy = upper, -bx, -by
        sub = LinForm.of(z).scale(1 if base is lower else -1) + base
        mult = term.mult.substitute(i, _as_laurent(sub, index))
        x0 = xrest + base.scale(bx)
        y0 = yrest + base.scale(by)
        shift_x = x0 + (H + 1).scale(dx)
        shift_y = y0 + (H + 1).scale(dy)
        hp1 = _as_laurent(H + 1, index)
        for k, piece in mult.split(i).items():
            # sum_{v=0}^{H} v^k r^v = G_k - r^(H+1) sum_j C(k,j)(H+1)^(k-j) G_j
            yield _Term(
                _times_moment(term.pref, k, dx, dy),
                piece, x0, y0, term.lits + [exist],
            )
            for j in range(0, k + 1):
                yield _Term(
                    _times_moment(term.pref, j, dx, dy, -math.comb(k, j)),
                    piece * hp1 ** (k - j),
                    shift_x, shift_y, term.lits + [exist],
                )
        return

    # one-sided ray: must contract for large s
    if lower is not None:
        base, dx, dy = lower, bx, by
        sub = LinForm.of(z) + base
    else:
        base, dx, dy = upper, -bx, -by
        sub = base - LinForm.of(z)
    if not contracting(dx, dy):
        if _has_point(term.lits):
            raise Divergent(
                f"ray {z} -> {'+' if lower is not None else '-'}infinity "
                f"has non-contracting weight X^{dx} Y^{dy}"
            )
        return
    if dy > 0:
        ctx["sigma"].append(dx // dy + 1)
    mult = term.mult.substitute(i, _as_laurent(sub, index))
    x0 = xrest + base.scale(bx)
    y0 = yrest + base.scale(by)
    for k, piece in mult.split(i).items():
        yield _Term(
            _times_moment(term.pref, k, dx, dy),
            piece, x0, y0, list(term.lits),
        )


def _bound_branches(lits, z, denoms=()):
    """The plan that eliminates z from lits: (M0, branches), a branch
    (r, rest, L, U) running z from L to U (None for a side without a
    bound) at z = M0*z + r where rest holds, z gone from rest.  The
    branches come from ``_residue_branches`` (M0 also clears denoms),
    then ``_unit_bounds``, then ``_tight_branches`` for the lower and
    the upper bounds; one with a false ground literal is dropped.  The
    plan reads literals only, so it serves every term that has them."""
    alive, lits = _check_ground_lits(lits)
    if not alive:
        return 1, []
    M0, residues = _residue_branches(lits, z, denoms)
    plan = []
    for r, rlits in residues:
        for lowers, uppers, rest in _unit_bounds(rlits, z):
            for (L, llits), (U, ulits) in itertools.product(
                    _tight_branches(lowers, +1), _tight_branches(uppers, -1)):
                alive, blits = _check_ground_lits(rest + llits + ulits)
                if alive:
                    plan.append((r, blits, L, U))
    return M0, plan


def _eliminate_variable(term, z, ctx):
    """Sum z out of a term along the plan of its literals, derived once
    per literal list and weight denominators of z (ctx["plans"])."""
    denoms = (term.xexp.coeff_den(z), term.yexp.coeff_den(z))
    key = (tuple(term.lits), denoms)
    if key not in ctx["plans"]:
        ctx["plans"][key] = _bound_branches(term.lits, z, denoms)
    M0, plan = ctx["plans"][key]
    stretch = LinForm._make({z: M0}, 0, 1)  # z = M0*z + r, z reused as u
    mult_stretch = _as_laurent(stretch, ctx["index"])
    at = {}
    for r, lits, L, U in plan:
        if r not in at:  # the term at z = M0*z + r
            at[r] = (term.mult.substitute(ctx["index"][z], mult_stretch + r),
                     term.xexp.substitute(z, stretch + r),
                     term.yexp.substitute(z, stretch + r))
        yield from _sum_progression(_Term(term.pref, *at[r], lits),
                                    z, L, U, ctx)


def _variable_order(free, A, B):
    plain = sorted(v for v in free if v not in A.vars() and v not in B.vars())
    xvars = sorted(v for v in free if v in B.vars() and v not in A.vars())
    yvars = sorted(v for v in free if v in A.vars())
    return plain + xvars + yvars


def sum_rational(spec: SummationSpec) -> SumResult:
    """Exact rational form of sum over solutions of q^(s*A + B).

    Variables are eliminated innermost-first: unweighted, then q-weighted,
    then s-weighted.  Raises Divergent/VariableBudget/ModulusBudget; never
    returns a silently wrong value.
    """
    parts, sigma0, ncells = _ground_terms(spec)
    return SumResult(_combine(parts), sigma0, ncells)


def _ground_terms(spec: SummationSpec):
    """Every variable eliminated: (parts, sigma0, cells).

    The sum is that of pref * m * X^ex Y^ey over the parts
    (pref, m, ex, ey), with pref a BivariateRational and m nonzero.  The
    terms carry prefactor keys (``_Term``), and each distinct key is
    built once: the normal form of a product is unique for its factor
    tuple, so the order of the products cannot change a byte.
    """
    qf = (
        spec.formula
        if spec.formula.is_quantifier_free()
        else eliminate_quantifiers(spec.formula)
    )
    ast = simplify(nnf(qf.ast))
    # every variable the formula names is summed over Z, also one that
    # simplification removed from every literal
    free = sorted(
        free_vars(spec.formula.ast) | spec.A.vars() | spec.B.vars()
    )
    if len(free) > VAR_BUDGET:
        raise VariableBudget(
            f"{len(free)} free variables exceed budget {VAR_BUDGET}"
        )
    for lit in _literals(ast):
        if lit[0] != "le" and lit[2] > MODULUS_BUDGET:
            raise ModulusBudget(
                f"modulus {lit[2]} exceeds budget {MODULUS_BUDGET}"
            )
    # the count bounds every list that cells builds of a simplified formula
    ncells = _cell_counts(ast)[0]
    if ncells > CELL_BUDGET:
        raise CellBudget(f"{ncells} cells exceed budget {CELL_BUDGET}")
    order = _variable_order(free, spec.A, spec.B)
    ctx = {"sigma": [], "index": {v: i for i, v in enumerate(order)}}
    cell_list = cells(ast)
    one = Laurent.const(1, len(order))
    terms = [
        _Term(((), 1), one, spec.B, spec.A.scale(-1), list(cell))
        for cell in cell_list
    ]
    for z in order:
        ctx["plans"], nxt = {}, []
        for term in terms:
            nxt.extend(_eliminate_variable(term, z, ctx))
        terms = nxt
    parts, built = [], {}
    for term in terms:
        alive, lits = _check_ground_lits(term.lits)
        if not alive:
            continue
        if lits:
            raise PresburgerError(f"unresolved constraints {lits}")
        m = term.mult.terms.get((0,) * len(order), 0)
        if len(term.mult.terms) > bool(m):
            raise PresburgerError(f"unresolved multiplier {term.mult}")
        if not m:
            continue
        cx, cy = term.xexp, term.yexp
        if not (cx.is_ground() and cy.is_ground()):
            raise PresburgerError("unresolved weight exponents")
        if cx.den != 1 or cy.den != 1:
            raise PresburgerError("non-integer ground exponent")
        pref = built.get(term.pref)
        if pref is None:
            pref = built[term.pref] = _build_prefactor(term.pref)
        parts.append((pref, m, cx.cnum, cy.cnum))
    sigma0 = max(ctx["sigma"]) if ctx["sigma"] else None
    return parts, sigma0, len(cell_list)


def _combine(parts):
    """The sum of the parts of ``_ground_terms``, one combine per
    denominator.

    The parts are bucketed by the denominator (factors, const) of their
    prefactor, and each bucket's numerators are summed as plain Laurent
    terms.  Each bucket is then lifted once to the union of the factor
    multiplicities and to the lcm of the constants.  That union is the
    one a left fold of ``BivariateRational.__add__`` over the parts
    reaches, and the normal form is unique for a fixed factor tuple, so
    the result equals the fold's byte for byte.
    """
    buckets = {}
    for pref, m, ex, ey in parts:
        acc = buckets.setdefault((pref.factors, pref.const), {})
        for (a, b), c in pref.numerator.terms.items():
            key = (a + ex, b + ey)
            acc[key] = acc.get(key, 0) + c * m
    union = {}
    for factors, _ in buckets:
        for key, mult in factors:
            union[key] = max(union.get(key, 0), mult)
    const = math.lcm(*(c for _, c in buckets)) if buckets else 1
    total = Laurent(2)
    for (factors, c), acc in buckets.items():
        num = Laurent(2, acc) * (const // c)
        have = dict(factors)
        for key, mult in union.items():
            for _ in range(mult - have.get(key, 0)):
                num = num * _factor_poly(*key)
        total = total + num
    return BivariateRational(total, union, const)


# ----------------------------------------------------------------------
# brute-force oracles

RANGED_CELLS = 1 << 18
"""The most grid cells that one ranged evaluation holds in an array."""


def _ranged_values(form, env):
    """The int64 values of an integral linear form on an open grid."""
    if form.den != 1:
        raise PresburgerError(
            f"non-integer coefficient in ranged literal {form}")
    total = np.int64(form.cnum)
    for v, c in form.nums.items():
        total = total + c * env[v]
    return total


def _eval_ranged(ast, env, witnesses, qdepth=0):
    """Truth values of a formula on an open numpy grid.

    ``env`` maps every free variable to an int64 array; the arrays
    broadcast against each other.  The quantifier at nesting depth d
    ranges over [-w, w] with w = witnesses[min(d, len(witnesses) - 1)].
    Its witnesses are taken in slices, so no array grows past
    ``RANGED_CELLS`` cells when the grid of ``env`` does not.
    """
    op = ast[0]
    if op in ("le", "cong", "ncong"):
        total = _ranged_values(ast[1], env)
        if op == "le":
            return total <= 0
        hit = total % ast[2] == 0
        return hit if op == "cong" else ~hit
    if op == "true":
        return np.bool_(True)
    if op == "false":
        return np.bool_(False)
    if op == "not":
        return ~_eval_ranged(ast[1], env, witnesses, qdepth)
    if op in ("and", "or"):
        a = _eval_ranged(ast[1], env, witnesses, qdepth)
        b = _eval_ranged(ast[2], env, witnesses, qdepth)
        return (a & b) if op == "and" else (a | b)
    if op not in ("exists", "forall"):
        raise PresburgerError(f"unknown node {op!r}")
    w = witnesses[min(qdepth, len(witnesses) - 1)]
    # the witness axis is the last one of every array
    inner = {v: a[..., None] for v, a in env.items()}
    cells = math.prod(np.broadcast_shapes(*(a.shape for a in env.values())))
    step = max(1, RANGED_CELLS // cells)
    out = np.bool_(op == "forall")
    for lo in range(-w, w + 1, step):
        inner[ast[1]] = np.arange(lo, min(lo + step, w + 1), dtype=np.int64)
        got = np.asarray(_eval_ranged(ast[2], inner, witnesses, qdepth + 1))
        if op == "exists":
            out = out | (got.any(axis=-1) if got.ndim else got)
        else:
            out = out & (got.all(axis=-1) if got.ndim else got)
    return out


def _grid_blocks(free, box):
    """Open grids that cover [-box, box]^free in lexicographic order.

    A block holds at most ``RANGED_CELLS`` cells: the trailing variables
    that fit are taken whole, the next one in slices and the leading ones
    one value at a time.  Yields (env, block shape).
    """
    n = len(free)
    axis = np.arange(-box, box + 1, dtype=np.int64)
    whole = 0  # trailing variables a block takes whole
    while whole < n and axis.size ** (whole + 1) <= RANGED_CELLS:
        whole += 1
    if whole == n:
        blocks = [[axis] * n]
    else:
        step = RANGED_CELLS // axis.size ** whole
        sliced = [axis[i:i + step] for i in range(0, axis.size, step)]
        heads = itertools.product(axis[:, None], repeat=n - whole - 1)
        blocks = (
            [*head, part] + [axis] * whole for head in heads for part in sliced
        )
    for parts in blocks:
        env = {
            v: p.reshape([-1 if j == i else 1 for j in range(n)])
            for i, (v, p) in enumerate(zip(free, parts))
        }
        yield env, tuple(p.size for p in parts)


def _numerator_form(form):
    """(d, d * form) with d the least positive integer that makes every
    coefficient of d * form integral: the form's denominator."""
    return form.den, LinForm._make(form.nums, form.cnum, 1)


def _check_int64(forms, box):
    """Refuse forms whose values on [-box, box] could overflow int64."""
    for form in forms:
        bound = abs(form.const) + box * sum(abs(c) for c in form.coeffs.values())
        if bound >= 2**62:
            raise PresburgerError(
                f"values of {form} on the box exceed the int64 range"
            )


def _integral(value, what):
    """The int value of an exact number that must be an integer."""
    if value.denominator != 1:
        raise PresburgerError(f"non-integer {what} {value} at a solution")
    return int(value.numerator)


def solution_counts(spec: SummationSpec, box, M=None):
    """Count the solutions in [-box, box]^free by their weight exponents.

    Returns ``{(level, e): number of solutions}``, where a solution weighs
    q^(s*A + B) with level = -A and e = B, both integers.  With M given,
    only levels below M are kept.  This one enumeration is the ground
    truth behind every brute-force sum and series.

    The formula is evaluated as written, with no quantifier elimination:
    every quantified variable ranges over [-box, box] as well, so the box
    must hold a witness for each solution (and, under ``forall``, a
    counterexample for each non-solution).  The grid is evaluated with
    numpy in blocks of at most ``RANGED_CELLS`` cells.
    """
    ast = spec.formula.ast
    free = sorted(free_vars(ast) | spec.A.vars() | spec.B.vars())
    dy, level_form = _numerator_form(spec.A.scale(-1))
    dx, e_form = _numerator_form(spec.B)
    forms = [lit[1] for lit in _literals(ast)]
    _check_int64([level_form, e_form, *forms], box)
    counts = collections.Counter()
    for env, shape in _grid_blocks(free, box):
        hit = np.broadcast_to(_eval_ranged(ast, env, [box]), shape)
        ny = np.broadcast_to(_ranged_values(level_form, env), shape)[hit]
        nx = np.broadcast_to(_ranged_values(e_form, env), shape)[hit]
        level, ry = np.divmod(ny, dy)
        e, rx = np.divmod(nx, dx)
        kept = level < M if M is not None else np.ones(level.shape, bool)
        bad = (ry != 0) | (kept & (rx != 0))
        if bad.any():
            # the first offending solution in lexicographic order
            i = int(np.argmax(bad))
            what, value = (
                ("Y-degree", Fraction(int(ny[i]), dy)) if ry[i]
                else ("X-degree", Fraction(int(nx[i]), dx))
            )
            raise PresburgerError(f"non-integer {what} {value} at a solution")
        counts.update(zip(level[kept].tolist(), e[kept].tolist()))
    return dict(counts)


def series_from_counts(counts, q, M) -> ZetaSeries:
    """Coefficients of Y^0..Y^{M-1}: coefficient m collects q^e over the
    counted solutions of level m (see ``solution_counts``)."""
    coeffs = [0] * M
    for (m, e), n in counts.items():
        if m < 0:
            raise PresburgerError("solution with negative Y-degree")
        if m < M:
            coeffs[m] += n * Fraction(q) ** e
    return ZetaSeries(q, coeffs, "enumerated")


def brute_force_sum(spec: SummationSpec, q, s, box) -> Fraction:
    """Exact sum of q^(s*A + B) over solutions in [-box, box]^free."""
    total = Fraction(0)
    for (level, e), n in solution_counts(spec, box).items():
        total += n * Fraction(q) ** _integral(e - s * level, "exponent")
    return total


def brute_force_series(spec: SummationSpec, q, M, box) -> ZetaSeries:
    """Series coefficients by direct enumeration: coefficient m collects
    q^B over solutions with -A = m.  The box must cover every solution
    with -A < M; suitable for formulas whose sections are bounded."""
    return series_from_counts(solution_counts(spec, box, M), q, M)
