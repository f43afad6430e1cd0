import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from localzeta import presburger
from localzeta.laurent import Laurent
from localzeta.presburger import (
    CellBudget,
    Divergent,
    LinForm,
    ModulusBudget,
    PresburgerError,
    PresburgerFormula,
    SummationSpec,
    VariableBudget,
    brute_force_series,
    brute_force_sum,
    cells,
    eliminate_quantifiers,
    free_vars,
    nnf,
    parse,
    parse_weight,
    series_from_counts,
    simplify,
    solution_counts,
    sum_rational,
)
from localzeta.zeta import BivariateRational, expand

SEED = 20260814


# ----------------------------------------------------------------------
# scalar oracle


def eval_formula(ast, env, box=None):
    """Truth value at one integer point.  Each quantifier ranges over
    [-box, box] by an explicit witness loop; with no box a quantifier is
    an error."""
    op = ast[0]
    if op == "le":
        return ast[1].evaluate(env) <= 0
    if op in ("cong", "ncong"):
        val = ast[1].evaluate(env)
        if val.denominator != 1:
            raise PresburgerError("congruence on a non-integer value")
        return (val.numerator % ast[2] == 0) == (op == "cong")
    if op == "true":
        return True
    if op == "false":
        return False
    if op == "not":
        return not eval_formula(ast[1], env, box)
    if op == "and":
        return eval_formula(ast[1], env, box) and eval_formula(ast[2], env, box)
    if op == "or":
        return eval_formula(ast[1], env, box) or eval_formula(ast[2], env, box)
    if box is None:
        raise PresburgerError(f"cannot evaluate {op!r} without a range")
    hits = (
        eval_formula(ast[2], {**env, ast[1]: k}, box)
        for k in range(-box, box + 1)
    )
    return any(hits) if op == "exists" else all(hits)


def _degree(value, what):
    if value.denominator != 1:
        raise PresburgerError(f"non-integer {what} {value} at a solution")
    return int(value)


def scalar_counts(spec, box, M=None):
    """``solution_counts`` point by point, in lexicographic order."""
    free = sorted(free_vars(spec.formula.ast) | spec.A.vars() | spec.B.vars())
    counts = {}
    for point in itertools.product(range(-box, box + 1), repeat=len(free)):
        env = dict(zip(free, point))
        if not eval_formula(spec.formula.ast, env, box):
            continue
        level = _degree(Fraction(-spec.A.evaluate(env)), "Y-degree")
        if M is not None and level >= M:
            continue
        key = (level, _degree(Fraction(spec.B.evaluate(env)), "X-degree"))
        counts[key] = counts.get(key, 0) + 1
    return counts


# ----------------------------------------------------------------------
# parsing


def test_parse_atoms():
    f = parse("n >= 0")
    assert f.ast == ("le", LinForm({"n": -1}))
    assert f.free == ("n",)
    f = parse("x < y")
    assert f.ast == ("le", LinForm({"x": 1, "y": -1}, 1))
    f = parse("x = 1 mod 4")
    assert f.ast == ("cong", LinForm({"x": 1}, -1), 4)
    f = parse("x != 0 mod 3")
    assert f.ast == ("ncong", LinForm({"x": 1}), 3)
    # equality desugars to a pair of inequalities
    f = parse("x = 2")
    assert f.ast[0] == "and"


def test_parse_quantifiers_and_connectives():
    f = parse("exists k (l = 2*k and 0 <= l)")
    assert f.ast[0] == "exists" and f.ast[1] == "k"
    assert f.free == ("l",)
    f = parse("not (x <= 0) or forall y (y <= x)")
    assert f.ast[0] == "or"


def test_parse_errors():
    with pytest.raises(PresburgerError):
        parse("x*y = 1")  # nonlinear
    with pytest.raises(PresburgerError):
        parse("x + ")
    with pytest.raises(PresburgerError):
        parse("x = 1 mod 0")
    with pytest.raises(PresburgerError):
        parse("x < 1 mod 2")  # mod needs = or !=
    with pytest.raises(PresburgerError):
        parse("exists and (x <= 1)")
    with pytest.raises(PresburgerError):
        parse("s <= 1")  # reserved
    # error messages carry source positions
    try:
        parse("x*y = 1")
    except PresburgerError as e:
        assert "position" in str(e)


def test_parse_weight():
    A, B = parse_weight("q^(-n*s - l)")
    assert A == LinForm({"n": -1})
    assert B == LinForm({"l": -1})
    A, B = parse_weight("q^(2*s*m - 3*l + 1)")
    assert A == LinForm({"m": 2})
    assert B == LinForm({"l": -3}, 1)
    A, B = parse_weight("q^(-s)")
    assert A == LinForm({}, -1) and B == LinForm({})
    with pytest.raises(PresburgerError):
        parse_weight("q^(n*s*s)")
    with pytest.raises(PresburgerError):
        parse_weight("p^(-n*s)")
    with pytest.raises(PresburgerError):
        parse_weight("q^(l*n)")


# ----------------------------------------------------------------------
# linear forms: int numerators over one denominator

FORM_VARS = ("x", "y", "z")


def _fraction_form(rng):
    """Random coefficients and constant as Fractions, mostly integral."""
    def value():
        if rng.random() < 0.6:
            return Fraction(rng.randint(-6, 6))
        return Fraction(rng.randint(-12, 12), rng.randint(2, 8))
    coeffs = {v: value() for v in rng.sample(FORM_VARS, rng.randint(0, 3))}
    return {v: c for v, c in coeffs.items() if c}, value()


def _fraction_sum(f, g, k=1):
    """f + k*g on (coefficient dict, constant) pairs of Fractions."""
    coeffs = dict(f[0])
    for v, c in g[0].items():
        coeffs[v] = coeffs.get(v, 0) + k * c
    return {v: c for v, c in coeffs.items() if c}, f[1] + k * g[1]


def _assert_form_is(form, want):
    """form is in normal form and has the value of the Fraction pair."""
    nums, cnum, den = form.nums, form.cnum, form.den
    assert all(type(n) is int and n for n in nums.values())
    assert type(cnum) is int and type(den) is int and den > 0
    assert math.gcd(den, cnum, *nums.values()) == 1
    coeffs, const = want
    assert {v: Fraction(n, den) for v, n in nums.items()} == coeffs
    assert Fraction(cnum, den) == const
    # equal values: equal forms, keys, hashes and text, as built from
    # the values themselves
    ref = LinForm(coeffs, const)
    assert form == ref and hash(form) == hash(ref)
    assert form.key() == ref.key() == (tuple(sorted(coeffs.items())), const)
    assert repr(form) == " + ".join(
        [f"{c}*{v}" for v, c in sorted(coeffs.items())] + [str(const)])


def test_linear_forms_are_int_numerators_over_one_denominator():
    rng = random.Random(SEED)
    for _ in range(400):
        fv, gv = _fraction_form(rng), _fraction_form(rng)
        f, g = LinForm(*fv), LinForm(*gv)
        var = rng.choice(FORM_VARS)
        k = rng.choice([-3, -1, 2, 5])
        q = Fraction(rng.randint(-7, 7) or 1, rng.randint(2, 6))
        env = {v: rng.randint(-9, 9) for v in FORM_VARS}
        c = fv[0].get(var, 0)
        dropped = ({v: x for v, x in fv[0].items() if v != var}, fv[1])
        cases = [
            (f, fv),
            (f + g, _fraction_sum(fv, gv)),
            (f - g, _fraction_sum(fv, gv, -1)),
            (f - f, ({}, Fraction(0))),
            (f + k, (fv[0], fv[1] + k)),
            (f - q, (fv[0], fv[1] - q)),
            (f.scale(k), _fraction_sum(({}, 0), fv, k)),
            (f.scale(q), _fraction_sum(({}, 0), fv, q)),
            (f.scale(0), ({}, Fraction(0))),
            (f.drop(var), dropped),
            (f.substitute(var, g), _fraction_sum(dropped, gv, c)),
        ]
        for got, want in cases:
            _assert_form_is(got, want)
            for v in FORM_VARS:
                assert got.coeff(v) == want[0].get(v, 0)
            assert got.evaluate(env) == want[1] + sum(
                x * env[v] for v, x in want[0].items())
    # the text of integral and rational forms
    assert repr(LinForm({"y": -1, "x": 2}, 3)) == "2*x + -1*y + 3"
    assert repr(LinForm({"x": Fraction(4, 6), "y": Fraction(-3, 2)},
                        Fraction(5, 6))) == "2/3*x + -3/2*y + 5/6"
    assert repr(LinForm({"x": Fraction(1, 2)}, Fraction(1, 2)).scale(2)) \
        == "1*x + 1"
    for coeffs, const in (({"x": 0.5}, 0), ({"x": 1}, 1.5),
                          ({"x": np.float64(2.0)}, 0)):
        with pytest.raises(TypeError):
            LinForm(coeffs, const)
    with pytest.raises(TypeError):
        LinForm({"x": 1}).scale(0.5)


# ----------------------------------------------------------------------
# quantifier elimination: exact small cases


def test_qe_divisibility():
    qf = eliminate_quantifiers("exists k (n = 2*k)")
    assert qf.ast == ("cong", LinForm({"n": 1}), 2)


def test_qe_interval_nonempty():
    qf = eliminate_quantifiers("exists k (l <= k and k <= u)")
    assert qf.ast == ("le", LinForm({"l": 1, "u": -1}))


def test_qe_preserves_free_variables():
    qf = eliminate_quantifiers("exists k (x <= k and k <= y and k = 0 mod 3)")
    assert qf.is_quantifier_free()
    assert qf.free == ("x", "y")


def test_qe_forall():
    qf = eliminate_quantifiers("forall k (k <= n or k >= m)")
    assert qf.is_quantifier_free()
    ast = simplify(nnf(qf.ast))
    for n in range(-8, 9):
        for m in range(-8, 9):
            assert eval_formula(ast, {"n": n, "m": m}) == (m <= n + 1)


def test_qe_three_quantifiers_semigroup():
    # x representable as 3a+5b+7c with a,b,c >= 0 iff x >= 0 and
    # x not in {1, 2, 4}
    qf = eliminate_quantifiers(
        "exists a (exists b (exists c ("
        "a >= 0 and b >= 0 and c >= 0 and x = 3*a + 5*b + 7*c)))"
    )
    assert qf.is_quantifier_free()
    ast = simplify(nnf(qf.ast))
    for x in range(-25, 26):
        want = x >= 0 and x not in (1, 2, 4)
        assert eval_formula(ast, {"x": x}) == want, x


def test_qe_three_quantifiers_alternation():
    # every a > x is representable as 2b+3c with b,c >= 0 iff x >= 1
    qf = eliminate_quantifiers(
        "forall a (a <= x or exists b (exists c ("
        "a = 2*b + 3*c and b >= 0 and c >= 0)))"
    )
    ast = simplify(nnf(qf.ast))
    for x in range(-25, 26):
        assert eval_formula(ast, {"x": x}) == (x >= 1), x
    # exists-forall-exists: the inner parts collapse, leaving parity of x
    qf = eliminate_quantifiers(
        "exists k (x = 2*k and forall a (a > k or exists b ("
        "a = 2*b or a = 2*b + 1)))"
    )
    ast = simplify(nnf(qf.ast))
    for x in range(-25, 26):
        assert eval_formula(ast, {"x": x}) == (x % 2 == 0), x


# ----------------------------------------------------------------------
# quantifier elimination: randomized corpus
#
# Ranged evaluation is exact on the free box only if each quantifier
# range covers every Cooper witness (or counterexample) relative to the
# values its outer variables actually take.  Ranges therefore grow with
# quantifier depth: the outermost quantifier only needs witnesses bounded
# in terms of the [-25, 25] free box, the next one in terms of that
# range, and so on.  With atom coefficients bounded by 2 (one quantifier)
# or 1 (two quantifiers), constants by 8 resp. 4, and moduli by 4, the
# bound terms stay below 250 resp. (150, 210), so the ranges used here
# are provably sufficient.  Three-quantifier behaviour is covered by the
# exact closed-form tests above.


_eval_ranged = presburger._eval_ranged


def _random_tree(rng, variables, depth, small):
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        lo, hi = (-1, 1) if small else (-2, 2)
        clo, chi = (-4, 4) if small else (-8, 8)
        coeffs = {
            v: rng.randint(lo, hi)
            for v in rng.sample(variables, k=min(len(variables), 2))
        }
        form = LinForm(coeffs, rng.randint(clo, chi))
        kind = rng.random()
        if kind < 0.6:
            return ("le", form)
        return ("cong" if kind < 0.85 else "ncong", form,
                rng.choice([2, 3, 4]))
    if roll < 0.55:
        return ("not", _random_tree(rng, variables, depth - 1, small))
    op = "and" if rng.random() < 0.5 else "or"
    return (
        op,
        _random_tree(rng, variables, depth - 1, small),
        _random_tree(rng, variables, depth - 1, small),
    )


def _corpus_formula(rng, free, nquants, small):
    qvars = [f"k{i + 1}" for i in range(nquants)]
    ast = _random_tree(rng, free + qvars, 3, small)
    for i, qv in enumerate(qvars):
        quant = "exists" if rng.random() < 0.7 else "forall"
        ast = (quant, qv, ast)
        if rng.random() < 0.4:
            side = _random_tree(rng, free + qvars[i + 1:], 1, small)
            ast = ("and" if rng.random() < 0.5 else "or", ast, side)
    return ast


def test_qe_random_corpus_agrees_on_boxes():
    rng = random.Random(SEED)
    box = 25
    grid = np.arange(-box, box + 1, dtype=np.int64)
    cases = [(1, 130), (2, 80)]
    total = 0
    for nquants, count in cases:
        for _ in range(count):
            small = nquants == 2
            free = ["x"] if nquants == 2 else ["x", "y"][: rng.choice([1, 2])]
            ast = _corpus_formula(rng, free, nquants, small)
            qf = eliminate_quantifiers(PresburgerFormula(ast, "corpus"))
            assert qf.is_quantifier_free()
            assert free_vars(qf.ast) <= free_vars(ast)
            witnesses = [150, 210] if nquants == 2 else [250]
            if len(free) == 1:
                env = {"x": grid}
            else:
                env = {"x": grid[:, None], "y": grid[None, :]}
            want = _eval_ranged(ast, env, witnesses)
            got = _eval_ranged(simplify(nnf(qf.ast)), env, witnesses)
            wb, gb = np.broadcast_arrays(np.asarray(want), np.asarray(got))
            assert np.array_equal(wb, gb), f"QE mismatch: {ast}"
            total += 1
    assert total >= 200


# repr of the eliminated formula and the number of its cells, recorded
# before QE and cells shared one literal traversal; a full repr where it
# is short, else its sha256
QE_GOLDEN = [
    ("exists k (n = 2*k + 1) and n >= 0",
     "('and', ('cong', 1*n + -1, 2), ('le', -1*n + 0))", 1),
    ("exists k (l = 3*k and 0 <= k and k <= n) and n >= 0",
     "2aecbaa129d3b00ee262ba2bac515ad16cbef797436cf3467738c78f6e1147ed", 4),
    ("exists k (2*k <= n and n <= 2*k + 1 and k != 1 mod 2)",
     "('or', ('and', ('ncong', 1*n + -3, 4), ('cong', 1*n + -1, 2)),"
     " ('and', ('ncong', 1*n + -2, 4), ('cong', 1*n + 0, 2)))", 3),
    ("forall k (k <= 0 or n + k >= 3) and n <= 5",
     "('and', ('le', -1*n + 2), ('le', 1*n + -5))", 1),
    ("not exists k (3*k = n) and n >= 0",
     "('and', ('ncong', 1*n + 0, 3), ('le', -1*n + 0))", 1),
    ("exists a (exists b (x = 2*a + 3*b and a >= 0 and b >= 0))",
     "e325a07d640fa173ce4c7143ec6c9e163e15a19c6332965de11206fb2055292f", 191),
    ("forall a (exists b (a + b = x mod 3 or a <= x))", "('true',)", 1),
]


@pytest.mark.parametrize("formula,golden,ncells", QE_GOLDEN)
def test_qe_and_cells_golden(formula, golden, ncells):
    qf = eliminate_quantifiers(formula)
    got = repr(qf.ast)
    if not golden.startswith("("):
        got = hashlib.sha256(got.encode()).hexdigest()
    assert got == golden
    ast = simplify(nnf(qf.ast))
    assert len(cells(ast)) == ncells
    assert presburger._cell_counts(ast)[0] == ncells


def test_map_literals_needs_quantifier_free_nnf():
    lit = ("le", LinForm({"x": 1}, -1))
    for ast in [("not", lit), ("exists", "x", lit),
                ("and", lit, ("forall", "y", lit))]:
        with pytest.raises(PresburgerError):
            presburger._map_literals(ast, lambda l: l)


# ----------------------------------------------------------------------
# disjoint cells


def test_cells_partition_solution_set():
    rng = random.Random(SEED + 1)
    grid = np.arange(-12, 13, dtype=np.int64)
    env = {"x": grid[:, None], "y": grid[None, :]}
    for _ in range(40):
        ast = _random_tree(rng, ["x", "y"], 3, False)
        want = np.broadcast_to(_eval_ranged(ast, env, [0]), (25, 25))
        count = np.zeros((25, 25), dtype=np.int64)
        for cell in cells(ast):
            hit = np.ones((25, 25), dtype=bool)
            for lit in cell:
                hit &= np.broadcast_to(_eval_ranged(lit, env, [0]), (25, 25))
            count += hit
        # disjoint and covering: multiplicity equals the indicator
        assert np.array_equal(count, want.astype(np.int64))
        assert presburger._cell_counts(ast) == (
            len(cells(ast)), len(cells(nnf(ast, neg=True))))


# ----------------------------------------------------------------------
# symbolic summation: documented examples


def test_sum_geometric():
    res = sum_rational(SummationSpec("n >= 0", "q^(-n*s)"))
    assert res.rational == BivariateRational(
        Laurent.const(1, 2), {(0, 1): 1}
    )
    assert res.sigma0 == 1


def test_sum_even_levels():
    res = sum_rational(SummationSpec("n >= 0 and n = 0 mod 2", "q^(-n*s)"))
    assert res.rational == BivariateRational(
        Laurent.const(1, 2), {(0, 2): 1}
    )


def test_sum_staircase():
    # sum over 0 <= l <= n of q^(-ns-l):
    # [1/(1-Y) - X^-1/(1 - X^-1 Y)] / (1 - X^-1)
    res = sum_rational(SummationSpec("0 <= l and l <= n", "q^(-n*s - l)"))
    a = BivariateRational(Laurent.const(1, 2), {(0, 1): 1})
    b = BivariateRational(Laurent.monomial(1, (-1, 0)), {(-1, 1): 1})
    c = BivariateRational(Laurent.const(1, 2), {(-1, 0): 1})
    assert res.rational == (a - b) * c
    assert res.sigma0 == 1
    for q in (2, 3):
        coeffs = expand(res.rational, q, 5).coeffs
        want = [
            sum(Fraction(q) ** -l for l in range(n + 1)) for n in range(5)
        ]
        assert coeffs == want


def test_sum_triangular_counts():
    res = sum_rational(
        SummationSpec("0 <= a and a <= b and b <= n", "q^(-n*s)")
    )
    got = expand(res.rational, 2, 6).coeffs
    assert got == [1, 3, 6, 10, 15, 21]


def test_sum_quantified_input():
    res = sum_rational(
        SummationSpec("exists k (n = 2*k) and n >= 0", "q^(-n*s)")
    )
    assert res.rational == BivariateRational(
        Laurent.const(1, 2), {(0, 2): 1}
    )


def test_sum_finite_support():
    res = sum_rational(SummationSpec("0 <= n and n <= 2", "q^(-n*s)"))
    # finite sums need no convergence constraint
    assert res.sigma0 is None
    assert expand(res.rational, 5, 4).coeffs == [1, 1, 1, 0]


def test_sum_empty_set_is_zero():
    res = sum_rational(SummationSpec("n >= 0 and n <= -1", "q^(-n*s)"))
    assert res.rational.is_zero()


@pytest.mark.parametrize("where", [
    "n >= 0 and n <= -1 and x <= 0",
    "x >= 0 and n >= 0 and n = 1 mod 2 and n = 0 mod 2",
    # two lower bounds on x: the tight-bound literal has coefficient 1/2
    "2*x >= n and x >= 0 and n >= 0 and n <= -1",
    # eliminating n first would leave residue modulus 105 for y, over
    # the budget; the rational relaxation of the n, y literals is
    # already empty
    "x <= 0 and n >= 0 and 35*n + 6*y <= 2 and 21*n + 10*y >= 5 and y >= 0",
])
def test_empty_cell_with_an_unbounded_variable_sums_to_zero(where):
    # x runs along a non-contracting ray, but no n satisfies the rest of
    # the cell, so the set is empty and the sum is 0, not Divergent
    spec = SummationSpec(where, "q^(-n*s)")
    assert solution_counts(spec, 6) == {}
    res = sum_rational(spec)
    assert res.rational.is_zero()
    assert expand(res.rational, 3, 4).coeffs \
        == series_from_counts(solution_counts(spec, 6, 4), 3, 4).coeffs


@pytest.mark.parametrize("where,weight", [
    # no odd n is 0 mod 6: each branch that floors n/2 has a clashing
    # congruence on n, so the bound 65*l >= n is never split (it raised
    # ModulusBudget while those branches lived)
    ("n >= 0 and 2*l <= n and 65*l >= n and n = 1 mod 2 and 3*n = 0 mod 6",
     "q^(-n*s)"),
    # no b is even and odd; the empty branches once reached the
    # non-contracting ray in n and raised Divergent
    ("a >= -1 and 2*a + 1 <= n and a <= 2*n + 1 and b >= -1"
     " and 3*b = 0 mod 6 and 2*b != 0 mod 4 and 3*a = 0 mod 5",
     "q^(-b*s - 2*a)"),
])
def test_clashing_congruences_empty_a_cell_before_it_errs(where, weight):
    spec = SummationSpec(where, weight)
    assert solution_counts(spec, 6) == {}
    assert sum_rational(spec).rational.is_zero()


def test_has_point_matches_a_search_over_a_box():
    # conjunctions inside the box -3 <= x, y <= 3, with rational
    # coefficients on the inequalities, against every point of the box
    rng = random.Random(11)
    box = range(-3, 4)
    for _ in range(300):
        lits = [("le", LinForm({v: sign}, -3))
                for v in "xy" for sign in (1, -1)]
        for _ in range(rng.randint(1, 3)):
            coeffs = {v: Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                      for v in "xy"}
            if rng.random() < 0.3:
                lits.append(("cong", LinForm(
                    {v: c.numerator for v, c in coeffs.items()},
                    rng.randint(-3, 3)), rng.choice([2, 3])))
            else:
                lits.append(("le", LinForm(coeffs,
                                           Fraction(rng.randint(-6, 6), 2))))

        def holds(lit, env):
            value = lit[1].evaluate(env)
            return value <= 0 if lit[0] == "le" else value % lit[2] == 0

        want = any(all(holds(lit, {"x": x, "y": y}) for lit in lits)
                   for x in box for y in box)
        assert presburger._has_point(lits) == want


BOX_RAY = "t >= 0 and -3 <= x and x <= 3 and -3 <= y and y <= 3 and "


# systems of that box search with no integer point and a non-empty
# rational relaxation, on the non-contracting ray t >= 0 (t is summed
# first), each with a twin that changes only its congruence and has
# points; Cooper's elimination within a budget left all five undecided
@pytest.mark.parametrize("where,twin", [
    ("6*y + 9 <= 8*x and 2*x + 12*y >= 9 and 2*x + 4*y = 3 mod 2",
     "6*y + 9 <= 8*x and 2*x + 12*y >= 9 and 2*x + 4*y = 2 mod 2"),
    ("3*x + 2*y >= -5 and 2*x + 3 <= 12*y and 3*y = 2 mod 3",
     "3*x + 2*y >= -5 and 2*x + 3 <= 12*y and 3*y = 3 mod 3"),
    ("8*y <= 3*x + 6 and 4*x = 3 mod 2",
     "8*y <= 3*x + 6 and 4*x = 2 mod 2"),
    ("6*x + 2*y <= -5 and 3*x + 2*y >= 0 and 4*x + 2*y = 0 mod 3",
     "6*x + 2*y <= -5 and 3*x + 2*y >= 0 and 4*x + 2*y = 1 mod 3"),
    ("3*x + 2*y >= 9 and 4*x + y <= 9 and 3*x - y = 1 mod 2",
     "3*x + 2*y >= 9 and 4*x + y <= 9 and 3*x - y = 0 mod 2"),
], ids=["even-odd", "3y-mod-3", "4x-mod-2", "mod-3-wedge", "mod-2-wedge"])
def test_an_empty_system_on_a_ray_sums_to_zero(where, twin):
    spec = SummationSpec(BOX_RAY + where, "q^(-x*s - y*s)")
    assert solution_counts(spec, 6) == {}
    assert sum_rational(spec).rational.is_zero()
    spec = SummationSpec(BOX_RAY + twin, "q^(-x*s - y*s)")
    assert solution_counts(spec, 6)
    with pytest.raises(Divergent):
        sum_rational(spec)


def test_has_point_stops_at_the_modulus_budget():
    # it decides or raises; it never guesses
    with pytest.raises(ModulusBudget):
        presburger._has_point([("cong", LinForm.of("x"), 128)])


def test_sum_errors():
    with pytest.raises(Divergent):
        sum_rational(SummationSpec("n >= 0 or n <= 0", "q^(-n*s)"))
    with pytest.raises(Divergent):
        sum_rational(SummationSpec("n >= 0", "q^(n*s)"))
    with pytest.raises(Divergent):
        sum_rational(SummationSpec("n <= 5", "q^(-n*s)"))
    with pytest.raises(Divergent):
        sum_rational(SummationSpec("n >= 0", "q^(0*n)"))
    with pytest.raises(Divergent):
        # x is summed over Z although simplification drops its literal
        sum_rational(
            SummationSpec("n >= 0 and (x <= 0 or 0 <= 0)", "q^(-n*s)")
        )
    with pytest.raises(VariableBudget):
        sum_rational(SummationSpec(
            "a >= 0 and b >= 0 and c >= 0 and d >= 0 and e >= 0"
            " and a + b + c + d + e <= n",
            "q^(-n*s)",
        ))
    with pytest.raises(ModulusBudget):
        sum_rational(SummationSpec("n >= 0 and n = 0 mod 128", "q^(-n*s)"))
    with pytest.raises(CellBudget):
        # 13 independent disjunctions: 2^13 cells
        sum_rational(SummationSpec(
            " and ".join(f"(n >= {k} or n <= -{k})" for k in range(1, 14)),
            "q^(-n*s)"))
    with pytest.raises(PresburgerError):
        SummationSpec("0 <= 0", "q^(-n*s)")  # n is not free


def test_sum_denominator_shape():
    # factors are (1 - X^a Y^b) with b >= 0: no negative s-direction poles
    specs = [
        SummationSpec("0 <= l and l <= n", "q^(-n*s - l)"),
        SummationSpec("0 <= l and l <= 2*n and l = 1 mod 3", "q^(-n*s - l)"),
        SummationSpec("0 - n <= l and l <= n", "q^(-n*s + l)"),
        SummationSpec("n >= 3 and n != 1 mod 3", "q^(-n*s)"),
    ]
    for spec in specs:
        rational = sum_rational(spec).rational
        for (a, b), _ in rational.factors:
            assert b >= 0


def test_sigma0_shifted_ray():
    # weight q^(n - n*s): step ratio X Y, contracts only for s >= 2
    res = sum_rational(SummationSpec("n >= 0", "q^(n - n*s)"))
    assert res.sigma0 == 2
    assert expand(res.rational, 3, 4).coeffs == [1, 3, 9, 27]


# sha256 of repr(rational) and sigma0 of sum_rational, recorded with the
# all-Fraction engine; the int-first coefficients must not move a byte
GOLDEN = [
    ("0 <= a and a <= 2*n and 0 <= b and b <= 3*n and a + b = 3 mod 5",
     "q^(-n*s - a - 2*b)",
     "1c746ec6986e7d26db8e08bb7ca8aa287c46708160da42d6163ee460803f2aa6", 1),
    ("0 <= a and a <= 3*n and 0 <= b and b <= n and a + 2*b = 1 mod 5",
     "q^(-n*s - 2*a - b)",
     "7f03a86ff8dce2898349e7c7fd95dff715b6a05bd463b760338f5be97bb4594b", 1),
    ("0 <= a and a <= 3*n and 0 <= b and b <= 3*n and a + 3*b = 4 mod 5",
     "q^(-n*s - a - 3*b)",
     "f440fdc1ad55d1e803aea559ce31286b01ac56191af551af20809ed08a2a415a", 1),
    ("exists k (0 <= k and k <= n and l = 3*k + 2) and n >= 0",
     "q^(-n*s - l)",
     "e8b162cba5260bf01e560e10f12044f9af029d330ad2dc5baf9188ebcebfe50b", 1),
]


@pytest.mark.parametrize("formula,weight,digest,sigma0", GOLDEN)
def test_sum_rational_golden_repr(formula, weight, digest, sigma0):
    res = sum_rational(SummationSpec(formula, weight))
    assert hashlib.sha256(repr(res.rational).encode()).hexdigest() == digest
    assert res.sigma0 == sigma0
    assert type(res.rational.const) is int
    assert all(type(c) is int for c in res.rational.numerator.terms.values())


def _left_fold(spec):
    """The parts of the engine added one at a time, as before the
    one-combine-per-denominator sum."""
    parts, _, _ = presburger._ground_terms(spec)
    total = BivariateRational(Laurent.const(0, 2))
    for pref, m, ex, ey in parts:
        total = total + pref * Laurent.monomial(m, (ex, ey))
    return total


def _fold_corpus():
    heavy = [
        (f"0 <= a and a <= {c1}*n and 0 <= b and b <= {c2}*n"
         f" and a + {min(slot + 1, mod - 1)}*b = {mod - 1} mod {mod}",
         f"q^(-n*s - {w1}*a - {w2}*b)")
        for mod in (2, 3, 4, 5)
        for slot, ((c1, c2), (w1, w2)) in enumerate((
            ((2, 3), (1, 2)), ((3, 1), (2, 1)), ((3, 3), (1, 3))
        ))
    ]
    quantified = [(formula, "q^(-n*s - l)") for formula, _ in EXISTS_SPECS]
    light = [(text, weight) for text, weight, _ in _corpus_specs(20)]
    return heavy + quantified + light + [
        ("0 <= a and a <= b and b <= n", "q^(-n*s)"),
        ("n >= 0 and n <= -1", "q^(-n*s)"),
        ("0 - n <= l and l <= n", "q^(-n*s + l)"),
    ]


def test_sum_rational_equals_the_left_fold():
    for formula, weight in _fold_corpus():
        spec = SummationSpec(formula, weight)
        got = sum_rational(spec).rational
        assert repr(got) == repr(_left_fold(spec)), (formula, weight)


# The three (bound, weight) designs of the heavy benchmark specs at moduli
# 2-5 with fixed residues, then one spec of each light and each quantified
# shape.  Every solution of level below 4 lies in [-10, 10]^free.
PINNED_SPECS = [
    (f"0 <= a and a <= {c1}*n and 0 <= b and b <= {c2}*n and a + "
     f"{min(slot + 1, mod - 1)}*b = {(2 * slot + 1) % mod} mod {mod}",
     f"q^(-n*s - {w1}*a - {w2}*b)")
    for mod in (2, 3, 4, 5)
    for slot, ((c1, c2), (w1, w2)) in enumerate((
        ((2, 3), (1, 2)), ((3, 1), (2, 1)), ((3, 3), (1, 3))
    ))
] + [
    ("0 <= l and l <= 2*n + 3 and n >= 0", "q^(-n*s - 2*l)"),
    ("0 <= l and l <= 2*n and l = 1 mod 3 and n >= 0", "q^(-n*s - l)"),
    ("0 <= a and a <= n + 2 and 0 <= b and b <= n + 1 and n >= 0",
     "q^(-n*s - a - b)"),
    ("n >= 2 and n = 3 mod 6", "q^(-n*s)"),
    ("(0 <= l and l <= n) or (3 <= l and l <= n + 3)", "q^(-n*s - l)"),
    ("exists k (n = 3*k + 2) and 0 <= l and l <= n", "q^(-n*s - l)"),
    ("exists k (l = 2*k and 0 <= k and k <= n) and n >= 0", "q^(-n*s - l)"),
    ("exists k (0 <= k and k <= n and l = 3*k + 1) and n >= 0",
     "q^(-n*s - l)"),
]


def test_pinned_specs_sum_byte_identically():
    # sha256 of every (repr(rational), sigma0, cells), recorded before
    # the summation engine dropped clashing residue branches early
    seen = []
    for formula, weight in PINNED_SPECS:
        spec = SummationSpec(formula, weight)
        res = sum_rational(spec)
        seen.append((repr(res.rational), res.sigma0, res.cells))
        assert expand(res.rational, 2, 4).coeffs == series_from_counts(
            solution_counts(spec, 10, 4), 2, 4).coeffs, formula
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == (
        "485659885d2f9edf59e5b91586a108b6db796bd87bab071a98eb28e31fdb9a6a")


# ----------------------------------------------------------------------
# runtime invariants raise PresburgerError


# the multipliers of _term are indexed over these variables
INDEX = {"x": 0, "y": 1, "z": 2}


def _ctx():
    return {"sigma": [], "index": INDEX}


def _term(lits, xexp=None, yexp=None):
    return presburger._Term(
        ((), 1), Laurent.const(1, len(INDEX)),
        xexp or LinForm(), yexp or LinForm({"z": 1}), lits,
    )


def test_unit_bounds_rejects_non_inequalities():
    z = LinForm.of("z")
    # a congruence on z must have been resolved by the residue split
    with pytest.raises(PresburgerError, match="not an integral inequality"):
        presburger._unit_bounds([("cong", z, 3)], "z")
    # so must a rational coefficient of z
    with pytest.raises(PresburgerError, match="not an integral inequality"):
        presburger._unit_bounds([("le", z.scale(Fraction(1, 2)) - 3)], "z")


def _holds(lit, env):
    """A congruence literal at a point, as the engine grounds it: the
    value must be an integer multiple of the modulus."""
    val = Fraction(lit[1].evaluate(env))
    hit = val.denominator == 1 and val.numerator % lit[2] == 0
    return hit == (lit[0] == "cong")


def test_congruence_clash_never_refutes_a_solvable_system():
    rng = random.Random(SEED + 7)
    clashes = 0
    for _ in range(500):
        lits = []
        for _ in range(rng.randint(1, 3)):
            den = rng.randint(1, 3)
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), den)
            k = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            lits.append((rng.choice(["cong", "ncong"]),
                         LinForm({"x": c}, k), rng.randint(2, 6)))
        period = math.lcm(*(lit[2] * lit[1].coeff("x").denominator
                            for lit in lits))
        solvable = any(all(_holds(lit, {"x": x}) for lit in lits)
                       for x in range(-period, period))
        clash = presburger._congruences_clash(lits)
        assert not (clash and solvable), lits
        # within the budget the search over one period is exact
        if period <= presburger.MODULUS_BUDGET:
            assert clash == (not solvable), lits
        clashes += clash
    assert clashes >= 150


def test_congruence_clash_reads_single_variable_literals_only():
    x, y, z = (LinForm.of(v) for v in "xyz")
    assert presburger._congruences_clash(
        [("cong", x - 1, 2), ("ncong", x + 1, 2)])
    # the same clash on x + y is not searched
    assert not presburger._congruences_clash(
        [("cong", x + y - 1, 2), ("ncong", x + y + 1, 2)])
    # nor one whose period exceeds the budget (x = 0 mod 67 and 1 mod 67)
    assert not presburger._congruences_clash(
        [("cong", x, 67), ("cong", x - 1, 67)])
    # z <= x/2 on x = 1 mod 2 keeps only the residue x = 1 mod 2 ...
    lits = [("le", z.scale(2) - x), ("cong", x - 1, 2)]
    assert len(presburger._unit_bounds(lits, "z")) == 1
    # ... and with x + y in place of x both residues stay
    lits = [("le", z.scale(2) - x - y), ("cong", x + y - 1, 2)]
    assert len(presburger._unit_bounds(lits, "z")) == 2
    # z + x = 0 mod 3 on x = 1 mod 3 leaves only z = 2 mod 3
    lits = [("cong", z + x, 3), ("cong", x - 1, 3)]
    _, residues = presburger._residue_branches(lits, "z", ())
    assert [r for r, _ in residues] == [2]
    lits = [("cong", z + x + y, 3), ("cong", x + y - 1, 3)]
    assert len(presburger._residue_branches(lits, "z", ())[1]) == 3


def test_clashing_residues_are_dropped_when_created(monkeypatch):
    runs = []
    progression = presburger._sum_progression

    def counted(*args):
        runs.append(args[1])
        return progression(*args)

    monkeypatch.setattr(presburger, "_sum_progression", counted)
    formula, weight, digest, sigma0 = GOLDEN[0]
    res = sum_rational(SummationSpec(formula, weight))
    assert hashlib.sha256(repr(res.rational).encode()).hexdigest() == digest
    assert res.sigma0 == sigma0
    # 375 runs when clashing branches lived until their variable's turn
    assert len(runs) <= 175


def _counting_progressions(monkeypatch):
    """Wrap _sum_progression; returns a list that collects, per call,
    whether its two-sided range is ground and empty and how many terms
    it yields."""
    runs = []
    progression = presburger._sum_progression

    def counted(term, z, lower, upper, ctx):
        out = list(progression(term, z, lower, upper, ctx))
        empty = (lower is not None and upper is not None
                 and presburger._ground_literal(("le", lower - upper))
                 == ("false",))
        runs.append((empty, len(out)))
        return iter(out)

    monkeypatch.setattr(presburger, "_sum_progression", counted)
    return runs


def test_each_prefactor_key_is_built_once(monkeypatch):
    built, products = [], []
    build, product = presburger._build_prefactor, BivariateRational.__mul__

    def recording_build(pref):
        built.append(pref)
        return build(pref)

    def counting_product(self, other):
        products.append(1)
        return product(self, other)

    monkeypatch.setattr(presburger, "_build_prefactor", recording_build)
    monkeypatch.setattr(BivariateRational, "__mul__", counting_product)
    runs = _counting_progressions(monkeypatch)
    # the second heavy benchmark design at modulus 5 (GOLDEN[1])
    res = sum_rational(SummationSpec(
        "0 <= a and a <= 3*n and 0 <= b and b <= n and a + 2*b = 1 mod 5",
        "q^(-n*s - 2*a - b)"))
    assert hashlib.sha256(repr(res.rational).encode()).hexdigest() == (
        "7f03a86ff8dce2898349e7c7fd95dff715b6a05bd463b760338f5be97bb4594b")
    assert len(built) == len(set(built))
    # one product per moment and one for the coefficient of each key, and
    # none per yielded term: there were 325 when each term carried its
    # prefactor built, for 250 yielded terms
    assert len(products) == sum(len(moments) + 1 for moments, _ in built)
    assert len(products) == 16
    assert sum(n for _, n in runs) == 250
    # the two cells eliminate a, b with moments X^-2, X^-3 and X^-3, X^-2:
    # the sorted key builds their products once, not once per order
    built.clear()
    res = sum_rational(SummationSpec(
        "0 <= a and a <= n and 0 <= b and b <= n and n >= 0 and"
        " ((c = 0 and a = 0 mod 2 and b = 0 mod 3)"
        " or (c = 1 and a = 0 mod 3 and b = 0 mod 2))", "q^(-n*s - a - b)"))
    assert hashlib.sha256(repr(res.rational).encode()).hexdigest() == (
        "4795ef40282df03328068704f94684dd9f07371d5518c4df741aa218de21d83f")
    assert len(built) == 3


@pytest.mark.parametrize("modulus,rational,coeffs", [
    (3, "(3*Y + 3*Y^4) / (1 - X^0 Y^3)^2", [0, 3, 0, 0, 9, 0, 0, 15]),
    (2, "(3*Y + Y^3) / (1 - X^0 Y^2)^2", [0, 3, 0, 7, 0, 11, 0, 15]),
])
def test_a_residue_split_substitutes_into_the_multiplier(modulus, rational,
                                                          coeffs):
    # summing l leaves the multiplier 2*n + 1; the split on n = 1 mod
    # modulus must turn it into 2*(modulus*n + 1) + 1, the same for every
    # term whatever plan it shares
    spec = SummationSpec(f"0 <= l and l <= 2*n and n = 1 mod {modulus}",
                         "q^(-n*s)")
    res = sum_rational(spec)
    assert repr(res.rational) == rational
    series = expand(res.rational, 3, 8)
    assert series.coeffs == coeffs
    assert brute_force_series(spec, 3, 8, 16) == series


def test_each_literal_list_is_planned_once_per_variable(monkeypatch):
    planned, eliminated = [], []
    plan, eliminate = (presburger._bound_branches,
                       presburger._eliminate_variable)

    def recording_plan(lits, z, denoms=()):
        planned.append((z, tuple(lits), denoms))
        return plan(lits, z, denoms)

    def counting_eliminate(term, z, ctx):
        eliminated.append(z)
        return eliminate(term, z, ctx)

    monkeypatch.setattr(presburger, "_bound_branches", recording_plan)
    monkeypatch.setattr(presburger, "_eliminate_variable",
                        counting_eliminate)
    spec = SummationSpec(
        "0 <= a and a <= 3*n and 0 <= b and b <= 3*n and a + 3*b = 0 mod 5",
        "q^(-n*s - a - b)")
    res = sum_rational(spec)
    # recorded when every term derived its own branches
    assert hashlib.sha256(repr(res.rational).encode()).hexdigest() == (
        "d25ddd9c6e99f23b3561d09cff81b45bbd711458355e57b9a06a05742d8bef68")
    assert expand(res.rational, 2, 4) == brute_force_series(spec, 2, 4, 12)
    # no key repeats: the plans memo is reset per variable, so a repeat
    # would be a miss of the memo
    assert len(planned) == len(set(planned))
    # 151 terms share 40 plans
    assert len(eliminated) == 151
    assert len(planned) == 40


def test_empty_two_sided_ranges_yield_no_terms(monkeypatch):
    runs = _counting_progressions(monkeypatch)
    res = sum_rational(SummationSpec(
        "(0 <= l and l <= n) or (3 <= l and l <= n + 3)", "q^(-n*s - l)"))
    # recorded when these ranges still yielded their terms
    assert hashlib.sha256(repr(res.rational).encode()).hexdigest() == (
        "5d4e7db46be8a3d5d3fcdd0f376ce5726fe5dc487a546c8d0fcabf31bdeca573")
    assert sum(empty for empty, _ in runs) == 3
    assert all(n == 0 for empty, n in runs if empty)
    # a ground range of one point still yields its terms
    term = _term([], xexp=LinForm({"z": 1}))
    one = list(presburger._sum_progression(
        term, "z", LinForm.constant(2), LinForm.constant(2), _ctx()))
    assert one
    assert not list(presburger._sum_progression(
        term, "z", LinForm.constant(3), LinForm.constant(2), _ctx()))


def test_sum_progression_rejects_rational_weight():
    term = _term([], xexp=LinForm({"z": Fraction(1, 2)}))
    with pytest.raises(PresburgerError, match="non-integer weight"):
        list(presburger._sum_progression(
            term, "z", LinForm.constant(0), LinForm.constant(3), _ctx(),
        ))


def test_a_multiplier_left_holding_a_variable_is_refused(monkeypatch):
    progression = presburger._sum_progression

    def leaky(term, z, lower, upper, ctx):
        # each yielded multiplier keeps a factor of the variable just summed
        index = ctx["index"]
        for t in progression(term, z, lower, upper, ctx):
            t.mult = t.mult * Laurent.var(index[z], len(index))
            yield t

    monkeypatch.setattr(presburger, "_sum_progression", leaky)
    with pytest.raises(PresburgerError, match="unresolved multiplier") as exc:
        sum_rational(SummationSpec("0 <= l and l <= n", "q^(-n*s - l)"))
    assert type(exc.value) is PresburgerError


def test_oracle_rejects_non_integer_degrees():
    half = Fraction(1, 2)
    spec = SummationSpec(
        "n >= 0 and n <= 3", (LinForm({"n": -half}), LinForm())
    )
    with pytest.raises(PresburgerError, match="non-integer Y-degree"):
        brute_force_series(spec, 2, 4, 5)
    spec = SummationSpec(
        "n >= 0 and n <= 3", (LinForm({"n": -1}), LinForm({"n": half}))
    )
    with pytest.raises(PresburgerError, match="non-integer X-degree"):
        brute_force_series(spec, 2, 4, 5)
    with pytest.raises(PresburgerError, match="non-integer"):
        brute_force_sum(spec, 2, 1, 5)
    spec = SummationSpec("n >= -1 and n <= 3", "q^(-n*s)")
    with pytest.raises(PresburgerError, match="negative Y-degree"):
        brute_force_series(spec, 2, 4, 5)


# ----------------------------------------------------------------------
# brute force oracles


def test_solution_counts_buckets_levels():
    spec = SummationSpec("0 <= l and l <= n", "q^(-n*s - l)")
    # solutions (n, l) with l <= n < 3, keyed by (level n, exponent -l)
    assert solution_counts(spec, 5, 3) == {
        (0, 0): 1, (1, 0): 1, (1, -1): 1, (2, 0): 1, (2, -1): 1, (2, -2): 1,
    }
    assert sum(solution_counts(spec, 5).values()) == 21


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except PresburgerError as e:
        return "error", str(e)


def _random_weight(rng, names):
    A = LinForm({v: -rng.randint(0, 2) for v in names})
    B = LinForm({v: rng.randint(-2, 2) for v in names}, rng.randint(-1, 1))
    return A, B


@pytest.mark.parametrize("nvars,box", [(1, 6), (2, 4), (3, 3), (4, 2)])
def test_solution_counts_match_scalar_quantifier_free(nvars, box):
    rng = random.Random(SEED + 10 * nvars)
    names = ["a", "b", "c", "n"][:nvars]
    for i in range(30):
        ast = _random_tree(rng, names, 3, False)
        free = sorted(free_vars(ast))
        spec = SummationSpec(
            PresburgerFormula(ast, "random"), _random_weight(rng, free)
        )
        M = None if i % 2 else rng.randint(0, 3)
        assert solution_counts(spec, box, M) == scalar_counts(spec, box, M)


# the three quantified shapes of the summation benchmark, then a forall
# and a nested alternation
EXISTS_SPECS = [
    (f"exists k (n = {m}*k + {r}) and 0 <= l and l <= n", M - 1)
    for m, r, M in ((2, 1, 5), (3, 2, 4))
] + [
    (f"exists k (l = {m}*k and 0 <= k and k <= n) and n >= 0", m * (M - 1))
    for m, M in ((2, 5), (3, 4))
] + [
    (f"exists k (0 <= k and k <= n and l = {m}*k + {r}) and n >= 0",
     m * (M - 1) + r)
    for m, r, M in ((2, 1, 5), (3, 2, 4))
] + [
    ("forall k (k <= l or k >= n) and 0 <= l and l <= n", 4),
    ("exists k (0 <= k and k <= n and forall j (j <= k or j > l))"
     " and l >= 0 and n >= 0", 3),
]


@pytest.mark.parametrize("formula,box", EXISTS_SPECS)
def test_solution_counts_match_scalar_quantified(formula, box):
    spec = SummationSpec(formula, "q^(-n*s - l)")
    want = scalar_counts(spec, box)
    assert want and solution_counts(spec, box) == want
    assert solution_counts(spec, box, 3) == scalar_counts(spec, box, 3)


HALF = Fraction(1, 2)


@pytest.mark.parametrize("formula,weight,M", [
    # (m, n) = (0, 1) is the first solution, with level 1/2
    ("0 <= m and m <= 1 and 0 <= n and n <= 1",
     (LinForm({"n": -HALF}), LinForm({"m": HALF})), None),
    # (1, 0) comes first, with exponent 1/2
    ("1 <= m and m <= 2 and 0 <= n and n <= 1",
     (LinForm({"n": -HALF}), LinForm({"m": HALF})), None),
    # M = 0 keeps no level, so only a bad level raises
    ("1 <= m and m <= 2 and 0 <= n and n <= 1",
     (LinForm({"n": -HALF}), LinForm({"m": HALF})), 0),
    ("1 <= m and m <= 2 and n = 0",
     (LinForm({"n": -HALF}), LinForm({"m": HALF})), 0),
    # m = 2 is the first solution with exponent 1/2
    ("exists k (m = 2*k) and 0 <= m and m <= 4 and n = m",
     (LinForm({"n": -1}), LinForm({"m": Fraction(1, 4)})), None),
])
def test_solution_counts_degree_errors_match_scalar(formula, weight, M):
    spec = SummationSpec(formula, weight)
    got = _outcome(solution_counts, spec, 3, M)
    assert got == _outcome(scalar_counts, spec, 3, M)
    if M is None:
        assert got[0] == "error" and "non-integer" in got[1]


def test_solution_counts_never_eliminates_quantifiers(monkeypatch):
    # the oracle must stay independent of the Cooper elimination that
    # sum_rational runs
    spec = SummationSpec("exists k (n = 2*k + 1) and n >= 0", "q^(-n*s)")
    res = sum_rational(spec)

    def refuse(formula):
        raise AssertionError("eliminate_quantifiers called")

    monkeypatch.setattr(presburger, "eliminate_quantifiers", refuse)
    assert solution_counts(spec, 12) == scalar_counts(spec, 12)
    assert brute_force_series(spec, 3, 8, 12) == expand(res.rational, 3, 8)
    assert brute_force_sum(spec, 2, 1, 12) == sum(
        Fraction(2) ** -n for n in range(1, 13, 2)
    )


def test_ranged_evaluation_refuses_rational_coefficients():
    grid = {"x": np.arange(-3, 4, dtype=np.int64)}
    for ast in (
        ("le", LinForm({"x": HALF})),
        ("cong", LinForm({"x": 1}, HALF), 2),
        ("exists", "k", ("le", LinForm({"x": 1, "k": Fraction(3, 2)}))),
    ):
        with pytest.raises(PresburgerError, match="non-integer coefficient"):
            _eval_ranged(ast, grid, [3])
        spec = SummationSpec(PresburgerFormula(ast), (LinForm(), LinForm()))
        with pytest.raises(PresburgerError, match="non-integer coefficient"):
            solution_counts(spec, 3)


def test_solution_counts_bounds_the_cells_it_holds():
    # 161^3 cells: one int64 array over the whole grid would be 33 MB
    box = 80
    spec = SummationSpec(
        "0 <= a and a <= n and 0 <= b and b <= n", "q^(-n*s - a - b)"
    )
    tracemalloc.start()
    try:
        counts = solution_counts(spec, box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == sum(k * k for k in range(1, box + 2))
    assert peak < 16 * 2**20
    # the witness axis is sliced too: 161^2 free cells times 161 witnesses
    spec = SummationSpec("exists k (n + l = 2*k + 1)", "q^(-n*s)")
    tracemalloc.start()
    try:
        counts = solution_counts(spec, box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every odd n + l has its witness k = (n + l - 1)/2 in the box
    assert sum(counts.values()) == (161 * 161 - 1) // 2
    assert peak < 16 * 2**20


def test_brute_force_geometric_partial():
    spec = SummationSpec("n >= 0", "q^(-n*s)")
    got = brute_force_sum(spec, 2, 1, 20)
    assert got == (1 - Fraction(1, 2**21)) / (1 - Fraction(1, 2))


def test_brute_force_empty():
    spec = SummationSpec("n >= 0 and n <= -1", "q^(-n*s)")
    assert brute_force_sum(spec, 2, 1, 10) == 0


def test_brute_force_matches_expansion_truncation():
    spec = SummationSpec("0 <= l and l <= n", "q^(-n*s - l)")
    res = sum_rational(spec)
    # the box keeps every solution with n <= 12, so the partial sum equals
    # the first 13 series coefficients evaluated at s = 2
    coeffs = expand(res.rational, 2, 13).coeffs
    want = sum(c * Fraction(2) ** (-2 * m) for m, c in enumerate(coeffs))
    assert brute_force_sum(spec, 2, 2, 12) == want


def test_brute_force_series_staircase():
    spec = SummationSpec("0 <= l and l <= n", "q^(-n*s - l)")
    res = sum_rational(spec)
    for q in (2, 3, 5):
        assert brute_force_series(spec, q, 6, 30) == expand(
            res.rational, q, 6
        )


# ----------------------------------------------------------------------
# summation corpus: seeded templates with bounded sections, compared
# coefficientwise against direct enumeration at q in {2, 3, 5}


def _corpus_specs(count):
    rng = random.Random(SEED + 2)
    out = []
    while len(out) < count:
        kind = rng.randrange(5)
        if kind == 0:
            a, b = rng.randint(1, 2), rng.randint(0, 4)
            c = rng.choice([1, 2])
            out.append((
                f"0 <= l and l <= {a}*n + {b} and n >= 0",
                f"q^(-n*s - {c}*l)",
                2 * 6 + b,
            ))
        elif kind == 1:
            m = rng.choice([2, 3, 4])
            r = rng.randrange(m)
            out.append((
                f"0 <= l and l <= 2*n and l = {r} mod {m} and n >= 0",
                "q^(-n*s - l)",
                14,
            ))
        elif kind == 2:
            b1, b2 = rng.randint(0, 3), rng.randint(0, 3)
            out.append((
                f"0 <= a and a <= n + {b1} and 0 <= b and b <= n + {b2}"
                " and n >= 0",
                "q^(-n*s - a - b)",
                6 + max(b1, b2) + 1,
            ))
        elif kind == 3:
            m = rng.choice([2, 3, 4, 6])
            r = rng.randrange(m)
            c = rng.randint(0, 3)
            out.append((
                f"n >= {c} and n = {r} mod {m}",
                "q^(-n*s)",
                8,
            ))
        else:
            b = rng.randint(1, 4)
            out.append((
                f"(0 <= l and l <= n) or ({b} <= l and l <= n + {b})",
                "q^(-n*s - l)",
                6 + b + 1,
            ))
    return out


def test_summation_corpus_exact_coefficients():
    M = 6
    for text, weight, box in _corpus_specs(60):
        spec = SummationSpec(text, weight)
        res = sum_rational(spec)
        # enumerate solutions once, then compare per q
        ast = simplify(nnf(spec.formula.ast))
        names = sorted(
            set(spec.formula.free) | spec.A.vars() | spec.B.vars()
        )
        hits = []
        for point in itertools.product(
            range(-box, box + 1), repeat=len(names)
        ):
            env = dict(zip(names, point))
            if not eval_formula(ast, env):
                continue
            level = -spec.A.evaluate(env)
            assert level.denominator == 1
            if 0 <= level < M:
                hits.append((int(level), int(spec.B.evaluate(env))))
        for q in (2, 3, 5):
            coeffs = [Fraction(0)] * M
            for m, e in hits:
                coeffs[m] += Fraction(q) ** e
            got = expand(res.rational, q, M)
            assert got.coeffs == coeffs, (text, weight, q)


def test_summation_rays_bounded_by_value():
    # convergent sums with infinite sections: box partial sums increase
    # and approach the exact value of the rational at a sample s
    specs = [
        SummationSpec("l >= 0 and n >= 0", "q^(-n*s - l)"),
        SummationSpec("l >= 2 and n >= l", "q^(-n*s - l)"),
    ]
    for spec in specs:
        res = sum_rational(spec)
        s = max(res.sigma0 or 1, 1)
        total = res.rational.evaluate(2, Fraction(1, 2**s))
        prev = Fraction(-1)
        for box in (4, 8, 16):
            part = brute_force_sum(spec, 2, s, box)
            assert prev < part <= total
            prev = part
        assert total - prev < Fraction(1, 2) ** 10
