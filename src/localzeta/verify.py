"""Cross-check suites over enumerated groups, integrals, and series.

Each suite re-derives one family of identities from scratch and reports
every comparison it made.  A suite never weakens a failing check into a
warning, and an exception raised inside a suite is reported as a failed
check carrying the error text.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .cache import clear_memo, table_for
from .chevalley import (
    chevalley_group,
    haar_constants,
    iwahori_box_report,
    verify_torus_conjugation,
)
from .groups import Family, IdentityError
from .igusa import igusa_truncation, level_set_measures, zero_count
from .presburger import (
    Divergent,
    LinForm,
    PresburgerFormula,
    SummationSpec,
    _eval_ranged,
    eliminate_quantifiers,
    free_vars,
    nnf,
    series_from_counts,
    simplify,
    solution_counts,
    sum_rational,
)
from .rings import make_ring
from .zeta import (
    cc_zeta,
    euler_multiplicativity,
    expand,
    heisenberg_cc_form,
    heisenberg_cc_variant_form,
    hecke_zeta,
    igusa_determinant_form,
    igusa_two_by_two_form,
    prop62_consistency,
    prop73_consistency,
    transfer_report,
)


def _check(name, ok, **detail):
    entry = {"name": name, "ok": bool(ok)}
    entry.update(detail)
    return entry


def _suite(name, checks):
    return {
        "suite": name,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }


# ----------------------------------------------------------------------


def suite_igusa():
    """Determinant integrals on 2x2 and 3x3 matrices vs their closed
    forms, and the lifted zero counts vs the brute-force scan on small
    rings."""
    checks = []
    det3 = "a*e*i+b*f*g+c*d*h-c*e*g-b*d*i-a*f*h"
    for name, poly, ring, form in (
        ("igusa-det-q2-M4", "a*b - c*d", make_ring("zq", 2, 1, 4),
         igusa_two_by_two_form()),
        ("igusa-det-q3-M3", "a*b - c*d", make_ring("zq", 3, 1, 3),
         igusa_two_by_two_form()),
        ("igusa-det3-q2-M3", det3, make_ring("fqt", 2, 1, 3),
         igusa_determinant_form(3)),
    ):
        series, tail = igusa_truncation(poly, ring)
        total = sum(series.coeffs) + tail
        checks.append(_check(
            name,
            series == expand(form, ring.q, ring.m) and total == 1,
            coefficients=series.coeffs,
            tail=tail,
        ))
    mismatches = []
    for text, ring in (
        ("a*b - c*d", make_ring("zq", 2, 1, 4)),
        ("a*b - c*d", make_ring("fqt", 3, 1, 2)),
        ("x^2 - 2*y^2", make_ring("zq", 2, 2, 2)),
        ("x^3 - y^2", make_ring("fqt", 2, 1, 5)),
    ):
        lifted = level_set_measures(text, ring)["zero_counts"]
        scanned = [zero_count(text, ring.subring_level(k))
                   for k in range(1, ring.m + 1)]
        if lifted != scanned:
            mismatches.append({"poly": text, "ring": ring.literal,
                               "lifted": lifted, "scanned": scanned})
    checks.append(_check("igusa-lift-vs-scan", not mismatches,
                         mismatches=mismatches))
    return _suite("igusa", checks)


def suite_cc():
    """Heisenberg conjugacy-class counts: formulas and closed form."""
    checks = []
    for q in (2, 3):
        got = cc_zeta("heisenberg", "zq", q, 1, 3).coeffs
        want = [
            Fraction(1),
            Fraction(q**2 + q - 1),
            Fraction(q**4 + q**3 - q),
        ]
        checks.append(_check(
            f"cc-heisenberg-q{q}-m2", got == want, coefficients=got
        ))
    enum4 = cc_zeta("heisenberg", "zq", 2, 1, 4)
    closed4 = expand(heisenberg_cc_form(), 2, 4)
    checks.append(_check(
        "cc-heisenberg-q2-m3-closed-form",
        enum4 == closed4 and enum4.coeffs[3] == 92,
        coefficients=enum4.coeffs,
    ))
    # the three-factor variant display disagrees with enumeration at the
    # linear coefficient; the mismatch itself is the documented finding
    for q in (2, 3):
        variant = expand(heisenberg_cc_variant_form(), q, 2).coeffs[1]
        enumerated = Fraction(q**2 + q - 1)
        checks.append(_check(
            f"cc-variant-display-disagrees-q{q}",
            variant != enumerated,
            variant_linear_coefficient=variant,
            enumerated_linear_coefficient=enumerated,
            finding="variant closed form does not match enumeration; "
            "enumeration is ground truth",
        ))
    return _suite("cc", checks)


def suite_transfer():
    """Coefficientwise agreement between the two ring kinds."""
    checks = []
    rep = transfer_report("heisenberg", [2, 3, 5], 1, 3)
    checks.append(_check(
        "transfer-cc-heisenberg-f1", rep["ok"], rows=rep["rows"]
    ))
    rep = transfer_report("heisenberg", [2], 2, 3)
    checks.append(_check(
        "transfer-cc-heisenberg-q4", rep["ok"], rows=rep["rows"]
    ))
    rep = transfer_report("chevalley:A1", [2, 3, 5], 1, 3, s1="-", s2="-")
    checks.append(_check(
        "transfer-hecke-a1-borel", rep["ok"], rows=rep["rows"]
    ))
    return _suite("transfer", checks)


def suite_pointcount():
    """|G(o/p^m)| = |G(F_q)| q^{(m-1)d} on the supported instances."""
    cases = [
        ("chevalley:A1", 3, [(2, 3), (3, 3)]),
        ("chevalley:A2", 8, [(2, 2)]),
        ("heisenberg", 3, [(2, 2), (3, 2), (5, 2)]),
    ]
    checks = []
    for family, dim, primes in cases:
        for p, mmax in primes:
            base = table_for(family, make_ring("zq", p, 1, 1)).size
            for m in range(2, mmax + 1):
                size = table_for(family, make_ring("zq", p, 1, m)).size
                want = base * p ** (dim * (m - 1))
                checks.append(_check(
                    f"pointcount-{family}-p{p}-m{m}",
                    size == want,
                    size=size,
                    expected=want,
                ))
    return _suite("pointcount", checks)


TABLE_CASES = [
    ("heisenberg", "zq", 3, 1, 2),
    ("chevalley:A1", "zq", 2, 2, 1),
    ("borel:A2", "zq", 2, 1, 2),
    ("chevalley:A1", "fqt", 2, 1, 3),
    ("chevalley:A1", "fqt", 2, 2, 2),
    ("parabolic:B2:a1", "fqt", 2, 1, 1),
]


def _gather_mat_mul(ring, A, B):
    """Batched matrix product by the ring's scalar MUL and ADD tables.

    It shares no code with Ring.mat_mul, whose products generate turned
    into the rho and inv that table_product_checks re-derives.
    """
    acc = ring.MUL[A[..., :, 0, None], B[..., None, 0, :]]
    for t in range(1, A.shape[-1]):
        acc = ring.ADD[acc, ring.MUL[A[..., :, t, None], B[..., None, t, :]]]
    return acc


def table_product_checks(table):
    """(rho_ok, inv_ok): the table's rho and inverse map re-derived by
    matrix products alone (a MUL/ADD gather, not Ring.mat_mul), with no
    key and no lookup.

    rho_ok: mats[rho[:, c]] equals mats * g_c entry by entry for every
    generator; inv_ok: mats[inv] * mats is the identity for every element.
    """
    ring, mats = table.ring, table.mats
    rho_ok = all(
        np.array_equal(mats[table.rho[:, c]], _gather_mat_mul(ring, mats, g))
        for c, (_, g) in enumerate(table.generators)
    )
    ident = ring.identity_mat(table.d)
    inv_ok = bool(
        (_gather_mat_mul(ring, mats[table.inv], mats) == ident).all()
    )
    return rho_ok, inv_ok


def suite_tables():
    """Freshly enumerated tables: rho and inverses by matrix products."""
    checks = []
    for family, kind, p, f, m in TABLE_CASES:
        ring = make_ring(kind, p, f, m)
        table = Family(family).table(ring)
        rho_ok, inv_ok = table_product_checks(table)
        tag = f"{family}-{ring.literal}"
        checks.append(_check(f"rho-by-products-{tag}", rho_ok,
                             size=table.size))
        checks.append(_check(f"inverse-by-products-{tag}", inv_ok,
                             size=table.size))
    return _suite("tables", checks)


def suite_counting():
    """Class/pair and double-coset/pair counting identities."""
    checks = []
    # direct pair-scan Burnside on small instances of both ring kinds
    for kind in ("zq", "fqt"):
        for q, m in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
            table = table_for("heisenberg", make_ring(kind, q, 1, m))
            pairs = table.commuting_pairs()
            checks.append(_check(
                f"burnside-heisenberg-{kind}-q{q}-m{m}",
                pairs == table.class_count() * table.size,
                classes=table.class_count(),
                order=table.size,
                commuting_pairs=pairs,
            ))
    for q, m in ((2, 2), (3, 1), (3, 2)):
        table = table_for("chevalley:A1", make_ring("zq", q, 1, m))
        pairs = table.commuting_pairs()
        checks.append(_check(
            f"burnside-a1-zq-q{q}-m{m}",
            pairs == table.class_count() * table.size,
            classes=table.class_count(),
            order=table.size,
        ))
    # double cosets times |Q1||Q2| = Hecke pair count
    for system, s1, s2, q, M in (
        ("A1", "-", "-", 2, 3),
        ("A1", "-", "-", 3, 2),
        ("A2", "a1", "a2", 2, 2),
    ):
        name = f"pairlaw-{system}-{s1}-{s2}-q{q}"
        try:
            series = hecke_zeta(system, s1, s2, "zq", q, 1, M)
        except IdentityError as exc:  # hecke_zeta checks the pair law
            checks.append(_check(name, False, error=str(exc)))
            continue
        checks.append(_check(name, True, coefficients=series.coeffs))
    rep = prop62_consistency("heisenberg", "zq", 2, 1, 3)
    checks.append(_check(
        "chain-cc-heisenberg-zq-q2", rep["ok"], levels=rep["levels"]
    ))
    rep = prop62_consistency("chevalley:A1", "zq", 3, 1, 2)
    checks.append(_check(
        "chain-cc-a1-zq-q3", rep["ok"], levels=rep["levels"]
    ))
    rep = prop73_consistency("A1", "-", "-", "zq", 2, 1, 3)
    checks.append(_check(
        "chain-hecke-a1-borel", rep["ok"],
        alpha=rep["alpha"], levels=rep["levels"],
    ))
    rep = prop73_consistency("A2", "a1", "a2", "zq", 2, 1, 2)
    checks.append(_check(
        "chain-hecke-a2-maximal", rep["ok"],
        alpha=rep["alpha"], levels=rep["levels"],
    ))
    return _suite("counting", checks)


def suite_haar():
    """Haar mass 1 and big-cell injectivity on the Iwahori box."""
    checks = []
    for system, qs in (("A1", (2, 3)), ("A2", (2,))):
        cg = chevalley_group(system)
        for q in qs:
            ring = make_ring("zq", q, 1, 1)
            g = table_for(f"chevalley:{system}", ring).size
            b = table_for(f"borel:{system}", ring).size
            rep = haar_constants(cg, q, g, b)
            checks.append(_check(
                f"haar-{system}-q{q}", rep["ok"],
                normalization=rep["normalization"],
                k=rep["k"],
                group_order=g,
                borel_order=b,
            ))
    cg = chevalley_group("A1")
    for p in (2, 3):
        for m in (1, 2):
            rep = iwahori_box_report(cg, make_ring("zq", p, 1, m))
            checks.append(_check(
                f"iwahori-box-A1-p{p}-m{m}", rep["ok"],
                image=rep["image"], box=rep["box"],
                expected=rep["expected"],
            ))
    return _suite("haar", checks)


def suite_steinberg():
    """Symbolic torus-conjugation and one-parameter identities."""
    checks = []
    for system in ("A1", "A2", "B2"):
        rep = verify_torus_conjugation(system)
        counts = {
            key: len(rep[key])
            for key in (
                "torus_single",
                "torus_multi",
                "h_diagonal",
                "one_parameter",
                "modulus",
            )
        }
        checks.append(_check(
            f"steinberg-{system}", rep["ok"], identities=counts
        ))
    return _suite("steinberg", checks)


# ----------------------------------------------------------------------
# presburger corpus


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


def qe_corpus_report():
    """QE vs bounded-witness model checking on the free box.

    Witness ranges grow inward (outer quantifiers need only witnesses
    bounded in terms of the free box) and are provably sufficient for
    the coefficient sizes generated here: one quantifier with
    coefficients up to 2, or two quantifiers with coefficients up to 1.
    """
    count, box = 200, 25
    rng = random.Random(4242)
    grid = np.arange(-box, box + 1, dtype=np.int64)
    half = (count + 1) // 2
    agree = 0
    cases = [(1, count - half), (2, half)]
    for nquants, n in cases:
        for _ in range(n):
            small = nquants == 2
            free = ["x"] if nquants == 2 else ["x", "y"][: rng.choice([1, 2])]
            qvars = [f"k{i + 1}" for i in range(nquants)]
            ast = _random_tree(rng, free + qvars, 3, small)
            for i, qv in enumerate(qvars):
                quant = "exists" if rng.random() < 0.7 else "forall"
                ast = (quant, qv, ast)
                if rng.random() < 0.4:
                    side = _random_tree(rng, free + qvars[i + 1:], 1, small)
                    ast = ("and" if rng.random() < 0.5 else "or", ast, side)
            qf = eliminate_quantifiers(PresburgerFormula(ast, "corpus"))
            if not qf.is_quantifier_free():
                break
            if not free_vars(qf.ast) <= free_vars(ast):
                break
            witnesses = [150, 210] if nquants == 2 else [250]
            if len(free) == 1:
                env = {"x": grid}
            else:
                env = {"x": grid[:, None], "y": grid[None, :]}
            want = _eval_ranged(ast, env, witnesses)
            got = _eval_ranged(simplify(nnf(qf.ast)), env, witnesses)
            wb, gb = np.broadcast_arrays(np.asarray(want), np.asarray(got))
            if not np.array_equal(wb, gb):
                break
            agree += 1
    return {"formulas": count, "agree": agree, "box": box}


def summation_corpus_report():
    """sum_rational + expand vs direct enumeration at q in {2, 3, 5}."""
    count, M = 200, 5
    rng = random.Random(1009)
    specs = []
    while len(specs) < count:
        kind = rng.randrange(5)
        if kind == 0:
            a, b = rng.randint(1, 2), rng.randint(0, 4)
            c = rng.choice([1, 2])
            specs.append((
                f"0 <= l and l <= {a}*n + {b} and n >= 0",
                f"q^(-n*s - {c}*l)",
                2 * (M - 1) + b + 1,
            ))
        elif kind == 1:
            mod = rng.choice([2, 3, 4])
            r = rng.randrange(mod)
            specs.append((
                f"0 <= l and l <= 2*n and l = {r} mod {mod} and n >= 0",
                "q^(-n*s - l)",
                2 * (M - 1) + 1,
            ))
        elif kind == 2:
            b1, b2 = rng.randint(0, 3), rng.randint(0, 3)
            specs.append((
                f"0 <= a and a <= n + {b1} and 0 <= b and b <= n + {b2}"
                " and n >= 0",
                "q^(-n*s - a - b)",
                M + max(b1, b2),
            ))
        elif kind == 3:
            mod = rng.choice([2, 3, 4, 6])
            r = rng.randrange(mod)
            c = rng.randint(0, 3)
            specs.append((f"n >= {c} and n = {r} mod {mod}", "q^(-n*s)", M + 2))
        else:
            b = rng.randint(1, 4)
            specs.append((
                f"(0 <= l and l <= n) or ({b} <= l and l <= n + {b})",
                "q^(-n*s - l)",
                M + b,
            ))
    agree = 0
    diverged = 0
    for text, weight, box in specs:
        spec = SummationSpec(text, weight)
        try:
            res = sum_rational(spec)
        except Divergent:
            diverged += 1
            continue
        counts = solution_counts(spec, box, M)
        good = True
        for q in (2, 3, 5):
            want = series_from_counts(counts, q, M)
            if expand(res.rational, q, M).coeffs != want.coeffs:
                good = False
        if good:
            agree += 1
    return {
        "formulas": count,
        "agree": agree,
        "diverged": diverged,
        "depth": M,
    }


def suite_presburger():
    """Documented examples plus randomized QE and summation corpora."""
    checks = []
    staircase = SummationSpec("0 <= l and l <= n", "q^(-n*s - l)")
    examples = [
        ("geometric", SummationSpec("n >= 0", "q^(-n*s)"), 20),
        ("even-levels",
         SummationSpec("n >= 0 and n = 0 mod 2", "q^(-n*s)"), 20),
        ("staircase", staircase, 20),
        # checked against an oracle that runs no quantifier elimination
        ("odd-levels",
         SummationSpec("exists k (n = 2*k + 1) and n >= 0", "q^(-n*s)"), 20),
    ]
    for name, spec, box in examples:
        res = sum_rational(spec)
        counts = solution_counts(spec, box, 6)
        ok = True
        for q in (2, 3, 5):
            want = series_from_counts(counts, q, 6)
            if expand(res.rational, q, 6).coeffs != want.coeffs:
                ok = False
        checks.append(_check(
            f"example-{name}", ok,
            rational=repr(res.rational), sigma0=res.sigma0,
        ))
    rep = qe_corpus_report()
    checks.append(_check(
        "qe-corpus", rep["agree"] == rep["formulas"] >= 200, **rep
    ))
    rep = summation_corpus_report()
    checks.append(_check(
        "summation-corpus",
        rep["agree"] + rep["diverged"] == rep["formulas"] >= 200
        and rep["diverged"] == 0,
        **rep,
    ))
    return _suite("presburger", checks)


def suite_euler():
    """Composite-level class counts factor over prime powers."""
    checks = []
    for n, want in ((6, 55), (12, 242)):
        rep = euler_multiplicativity("heisenberg", n)
        checks.append(_check(
            f"euler-heisenberg-n{n}",
            rep["ok"] and rep["cc"] == want,
            cc=rep["cc"],
            parts=rep["parts"],
        ))
    return _suite("euler", checks)


def suite_determinism():
    """Byte-identical reports across repeated runs with cold memos."""
    import contextlib
    import io

    from . import cli

    configs = [
        ["cc", "--group", "heisenberg", "--ring", "zq:p=2,f=1,m=2"],
        ["hecke", "--group", "A1", "--ring", "zq:p=3,f=1,m=2"],
        ["presburger", "--where", "0 <= l and l <= n",
         "--sum", "q^(-n*s - l)", "--q", "2", "--levels", "4"],
    ]
    checks = []
    for argv in configs:
        outputs = []
        for _ in range(2):
            clear_memo()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            outputs.append((code, out.getvalue()))
        (c1, o1), (c2, o2) = outputs
        checks.append(_check(
            "determinism-" + argv[0],
            c1 == c2 == 0 and o1 == o2 and len(o1) > 0,
            bytes=len(o1.encode()),
        ))
    return _suite("determinism", checks)


SUITES = {
    "igusa": suite_igusa,
    "cc": suite_cc,
    "transfer": suite_transfer,
    "pointcount": suite_pointcount,
    "tables": suite_tables,
    "counting": suite_counting,
    "haar": suite_haar,
    "steinberg": suite_steinberg,
    "presburger": suite_presburger,
    "euler": suite_euler,
    "determinism": suite_determinism,
}


def _run_one(name):
    """One suite's report; an exception inside it becomes a failed check
    that carries the error text."""
    try:
        return SUITES[name]()
    except Exception as exc:  # a suite crash is a failed check, not a trace
        return _suite(name, [_check(
            f"{name}-raised", False, error=f"{type(exc).__name__}: {exc}",
        )])


def run_suite(name="all"):
    """Run one named suite, or every suite for name == "all"."""
    if name == "all":
        suites = [_run_one(n) for n in SUITES]
        return {
            "suite": "all",
            "suites": suites,
            "ok": all(s["ok"] for s in suites),
        }
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; have {', '.join(SUITES)} or all"
        )
    return _run_one(name)
