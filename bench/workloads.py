"""The benchmark's four workloads: their jobs and the seeded input generators.

This module only builds job descriptions (argument lists, formulas and the
references their outputs are checked against); it does not import
``localzeta``.  Every generator draws from its own ``random.Random(seed)``,
so the same seed always yields the same batch and no global RNG state is
read or changed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("classes-zq", "hecke-fqt", "summation", "igusa-levels")


@dataclass(frozen=True)
class Job:
    """One job of a batch.

    ``kind`` names the job for the ``cli.job_s.<kind>`` metric.  CLI jobs
    carry ``argv`` and are checked either against ``sha256`` (the stdout
    hash recorded at the seed commit) or against ``closed_form``, the name
    of a ``localzeta.zeta`` closed form whose expansion must equal the
    reported coefficients.  Summation jobs carry ``spec`` instead.
    """

    kind: str
    argv: tuple = ()
    sha256: str | None = None
    closed_form: str | None = None
    spec: dict = field(default_factory=dict)


# Stdout sha256 of each fixed job, recorded at the seed commit.
REFERENCE_SHA256 = {
    "cc --group heisenberg --ring zq:p=3,f=1,m=5":
        "353169463e68ecfcf01f27ff9565544657cdc9ffdbbdb475ab2ae86383276389",
    "hecke --group A1 --s1 - --s2 - --ring fqt:p=2,f=1,m=6":
        "77079d46f0f812cc3705e17d47e8089c5eb71dea823da8e6581d57940fdcaa1c",
    "hecke --group A1 --s1 - --s2 all --ring fqt:p=2,f=1,m=6":
        "addae75659211d3f1999c62011010e9e30fd44e28494f5825887b261842c2698",
    "cc --group chevalley:A1 --ring fqt:p=2,f=1,m=6":
        "db29169f60da6311f827175e51350494ef7254648e056d486568fe38a421f109",
    "hecke --group B2 --s1 a1 --s2 a2 --ring fqt:p=2,f=1,m=2":
        "87fcaab30a469c7b0262e3678cf0ebccf74ade40e1c7a82378ee4f46e07d6295",
    "igusa --poly a*b-c*d --ring zq:p=2,f=1,m=6":
        "934f2b27aee552ce57a8236bd79c7365042bb645a55b353343c05a2aedcf1014",
    "igusa --poly a*b-c*d --ring fqt:p=2,f=1,m=6":
        "d1141af5e06ce3bd5a926e973ddcee01c080ec3bb03a35157b3413084e65b974",
    "igusa --poly a*b-c*d --ring fqt:p=3,f=1,m=4":
        "eb28d18ab9eedd0d3987e3d719e38aed13ed7deb20b811e7f93c4a87d2436ca7",
    "igusa --poly a*b-c*d --ring zq:p=2,f=2,m=3":
        "a852a2a67e63a61ad9901884642edc23f3faf19f2d391abe27e0639c0616636c",
    "igusa --poly a*e*i+b*f*g+c*d*h-c*e*g-b*d*i-a*f*h --ring zq:p=2,f=1,m=2":
        "5de0ab6aa50150904c3c87f2016133787a6aa59abc9969814c5bc816fa49f481",
    "igusa --poly a*e*i+b*f*g+c*d*h-c*e*g-b*d*i-a*f*h --ring fqt:p=2,f=1,m=2":
        "9e626a2821cc173b3ba30eb4cafbf62570ccf164b9812d9e85b1c114b2be9efa",
}


def _fixed(command):
    return Job(command.split()[0], tuple(command.split()),
               sha256=REFERENCE_SHA256[command])


def classes_zq(seed):
    """Heisenberg classes over Z/3^5: large tables, BLAS ``mat_mul``."""
    del seed  # fixed mathematical input
    return [_fixed("cc --group heisenberg --ring zq:p=3,f=1,m=5")]


def hecke_fqt(seed):
    """Double cosets over F2[t]/t^m sharing one disk cache directory."""
    del seed  # fixed mathematical input
    return [
        _fixed("hecke --group A1 --s1 - --s2 - --ring fqt:p=2,f=1,m=6"),
        _fixed("hecke --group A1 --s1 - --s2 all --ring fqt:p=2,f=1,m=6"),
        _fixed("cc --group chevalley:A1 --ring fqt:p=2,f=1,m=6"),
        _fixed("hecke --group B2 --s1 a1 --s2 a2 --ring fqt:p=2,f=1,m=2"),
    ]


# ----------------------------------------------------------------------
# summation


def _light_spec(rng, shape, M=5):
    """The five shapes of ``verify.summation_corpus_report``.

    Each shape has one oracle box, large enough for every parameter
    choice, so that the oracle's cost does not depend on the seed.
    """
    if shape == 0:
        a, b, c = rng.randint(1, 2), rng.randint(0, 4), rng.choice([1, 2])
        return (f"0 <= l and l <= {a}*n + {b} and n >= 0",
                f"q^(-n*s - {c}*l)", M, 2 * (M - 1) + 5)
    if shape == 1:
        mod = rng.choice([2, 3, 4])
        r = rng.randrange(mod)
        return (f"0 <= l and l <= 2*n and l = {r} mod {mod} and n >= 0",
                "q^(-n*s - l)", M, 2 * (M - 1) + 1)
    if shape == 2:
        b1, b2 = rng.randint(0, 3), rng.randint(0, 3)
        return ("0 <= a and a <= n + %d and 0 <= b and b <= n + %d"
                " and n >= 0" % (b1, b2),
                "q^(-n*s - a - b)", M, M + 3)
    if shape == 3:
        mod = rng.choice([2, 3, 4, 6])
        r, c = rng.randrange(mod), rng.randint(0, 3)
        return (f"n >= {c} and n = {r} mod {mod}", "q^(-n*s)", M, M + 2)
    b = rng.randint(1, 4)
    return (f"(0 <= l and l <= n) or ({b} <= l and l <= n + {b})",
            "q^(-n*s - l)", M, M + 4)


# (bound coefficients, weight coefficients) of the heavy specs.  They and
# the congruence coefficient set most of a heavy spec's cost, so they
# form a fixed design and the seed draws only the residue.
HEAVY_SHAPES = (((2, 3), (1, 2)), ((3, 1), (2, 1)), ((3, 3), (1, 3)))


def _heavy_spec(rng, mod, slot, M=3):
    """Two summed variables under a congruence, coefficients up to 3."""
    (c1, c2), (w1, w2) = HEAVY_SHAPES[slot]
    k, r = min(slot + 1, mod - 1), rng.randrange(mod)
    return (f"0 <= a and a <= {c1}*n and 0 <= b and b <= {c2}*n"
            f" and a + {k}*b = {r} mod {mod}",
            f"q^(-n*s - {w1}*a - {w2}*b)", M, 3 * (M - 1))


def _exists_spec(rng, shape, M=5):
    """Specs whose formula needs quantifier elimination first."""
    m = rng.randint(2, 3)
    r = rng.randrange(m)
    if shape == 0:
        return (f"exists k (n = {m}*k + {r}) and 0 <= l and l <= n",
                "q^(-n*s - l)", M, M - 1)
    if shape == 1:
        return (f"exists k (l = {m}*k and 0 <= k and k <= n) and n >= 0",
                "q^(-n*s - l)", M, m * (M - 1))
    return (f"exists k (0 <= k and k <= n and l = {m}*k + {r}) and n >= 0",
            "q^(-n*s - l)", M, m * (M - 1) + r)


LIGHT_PER_SHAPE = 12
EXISTS_PER_SHAPE = 4


def summation(seed):
    """Seeded specs: each runs ``sum_rational``, ``expand`` at q = 2, 3, 5
    and the ``brute_force_series`` oracle at one seed-chosen q.

    The mix is stratified (a fixed number of specs per shape and modulus)
    so that the cost of a batch hardly depends on the seed.
    """
    rng = random.Random(seed)
    specs = []
    for shape in range(5):
        specs += [_light_spec(rng, shape) for _ in range(LIGHT_PER_SHAPE)]
    for mod in (2, 3, 4, 5):
        specs += [_heavy_spec(rng, mod, slot)
                  for slot in range(len(HEAVY_SHAPES))]
    for shape in range(3):
        specs += [_exists_spec(rng, shape) for _ in range(EXISTS_PER_SHAPE)]
    return [
        Job("summation", spec={
            "where": where, "sum": weight, "levels": M, "box": box,
            "oracle_q": rng.choice([2, 3, 5]),
        })
        for where, weight, M, box in specs
    ]


# ----------------------------------------------------------------------
# igusa


def _sparse(rng, names):
    """c1*u + c2*u*v + c3*u^2*v over two distinct seeded names u, v.

    The monomial shapes are fixed so that the evaluation cost per grid
    point does not depend on the seed.
    """
    terms = []
    for shape in ("{u}", "{u}*{v}", "{u}^2*{v}"):
        u, v = rng.sample(names, 2)
        terms.append(f"{rng.randint(1, 3)}*" + shape.format(u=u, v=v))
    return " + ".join(terms)


def _coordinate_poly(rng, nvars):
    """x + h(others): a measure-preserving change of the coordinate x.

    (x, y, ...) -> (x + h(y, ...), y, ...) is a bijection at every
    truncation level, so the level sets are those of f = x and the
    closed form is ``igusa_coordinate_form``.
    """
    names = rng.sample(["w", "x", "y", "z"], nvars)
    return f"{names[0]} + " + _sparse(rng, names[1:])


def _two_by_two_poly(rng):
    """(a + h(b, c, d))*b - c*d, the 2x2 determinant after a triangular
    change of a; its closed form is ``igusa_two_by_two_form``."""
    a, b, c, d = rng.sample(["w", "x", "y", "z"], 4)
    return f"({a} + {_sparse(rng, [b, c, d])})*{b} - {c}*{d}"


def igusa_levels(seed):
    """Fixed ``a*b - c*d`` and 3x3 determinant truncations on both ring
    kinds and on f = 2, then four seeded polynomials on fixed rings."""
    rng = random.Random(seed)
    jobs = [
        _fixed(f"igusa --poly a*b-c*d --ring {ring}")
        for ring in ("zq:p=2,f=1,m=6", "fqt:p=2,f=1,m=6",
                     "fqt:p=3,f=1,m=4", "zq:p=2,f=2,m=3")
    ]
    det3 = "a*e*i+b*f*g+c*d*h-c*e*g-b*d*i-a*f*h"
    jobs += [_fixed(f"igusa --poly {det3} --ring {ring}")
             for ring in ("zq:p=2,f=1,m=2", "fqt:p=2,f=1,m=2")]
    seeded = [
        (_coordinate_poly(rng, 4), "zq:p=2,f=1,m=5", "coordinate"),
        (_coordinate_poly(rng, 3), "fqt:p=3,f=1,m=4", "coordinate"),
        (_two_by_two_poly(rng), "fqt:p=2,f=1,m=5", "two_by_two"),
        (_two_by_two_poly(rng), "zq:p=3,f=1,m=3", "two_by_two"),
    ]
    jobs += [
        Job("igusa", ("igusa", "--poly", poly, "--ring", ring),
            closed_form=form)
        for poly, ring, form in seeded
    ]
    return jobs


def jobs_for(workload, seed):
    return {
        "classes-zq": classes_zq,
        "hecke-fqt": hecke_fqt,
        "summation": summation,
        "igusa-levels": igusa_levels,
    }[workload](seed)
