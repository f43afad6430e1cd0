"""Ring layer: axioms, valuations, projections, matrix kernels.

The Galois ring GR(4,2) = Z[x]/(4, x^2+x+1) oracle values (size 16, 12
units, x a unit of multiplicative order 3 lifting the Frobenius orbit) were
computed by hand from the definition and double-checked with a brute-force
invertibility scan in this file, independent of the table construction.
"""

import tracemalloc

import numpy as np
import pytest

from localzeta import rings
# the scalar MUL/ADD gather: the oracle for every mat_mul route, the one
# ``verify --suite tables`` holds the tables' products to
from localzeta.verify import _gather_mat_mul
from localzeta.rings import (
    NotAUnit,
    Ring,
    RingError,
    _Kronecker,
    crt_split,
    find_modulus,
    make_ring,
    parse_ring,
)

RING_LITERALS = [
    "zq:p=2,f=1,m=2",
    "zq:p=2,f=1,m=3",
    "zq:p=3,f=1,m=2",
    "zq:p=2,f=2,m=2",
    "zq:p=3,f=2,m=2",
    "fqt:p=2,f=1,m=2",
    "fqt:p=2,f=1,m=3",
    "fqt:p=3,f=1,m=2",
    "fqt:p=2,f=2,m=2",
    "zn:n=6",
    "zn:n=12",
]


def euler_phi(n):
    """phi(n) = n prod (1 - 1/p) over the primes p dividing n."""
    out = n
    for p in range(2, n + 1):
        if n % p == 0 and all(p % d for d in range(2, p)):
            out = out // p * (p - 1)
    return out


def all_rings():
    return [parse_ring(s) for s in RING_LITERALS]


def test_sizes_and_unit_counts():
    for ring in all_rings():
        if ring.kind == "zn":
            assert ring.size == ring.n
            assert len(ring.units()) == euler_phi(ring.n)
        else:
            q = ring.q
            assert ring.size == q**ring.m
            assert len(ring.units()) == q**ring.m - q ** (ring.m - 1)


def test_ring_axioms_exhaustive():
    # commutativity, associativity, distributivity checked on full tables
    for ring in all_rings():
        A = ring.ADD
        M = ring.MUL
        n = ring.size
        assert (A == A.T).all() and (M == M.T).all()
        idx = np.arange(n)
        assert (A[0, idx] == idx).all()
        assert (M[ring.one, idx] == idx).all()
        assert (A[idx, ring.NEG[idx]] == 0).all()
        assert (M[0, idx] == 0).all()
        # associativity and distributivity on a triple grid (all of a small
        # ring, a fixed slice of a big one; every pair still appears)
        k = min(n, 24)
        a = idx[:k, None, None]
        b = idx[None, :k, None]
        c = idx[None, None, :k]
        assert (A[A[a, b], c] == A[a, A[b, c]]).all()
        assert (M[M[a, b], c] == M[a, M[b, c]]).all()
        assert (M[a, A[b, c]] == A[M[a, b], M[a, c]]).all()


def test_galois_ring_gr42_oracle():
    # GR(4,2): h = x^2 + x + 1 is the lowest irreducible of degree 2 mod 2
    assert find_modulus(2, 2) == (1, 1, 1)
    ring = parse_ring("zq:p=2,f=2,m=2")
    assert ring.size == 16
    # brute-force invertibility, independent of the UNIT/INV tables
    units = [a for a in range(16)
             if any(ring.mul(a, b) == ring.one for b in range(16))]
    assert len(units) == 12
    assert sorted(units) == sorted(ring.units())
    # x has index 4 (coefficient 1 in the x slot); x^2 = -x - 1 = 3x + 3
    x = 4
    x2 = ring.mul(x, x)
    assert x2 == ring.from_digits((1, 1, 1, 1))  # 3 + 3x
    # x * x^2 = x^3 = 1 would need order 3: (x)(3x+3) = 3x^2+3x = 9x+9+3x = 1
    assert ring.mul(x, x2) == ring.one
    # 2 is nilpotent of order 2
    two = ring.from_int(2)
    assert ring.valuation(two) == 1
    assert ring.mul(two, two) == 0


def test_valuation_behaviour():
    for ring in all_rings():
        if ring.kind == "zn":
            with pytest.raises(RingError):
                ring.valuation(1)
            continue
        m = ring.m
        vals = [ring.valuation(a) for a in ring.elements()]
        assert vals[0] == m
        assert all(0 <= v <= m for v in vals)
        # v(ab) = min(v(a)+v(b), m) in these truncations
        for a in ring.elements():
            va = vals[a]
            prods = ring.MUL[a]
            want = np.minimum(va + np.array(vals), m)
            got = np.array([vals[c] for c in prods])
            assert (got == want).all()
        # counts: exactly q^{m-k} - q^{m-k-1} elements of valuation k < m
        q = ring.q
        for k in range(m):
            assert vals.count(k) == q ** (m - k) - q ** (m - k - 1)


def test_inversion_and_failures():
    for ring in all_rings():
        for u in ring.units():
            assert ring.mul(u, ring.invert(u)) == ring.one
        nonunits = set(ring.elements()) - set(ring.units())
        for a in list(nonunits)[:5]:
            with pytest.raises(NotAUnit):
                ring.invert(a)


def test_pow_agrees_with_repeated_multiplication():
    ring = parse_ring("zq:p=3,f=2,m=2")
    for a in list(ring.elements())[:30]:
        acc = ring.one
        for e in range(6):
            assert ring.pow(a, e) == acc
            acc = ring.mul(acc, a)
    u = ring.units()[5]
    assert ring.pow(u, -1) == ring.invert(u)


def test_digits_roundtrip():
    for ring in all_rings():
        if ring.kind == "zn":
            continue
        width = ring.m * ring.f
        for a in ring.elements():
            digs = ring.digits(a)
            assert len(digs) == width
            assert all(0 <= d < ring.p for d in digs)
            assert ring.from_digits(digs) == a


def test_projection_is_ring_homomorphism():
    for lit in ["zq:p=3,f=1,m=2", "zq:p=2,f=2,m=2", "fqt:p=2,f=1,m=3"]:
        ring = parse_ring(lit)
        for k in range(1, ring.m + 1):
            low = ring.subring_level(k)
            tab = ring.project_table(k)
            idx = np.arange(ring.size)
            assert tab[0] == 0 and tab[ring.one] == low.one
            assert (tab[ring.ADD] == low.ADD[tab[idx][:, None], tab[idx][None, :]]).all()
            assert (tab[ring.MUL] == low.MUL[tab[idx][:, None], tab[idx][None, :]]).all()
            # fibers all have the same size
            counts = np.bincount(tab, minlength=low.size)
            assert (counts == ring.size // low.size).all()


def test_table_invariants_raise(monkeypatch):
    # raised, not asserted, so they hold under python -O too
    ring = Ring("fqt", p=2, f=1, m=2)
    monkeypatch.setattr(ring, "DIGITS", np.full((4, 2, 1), 2))
    with pytest.raises(RingError, match="range"):
        ring.project_table(1)

    build_units = Ring._build_unit_tables

    def corrupt_square(self):
        self.MUL = self.MUL.copy()
        self.MUL[2, 2] = 2  # 2 * 2 = 1 in F_3
        build_units(self)

    monkeypatch.setattr(Ring, "_build_unit_tables", corrupt_square)
    with pytest.raises(RingError, match="inverse"):
        Ring("zq", p=3, f=1, m=1)
    monkeypatch.setattr(Ring, "_build_unit_tables", build_units)

    monkeypatch.setattr(Ring, "_valuation_table",
                        lambda self: np.zeros(self.size, dtype=np.int32))
    with pytest.raises(RingError, match="units"):
        Ring("zq", p=2, f=1, m=2)


def test_projection_respects_valuation_cap():
    ring = parse_ring("zq:p=2,f=1,m=3")
    low = ring.subring_level(2)
    for a in ring.elements():
        va = ring.valuation(a)
        vp = low.valuation(int(ring.project_table(2)[a]))
        assert vp == min(va, 2)


def test_crt_residue_units_multiplicative():
    # phi(12) = phi(4) phi(3): unit counts split along coprime factors
    r12 = parse_ring("zn:n=12")
    assert crt_split(12) == [4, 3]
    r4 = make_ring("zq", p=2, f=1, m=2)
    r3 = make_ring("zq", p=3, f=1, m=1)
    assert len(r12.units()) == len(r4.units()) * len(r3.units())
    # the CRT map a -> (a mod 4, a mod 3) is a bijective ring map
    seen = set()
    for a in range(12):
        pair = (a % 4, a % 3)
        assert pair not in seen
        seen.add(pair)
        for b in range(12):
            s = r12.add(a, b)
            assert (s % 4, s % 3) == (r4.add(a % 4, b % 4), r3.add(a % 3, b % 3))
            t = r12.mul(a, b)
            assert (t % 4, t % 3) == (r4.mul(a % 4, b % 4), r3.mul(a % 3, b % 3))


def test_additive_generators_span():
    for ring in all_rings():
        gens = ring.additive_generators()
        span = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for s in frontier:
                for g in gens:
                    t = ring.add(s, g)
                    if t not in span:
                        span.add(t)
                        nxt.append(t)
            frontier = nxt
        assert len(span) == ring.size


def test_unit_generators_span():
    for ring in all_rings():
        gens = ring.unit_generators()
        span = {ring.one}
        frontier = [ring.one]
        while frontier:
            nxt = []
            for s in frontier:
                for g in gens:
                    t = ring.mul(s, g)
                    if t not in span:
                        span.add(t)
                        nxt.append(t)
            frontier = nxt
        assert len(span) == len(ring.units())
        assert gens == sorted(gens)


def greedy_unit_generators(ring):
    """The greedy list as first written, closing the span under products
    with each new element in Python sets: the oracle of the mask closure
    in ``Ring.unit_generators``."""
    units = ring.units()
    gens, span = [], {ring.one}
    for u in units:
        if u in span:
            continue
        gens.append(u)
        frontier = [u]
        while frontier:
            nxt = []
            for s in list(span):
                for g in frontier:
                    t = int(ring.MUL[s, g])
                    if t not in span:
                        span.add(t)
                        nxt.append(t)
            frontier = nxt
        if len(span) == len(units):
            break
    return gens


@pytest.mark.parametrize("lit", [
    "zq:p=2,f=1,m=12", "zq:p=2,f=2,m=3", "fqt:p=3,f=2,m=3",
    "fqt:p=2,f=1,m=12", "zn:n=360", "zn:n=4095",
])
def test_unit_generators_match_the_greedy_search(lit):
    ring = parse_ring(lit)
    gens = ring.unit_generators()
    assert gens == greedy_unit_generators(ring)
    assert all(type(u) is int for u in gens)
    gens.append(0)  # the caller's copy: the ring keeps its own
    assert ring.unit_generators() == gens[:-1]


def test_matrix_multiplication_paths_agree():
    # the int64 fast path (f=1 and zn) must match the table path
    for lit in ["zq:p=2,f=1,m=3", "zn:n=12"]:
        ring = parse_ring(lit)
        rng = np.random.default_rng(7)
        A = rng.integers(0, ring.size, size=(5, 3, 3), dtype=np.int64).astype(np.int32)
        B = rng.integers(0, ring.size, size=(5, 3, 3), dtype=np.int64).astype(np.int32)
        fast = ring.mat_mul(A, B)
        slow = np.zeros_like(fast)
        for n in range(5):
            for i in range(3):
                for j in range(3):
                    acc = 0
                    for k in range(3):
                        acc = ring.add(acc, ring.mul(A[n, i, k], B[n, k, j]))
                    slow[n, i, j] = acc
        assert (fast == slow).all()


def _int_mat_mul(ring, A, B):
    """Matrix products in Python ints, with no ring table: each entry's
    coefficients of t^i x^j are read off its index, multiplied out, and
    reduced modulo t^m (fqt), h = find_modulus(p, f) and p (fqt) or p^m
    (zq).  A and B share their batch shape."""
    p, f = ring.p, ring.f
    P, T = (p**ring.m, 1) if ring.kind == "zq" else (p, ring.m)
    h = find_modulus(p, f)

    def coeffs(a):
        return [(i, j, int(a) // P ** (i * f + j) % P)
                for i in range(T) for j in range(f)]

    out = np.zeros(A.shape[:-1] + B.shape[-1:], dtype=np.int64)
    for idx in np.ndindex(out.shape):
        acc = [[0] * (2 * f - 1) for _ in range(T)]
        for k in range(A.shape[-1]):
            for i1, j1, c1 in coeffs(A[idx[:-1] + (k,)]):
                for i2, j2, c2 in coeffs(B[idx[:-2] + (k, idx[-1])]):
                    if i1 + i2 < T:
                        acc[i1 + i2][j1 + j2] += c1 * c2
        for row in acc:  # x^k = -(h_0 + ... + h_(f-1) x^(f-1)) x^(k-f)
            for k in range(2 * f - 2, f - 1, -1):
                c, row[k] = row[k], 0
                for t in range(f):
                    row[k - f + t] -= c * h[t]
        out[idx] = sum(acc[i][j] % P * P ** (i * f + j)
                       for i in range(T) for j in range(f))
    return out


@pytest.mark.parametrize("lit", ["zq:p=2,f=1,m=11", "zq:p=3,f=1,m=6",
                                 "zn:n=2003"])
def test_fast_mat_mul_near_its_largest_products(lit):
    # the largest moduli under the table cap, entries at the top of the
    # range and inner dimensions up to 14 (G2 adjoint): the float64 product
    # and its integer remainder must equal a MUL/ADD gather over the ring
    ring = parse_ring(lit)
    assert ring._fast_mod == ring.size
    rng = np.random.default_rng(13)
    for k in (3, 8, 14):
        A = rng.integers(ring.size - 40, ring.size, size=(30, 4, k))
        B = rng.integers(0, ring.size, size=(30, k, 5))
        B[:15] = ring.size - 1
        A, B = A.astype(np.int32), B.astype(np.int32)
        got = ring.mat_mul(A, B)
        assert got.dtype == np.int32
        assert (got == _gather_mat_mul(ring, A, B)).all()
        exact = (A.astype(object) @ B.astype(object)) % ring.size
        assert (got == exact.astype(np.int64)).all()


KRONECKER_RINGS = [
    "fqt:p=2,f=1,m=1", "fqt:p=2,f=1,m=6", "fqt:p=2,f=1,m=12",
    "fqt:p=3,f=1,m=7", "fqt:p=2,f=2,m=6", "fqt:p=3,f=2,m=3",
    "zq:p=2,f=2,m=3", "zq:p=3,f=2,m=3", "zq:p=2,f=3,m=2",
    "fqt:p=61,f=1,m=2",  # fields wider than LUT_BITS
]
INNER_DIMS = (2, 3, 8, 10, 14)


def _route(plan):
    if plan.float:
        return "float64"
    return "int64 wrap" if len(plan.groups) == 1 else "blocked"


def test_kronecker_rings_reach_every_route():
    routes = {_route(_Kronecker(parse_ring(lit), k))
              for lit in KRONECKER_RINGS for k in INNER_DIMS}
    assert routes == {"float64", "int64 wrap", "blocked"}


@pytest.mark.parametrize("lit", KRONECKER_RINGS)
def test_kronecker_mat_mul_matches_oracles(lit):
    # entries at the top of the range (index size - 1 has every digit
    # p - 1) and random ones, against the gather and Python ints
    ring = parse_ring(lit)
    assert ring._fast_mod is None
    rng = np.random.default_rng(17)
    for k in INNER_DIMS:
        A = rng.integers(0, ring.size, size=(3, 3, k)).astype(np.int32)
        B = rng.integers(0, ring.size, size=(3, k, 4)).astype(np.int32)
        A[0] = B[0] = ring.size - 1
        got = ring.mat_mul(A, B)
        assert got.dtype == np.int32
        assert (got == _gather_mat_mul(ring, A, B)).all()
        assert (got == _int_mat_mul(ring, A, B)).all()


@pytest.mark.parametrize("lit", ["fqt:p=2,f=1,m=6", "fqt:p=3,f=2,m=3",
                                 "zq:p=2,f=2,m=3"])
def test_kronecker_mat_mul_in_the_shape_generate_uses(lit):
    # generate multiplies (1, r, d, d) frontier pieces by (g, 1, d, d)
    # generators; the result is (g, r, d, d)
    ring = parse_ring(lit)
    rng = np.random.default_rng(19)
    for d in (3, 10):
        A = rng.integers(0, ring.size, size=(1, 40, d, d)).astype(np.int32)
        B = rng.integers(0, ring.size, size=(5, 1, d, d)).astype(np.int32)
        got = ring.mat_mul(A, B)
        assert got.shape == (5, 40, d, d) and got.dtype == np.int32
        assert (got == _gather_mat_mul(ring, A, B)).all()


@pytest.mark.parametrize("d,batch", [(3, 1 << 16), (10, 1 << 13)])
def test_kronecker_mat_mul_memory_is_linear_in_the_batch(d, batch):
    # a few arrays of batch * d^2 words, and no batch * d^3 intermediate
    ring = parse_ring("fqt:p=2,f=1,m=6")
    rng = np.random.default_rng(23)
    A = rng.integers(0, ring.size, size=(batch, d, d)).astype(np.int32)
    B = rng.integers(0, ring.size, size=(batch, d, d)).astype(np.int32)
    ring.mat_mul(A[:1], B[:1])  # lookup tables built before measuring
    tracemalloc.start()
    try:
        ring.mat_mul(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * batch * d * d * 8


@pytest.mark.parametrize("kind,params", [
    ("zq", {"p": 2, "f": 1, "m": 12}),
    ("zn", {"n": 4095}),
], ids=["zq:p=2,f=1,m=12", "zn:n=4095"])
def test_residue_ring_tables_match_the_int64_formula(kind, params):
    # ADD and MUL are int32 outer sums and products reduced in place: no
    # int64 temporary of |R|^2 entries, and the tables of the int64 formula
    tracemalloc.start()
    try:
        ring = Ring(kind, **params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = mod = ring.size
    assert peak <= 2 * size * size * 4 + (16 << 20)
    idx = np.arange(size, dtype=np.int64)
    for lo in range(0, size, 512):
        rows = idx[lo:lo + 512, None]
        for table, want in ((ring.ADD, rows + idx), (ring.MUL, rows * idx)):
            assert table.dtype == np.int32
            assert table[lo:lo + 512].tobytes() \
                == (want % mod).astype(np.int32).tobytes()
    assert ring.NEG.tobytes() == ((-idx) % mod).astype(np.int32).tobytes()


def test_digit_table_is_built_once():
    # every digit reader reads the one table the constructor built
    for ring in (Ring("fqt", p=3, f=2, m=2), Ring("zq", p=3, f=2, m=2)):
        D = ring.DIGITS
        assert D.dtype == np.int64 and not D.flags.writeable
        assert np.shares_memory(ring.top_digits(), D)
        ring.element_str(5)
        ring.project_table(1)
        ring._poly_digits()
        assert ring.DIGITS is D
    fqt = Ring("fqt", p=3, f=2, m=2)
    assert np.shares_memory(fqt._poly_digits()[2], fqt.DIGITS)


def test_ring_over_the_cap_raises_before_any_table():
    tracemalloc.start()
    try:
        with pytest.raises(RingError, match="exceeds table cap"):
            Ring("zq", p=2, f=1, m=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a digit table of 2^40 elements would need 2^40 * 40 * 8 bytes
    assert peak < 1 << 20


# The per-kind index formulas that the digit model (W, DIGITS, char)
# replaced, kept as its oracle.

def _base_digits(size, base, width):
    idx = np.arange(size, dtype=np.int64)
    return np.stack([idx // base**j % base for j in range(width)], axis=1)


def _old_coeffs(ring):
    """zq: the coefficient of x^j in [0, p^m); fqt: the coefficient of
    t^i, a residue index."""
    if ring.kind == "zq":
        return _base_digits(ring.size, ring.p**ring.m, ring.f)
    return _base_digits(ring.size, ring.q, ring.m)


def _old_valuation(ring, C):
    if ring.kind == "zq":
        p = ring.p
        v = np.full(C.shape, ring.m, dtype=np.int32)
        for e in range(ring.m - 1, -1, -1):
            mask = C % (p ** (e + 1)) != 0
            v[mask] = np.minimum(v[mask], e)
        return v.min(axis=1).astype(np.int32)
    v = np.full(ring.size, ring.m, dtype=np.int32)
    for i in range(ring.m - 1, -1, -1):
        v[C[:, i] != 0] = i
    return v


def _old_project(ring, C, k):
    if ring.kind == "zq":
        pk = ring.p**k
        w = pk ** np.arange(ring.f, dtype=np.int64)
        return ((C % pk) * w).sum(axis=1).astype(np.int32)
    w = ring.q ** np.arange(k, dtype=np.int64)
    return (C[:, :k] * w).sum(axis=1).astype(np.int32)


def _old_top_digits(ring, C):
    if ring.kind == "zq":
        return C // ring.p ** (ring.m - 1)
    return _base_digits(ring.q, ring.p, ring.f)[C[:, ring.m - 1]]


def _old_kernel_scalars(ring):
    step = ring.p**ring.m if ring.kind == "zq" else ring.p
    low = ring.p ** (ring.m - 1) if ring.kind == "zq" \
        else ring.q ** (ring.m - 1)
    return [low * step**j for j in range(ring.f)]


def _old_additive_generators(ring):
    if ring.kind == "zq":
        pm = ring.p**ring.m
        return [int(pm**j) for j in range(ring.f)]
    return [int((ring.p**j) * ring.q**i)
            for i in range(ring.m) for j in range(ring.f)]


def _old_digits(ring, a):
    p, out = ring.p, []
    outer, base, inner = (ring.f, ring.p**ring.m, ring.m) \
        if ring.kind == "zq" else (ring.m, ring.q, ring.f)
    for _ in range(outer):
        c = a % base
        a //= base
        for _ in range(inner):
            out.append(c % p)
            c //= p
    return tuple(out)


def _old_char(ring):
    return ring.p**ring.m if ring.kind == "zq" else ring.p


def _old_poly_digits(ring, C):
    if ring.kind == "zq":
        return ring.p**ring.m, 1, C
    return ring.p, ring.m, _base_digits(ring.size, ring.p, ring.m * ring.f)


def _old_element_str(ring, C, a):
    terms = []
    if ring.kind == "zq":
        for j in range(ring.f):
            c = int(C[a, j])
            if c:
                terms.append(f"{c}" if j == 0 else f"{c}*x^{j}")
    else:
        for i in range(ring.m):
            c = int(C[a, i])
            if c:
                terms.append(f"[{c}]" if i == 0 else f"[{c}]*t^{i}")
    return " + ".join(terms) if terms else "0"


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got == want).all()


def _digit_model_rings(kind, p):
    """Every m under the table cap for f = 1, 2, 3, and for p = 2 the
    4096-element rings of f = 4, 6, 12 too."""
    out = []
    for f in (1, 2, 3, 4, 6, 12):
        m = 1
        while p ** (f * m) <= rings.RING_TABLE_CAP:
            if f <= 3 or p ** (f * m) == rings.RING_TABLE_CAP:
                out.append((f, m))
            m += 1
    return out


@pytest.mark.parametrize("kind", ["zq", "fqt"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_digit_model_matches_the_per_kind_formulas(monkeypatch, kind, p):
    # rings without their ADD/MUL tables, which the digit model never
    # reads, and uncached, so no table-less ring reaches make_ring's cache
    monkeypatch.setattr(
        Ring, "_build_tables",
        lambda self: setattr(self, "VAL", self._valuation_table()))
    monkeypatch.setattr(rings, "make_ring", lambda kind, p=None, f=None,
                        m=None, n=None: Ring(kind, p=p, f=f, m=m))
    rng = np.random.default_rng(p)
    for f, m in _digit_model_rings(kind, p):
        ring = Ring(kind, p=p, f=f, m=m)
        C = _old_coeffs(ring)
        _same(ring.VAL, _old_valuation(ring, C))
        for k in range(1, m + 1):
            _same(ring.project_table(k), _old_project(ring, C, k))
        _same(ring.top_digits(), _old_top_digits(ring, C))
        for got, want in ((ring.kernel_scalars(), _old_kernel_scalars(ring)),
                          (ring.additive_generators(),
                           _old_additive_generators(ring))):
            assert got == want and all(type(g) is int for g in got)
        P, T, D = ring._poly_digits()
        oP, oT, oD = _old_poly_digits(ring, C)
        assert (P, T) == (oP, oT) and type(P) is int
        _same(D, oD)
        char = _old_char(ring)
        for c in (-2 * char - 1, -char, -1, 0, 1, char - 1, char, 3 * char + 2):
            got = ring.from_int(c)
            assert got == c % char and type(got) is int
        M = rng.integers(-5 * ring.size, 5 * ring.size, size=(3, 4, 4))
        _same(ring.mat_from_int(M), (M % char).astype(np.int32))
        for a in range(ring.size):
            digs = ring.digits(a)
            assert digs == _old_digits(ring, a)
            assert ring.from_digits(digs) == a
            assert ring.element_str(a) == _old_element_str(ring, C, a)


def test_matrix_ops_table_ring():
    ring = parse_ring("zq:p=2,f=2,m=2")
    rng = np.random.default_rng(11)
    A = rng.integers(0, ring.size, size=(4, 2, 2)).astype(np.int32)
    B = rng.integers(0, ring.size, size=(4, 2, 2)).astype(np.int32)
    C = ring.mat_mul(A, B)
    for n in range(4):
        for i in range(2):
            for j in range(2):
                acc = 0
                for k in range(2):
                    acc = ring.add(acc, ring.mul(A[n, i, k], B[n, k, j]))
                assert C[n, i, j] == acc
    ident = ring.identity_mat(2)
    assert (ring.mat_mul(A, ident) == A).all()
    assert (ring.mat_sub(A, A) == 0).all()
    v = ring.mat_min_valuation(ring.mat_sub(A, B))
    assert v.shape == (4,)


def test_literal_roundtrip_and_errors():
    for lit in RING_LITERALS:
        ring = parse_ring(lit)
        assert ring.literal == lit
        assert parse_ring(ring.literal) is ring  # cached
    with pytest.raises(RingError):
        parse_ring("zq:p=4,f=1,m=2")  # p not prime
    with pytest.raises(RingError):
        parse_ring("zq:p=2,f=1")
    with pytest.raises(RingError):
        parse_ring("gl:n=3")
    with pytest.raises(RingError):
        parse_ring("zq:p=2,f=6,m=3")  # 2^18 over the table cap
    with pytest.raises(RingError):
        Ring("zn", n=1)


@pytest.mark.parametrize("text, match", [
    ("zq:p=2,f=1,m=2,m=3", r"repeats \['m'\]"),
    ("fqt:p=2,p=2,f=1,m=3", r"repeats \['p'\]"),
    ("zn:n=6,n=6", r"repeats \['n'\]"),
    ("zq:p=2,f=1,m=3,x=5", r"zq takes no \['x'\]"),
    ("fqt:p=2,f=1,m=3,n=4", r"fqt takes no \['n'\]"),
    ("zn:n=6,p=3", r"zn takes no \['p'\]"),
])
def test_literals_refuse_repeated_and_unknown_keys(text, match):
    with pytest.raises(RingError, match=match):
        parse_ring(text)


def test_from_int_is_canonical():
    ring = parse_ring("zq:p=2,f=1,m=3")
    assert ring.from_int(8) == 0
    assert ring.from_int(-1) == 7
    f4 = parse_ring("fqt:p=2,f=2,m=2")
    assert f4.from_int(2) == 0  # char 2
    assert f4.from_int(3) == f4.one


def test_element_str_smoke():
    gr = parse_ring("zq:p=2,f=2,m=2")
    assert gr.element_str(0) == "0"
    assert gr.element_str(gr.one) == "1"
    assert "x" in gr.element_str(4)
    ft = parse_ring("fqt:p=2,f=1,m=3")
    assert "t" in ft.element_str(2)
