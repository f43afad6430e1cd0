"""Group enumeration: orders, classes, cosets, depths.

Independent oracles used here: PGL2 over F2/F3/F5 are S3/S4/S5 (orders 6,
24, 120 with 3, 5, 7 conjugacy classes), |PGL3(F2)| = 168, Bruhat double
coset counts are Weyl-group counts, and the Heisenberg class count is
q^2 + q - 1 (center q, plus q^2 - 1 noncentral fibers... verified against
plain Burnside on the enumerated tables).
"""

import contextlib
import hashlib
import io
import itertools
import math

import numpy as np
import pytest

from localzeta import cache, cli, groups, rings, zeta
from localzeta.groups import (
    Family,
    GroupsError,
    GroupTable,
    IdentityError,
    TooLarge,
    generate,
    parabolic_depth_coset,
    parabolic_depths,
)
from localzeta.rings import RingError, parse_ring

from group_helpers import (
    commutator_depth,
    commutator_depth_kernel,
    lookup,
    mul,
)


def table(family, ring_lit):
    return Family(family).table(parse_ring(ring_lit))


def test_a1_orders_and_classes():
    for lit, order, classes in [
        ("zq:p=2,f=1,m=1", 6, 3),  # S3
        ("zq:p=3,f=1,m=1", 24, 5),  # S4
        ("zq:p=5,f=1,m=1", 120, 7),  # S5
    ]:
        G = table("chevalley:A1", lit)
        assert G.size == order
        assert G.class_count() == classes
        # Burnside: classes * |G| = commuting pairs, counted independently
        assert G.commuting_pairs() == classes * order


def test_a2_order_f2():
    G = table("chevalley:A2", "zq:p=2,f=1,m=1")
    assert G.size == 168


def test_lemma61_scaling_a1():
    # |G(o/p^m)| = |G(F_q)| q^{(m-1) d}
    for p, orders in [(2, [6, 48, 384]), (3, [24, 648])]:
        for m, want in enumerate(orders, start=1):
            G = table("chevalley:A1", f"zq:p={p},f=1,m={m}")
            assert G.size == want
            assert want == orders[0] * p ** ((m - 1) * 3)


def test_inverses_are_correct():
    for fam, lit in [("chevalley:A1", "zq:p=3,f=1,m=2"),
                     ("heisenberg", "zq:p=2,f=1,m=2"),
                     ("chevalley:A1", "fqt:p=2,f=2,m=1"),
                     ("chevalley:A1", "zq:p=2,f=2,m=2"),
                     ("heisenberg", "zn:n=6"),
                     ("parabolic:B2:a1", "fqt:p=2,f=1,m=1"),
                     ("torus:A2", "zq:p=3,f=1,m=2")]:
        G = table(fam, lit)
        prod = G.ring.mat_mul(G.mats, G.mats[G.inv])
        ident = G.ring.identity_mat(G.d)
        assert (prod == ident[None]).all()


def test_generate_forms_only_the_frontier_products(monkeypatch):
    # the kernel route forms one product s_j * g per lower element and
    # generator, one s_r (I + pi^(m-1) B_i) per residue class r and basis
    # vector B_i of V for the adjoint action, and one s_j s_j' per lower
    # element j for the inverses; the key route one x * g per element and
    # generator, its inverses being gathers on rho, not matrix products
    real, formed = rings.Ring.mat_mul, []

    def counting(self, A, B):
        out = real(self, A, B)
        if self.m != 1:  # count only the products on the level-m ring
            formed.append(math.prod(out.shape[:-2]))
        return out

    monkeypatch.setattr(rings.Ring, "mat_mul", counting)
    for family, lit in [("chevalley:A1", "zq:p=3,f=1,m=2"),
                        ("parabolic:B2:a1", "fqt:p=2,f=1,m=2"),
                        ("heisenberg", "zq:p=3,f=1,m=3")]:
        fam, ring = Family(family), parse_ring(lit)
        lower = fam.table(ring.subring_level(ring.m - 1))
        formed.clear()  # count the top level's products only
        G = fam.table(ring, lower=lower)
        assert sum(formed) == lower.size * len(G.generators) \
            + len(G.record.residues) * ring.f * fam.dim_scheme + lower.size
        assert G.size == lower.size * ring.q ** fam.dim_scheme
        formed.clear()
        keyed = generate(ring, fam.generators(ring))
        assert sum(formed) == keyed.size * len(keyed.generators)


def test_generators_that_miss_part_of_the_kernel_raise():
    # over F2[t]/t^2 the generators with entries 1 give a copy of the
    # level-1 group: their cocycles span less than V, so by Schreier's
    # lemma they fill one slot of each fibre, and the kernel route refuses
    fam, ring = Family("heisenberg"), parse_ring("fqt:p=2,f=1,m=2")
    lower = fam.table(ring.subring_level(1))
    gens = groups._heisenberg_generators(ring, [ring.one])
    with pytest.raises(GroupsError, match="F_p-rank 0, not 3"):
        generate(ring, gens, lower=lower, kernel=fam.kernel_generators(ring))
    assert generate(ring, gens).size == lower.size


def read_off_by_one(index):
    """Make ``_cocycles`` of index check each product's coordinates v as
    if read off by the first basis vector of V: against the digit row of
    X_v + B_0 in place of X_v."""
    v = np.arange(index.nV)
    index.rows = index.rows[v - v % index.p + (v + 1) % index.p]


def test_a_corrupted_inverse_product_raises(monkeypatch):
    # the coordinates e_j of the products s_j s_j' read off by one: the
    # products no longer equal I + pi^(m-1) X_e
    fam, ring = Family("heisenberg"), parse_ring("zq:p=3,f=1,m=2")
    lower = fam.table(ring.subring_level(1))
    real_inverses, real = groups._KernelIndex._inverse_cocycles, \
        groups._KernelIndex._cocycles
    calls = []

    def marking(self, *args):
        self.inverting = True
        return real_inverses(self, *args)

    def misread(self, prod, J):
        if getattr(self, "inverting", False):
            calls.append(len(J))
            read_off_by_one(self)
        return real(self, prod, J)

    monkeypatch.setattr(groups._KernelIndex, "_inverse_cocycles", marking)
    monkeypatch.setattr(groups._KernelIndex, "_cocycles", misread)
    with pytest.raises(IdentityError, match="off its kernel coordinates"):
        fam.table(ring, lower=lower)
    assert calls == [lower.size]


def test_inverses_reject_a_table_that_is_no_group():
    # x -> x g never reaches the identity: g is not a unit
    with pytest.raises(GroupsError, match="never reaches the identity"):
        groups._inverses(np.array([[1, 1]], dtype=np.int32),
                         np.zeros(2, np.int64), np.zeros(2, np.int64),
                         [(0, 1), (1, 2)])
    # both rows reach the identity, but neither is a permutation
    rho = np.array([[0, 2, 0], [1, 0, 0]], dtype=np.int32)
    with pytest.raises(IdentityError, match="not an involution"):
        groups._inverses(rho, np.array([0, 0, 1]), np.array([0, 1, 0]),
                         [(0, 1), (1, 2), (2, 3)])


def test_heisenberg_orders_and_classes():
    for lit, q in [
        ("zq:p=2,f=1,m=1", 2),
        ("zq:p=3,f=1,m=1", 3),
        ("zq:p=2,f=2,m=1", 4),
        ("fqt:p=2,f=2,m=1", 4),
        ("zq:p=5,f=1,m=1", 5),
    ]:
        G = table("heisenberg", lit)
        assert G.size == q**3
        assert G.class_count() == q * q + q - 1
    assert table("heisenberg", "zq:p=2,f=1,m=1").class_count() == 5


def test_heisenberg_level2_transfer_pair():
    a = table("heisenberg", "zq:p=2,f=1,m=2")
    b = table("heisenberg", "fqt:p=2,f=1,m=2")
    assert a.size == b.size == 64
    assert a.class_count() == b.class_count() == 22
    assert a.commuting_pairs() == 22 * 64


def test_enumeration_is_deterministic():
    a = table("chevalley:A1", "zq:p=3,f=1,m=1")
    b = table("chevalley:A1", "zq:p=3,f=1,m=1")
    assert (a.mats == b.mats).all()
    assert (a.inv == b.inv).all()
    assert [p for p, _ in a.generators] == [p for p, _ in b.generators]


def test_cap_enforced():
    ring = parse_ring("zq:p=5,f=1,m=1")
    fam = Family("chevalley:A1")
    with pytest.raises(TooLarge):
        fam.table(ring, cap=50)


def test_cap_fails_at_first_element_past_it():
    # |G| = 729; the enumeration must stop at element cap + 1, not at the
    # end of the breadth-first layer that crosses the cap
    with pytest.raises(TooLarge) as err:
        Family("heisenberg").table(parse_ring("zq:p=3,f=1,m=2"), cap=100)
    reached = int(str(err.value).rsplit(" ", 1)[1])
    assert reached == 101


def test_double_cosets_trivial_cases():
    G = table("chevalley:A1", "zq:p=3,f=1,m=1")
    b, e, n1, n2 = G.double_coset_data(G.generators, G.generators)
    assert b == 1 and e == G.size**2 and n1 == n2 == G.size
    for triv in ([(("id",), G.ring.identity_mat(G.d))], []):
        b, e, n1, n2 = G.double_coset_data(triv, triv)
        assert b == G.size and e == G.size and n1 == n2 == 1


def test_bruhat_double_cosets():
    # Borel\G/Borel at level 1 is counted by the Weyl group
    for fam, lit, w in [
        ("chevalley:A1", "zq:p=2,f=1,m=1", 2),
        ("chevalley:A1", "zq:p=3,f=1,m=1", 2),
        ("chevalley:A2", "zq:p=2,f=1,m=1", 6),
    ]:
        system = fam.split(":")[1]
        G = table(fam, lit)
        B = table(f"borel:{system}", lit)
        b, e, n1, n2 = G.double_coset_data(B.generators, B.generators)
        assert b == w
        assert n1 == n2 == B.size
        assert e == b * B.size * B.size


def test_maximal_parabolic_cosets_a2():
    G = table("chevalley:A2", "zq:p=2,f=1,m=1")
    p1 = table("parabolic:A2:a1", "zq:p=2,f=1,m=1")
    p2 = table("parabolic:A2:a2", "zq:p=2,f=1,m=1")
    b, e, n1, n2 = G.double_coset_data(p1.generators, p2.generators)
    assert (n1, n2) == (p1.size, p2.size)
    assert b == 2  # |W_{S1} \ W / W_{S2}| for S3 with two point stabilizers
    assert e == b * p1.size * p2.size
    assert e % (p1.size * p2.size) == 0


def test_hecke_pairs_against_direct_scan():
    G = table("chevalley:A1", "zq:p=3,f=1,m=1")
    B = table("borel:A1", "zq:p=3,f=1,m=1")
    idx = G.subgroup_indices(B.generators)
    bset = set(int(i) for i in idx)
    direct = 0
    for x in range(G.size):
        xinv = G.mats[G.inv[x]]
        for y in idx:
            conj = G.ring.mat_mul(
                G.ring.mat_mul(G.mats[x], G.mats[y]), xinv
            )
            if lookup(G, conj) in bset:
                direct += 1
    assert direct == G.hecke_pairs(idx, idx)


def test_subgroup_orders():
    # borel over F_q has (q-1)^l q^r elements; torus (q-1)^l; these orders
    # are what the Haar normalization identity needs
    for lit, q in [("zq:p=2,f=1,m=1", 2), ("zq:p=3,f=1,m=1", 3)]:
        B = table("borel:A1", lit)
        assert B.size == (q - 1) * q
        T = table("torus:A1", lit)
        assert T.size == q - 1
    B2 = table("borel:A2", "zq:p=2,f=1,m=1")
    assert B2.size == (2 - 1) ** 2 * 2**3
    U = table("unipotent:A2", "zq:p=2,f=1,m=1")
    assert U.size == 8


def class_sizes(G):
    return sorted(np.bincount(G.conjugation_labels()).tolist())


def test_unipotent_a2_matches_heisenberg_counts():
    # deliberate redundancy: the Chevalley-built unipotent radical of A2
    # and the direct 3x3 unitriangular family must agree in counting data
    for lit in ["zq:p=2,f=1,m=1", "zq:p=3,f=1,m=1", "zq:p=2,f=1,m=2"]:
        U = table("unipotent:A2", lit)
        H = table("heisenberg", lit)
        assert U.size == H.size
        assert U.class_count() == H.class_count()
        assert class_sizes(U) == class_sizes(H)


def test_commutator_depth_definitions_agree_z9():
    G = table("heisenberg", "zq:p=3,f=1,m=2")
    assert G.size == 729
    E = G.mats
    ring = G.ring
    ident = ring.identity_mat(3)
    inv_mats = E[G.inv]
    for i in range(G.size):
        x, xinv = E[i], inv_mats[i]
        diff = ring.mat_sub(ring.mat_mul(x, E), ring.mat_mul(E, x))
        w1 = ring.mat_min_valuation(diff)
        comm = ring.mat_mul(
            ring.mat_mul(xinv, inv_mats), ring.mat_mul(x, E)
        )
        w2 = ring.mat_min_valuation(ring.mat_sub(comm, ident))
        assert (w1 == w2).all()


def test_commutator_depth_examples():
    G = table("heisenberg", "zq:p=2,f=1,m=2")
    ring = G.ring
    x12 = ring.identity_mat(3)
    x12[0, 1] = 1
    central = ring.identity_mat(3)
    central[0, 2] = 2
    x23 = ring.identity_mat(3)
    x23[1, 2] = 2
    i, j, k = lookup(G, x12), lookup(G, central), lookup(G, x23)
    ident_idx = lookup(G, ring.identity_mat(3))
    assert commutator_depth(G, i, ident_idx) == 2  # commuting: full depth
    assert commutator_depth(G, i, j) == 2  # central partner
    assert commutator_depth(G, i, k) == 1  # commutator entry 2, valuation 1
    assert commutator_depth_kernel(G, i, k) == 1


def test_pair_depth_counts_match_classes():
    # #{w >= m} / |G_m'|... at top level m the count is the commuting pairs
    G = table("heisenberg", "zq:p=2,f=1,m=2")
    hist = G.pair_depth_counts()
    assert hist[0] == G.size**2
    assert hist[2] == G.commuting_pairs()


def test_pair_depth_counts_refuse_a_ring_with_no_valuation(monkeypatch):
    # Z/6 has no valuation: the depth histogram is refused, naming the
    # ring, before any product, while the commuting pairs are counted
    G = table("heisenberg", "zn:n=6")
    real, products = rings.Ring.mat_mul, []
    monkeypatch.setattr(
        rings.Ring, "mat_mul",
        lambda self, A, B: products.append(1) or real(self, A, B))
    with pytest.raises(RingError, match="valuation undefined on zn:n=6"):
        G.pair_depth_counts()
    assert products == []
    assert G.commuting_pairs() == 55 * 216


def test_parabolic_depth_a1_z4():
    lit = "zq:p=2,f=1,m=2"
    G1 = cache.table_for("chevalley:A1", parse_ring("zq:p=2,f=1,m=1"))
    G = cache.table_for("chevalley:A1", parse_ring(lit))
    borel = Family("borel:A1")
    B2 = table("borel:A1", lit)
    lam = parabolic_depths([G1, G], [borel.generators(G1.ring),
                                     borel.generators(G.ring)])
    assert lam.shape == (G.size,)
    # x in P_S at full level -> depth m
    for y in range(0, B2.size, 3):
        gi = lookup(G, B2.mats[y])
        assert lam[gi] == 2
    # the promised example: x_{-a}(2) has depth exactly 1
    cg = Family("chevalley:A1").cg
    neg = cg.rs.negative(cg.rs.positive[0])
    x = cg.x(G.ring, neg, 2)
    assert lam[lookup(G, x)] == 1
    # residue image outside the parabolic -> depth 0
    x0 = cg.x(G.ring, neg, 1)
    assert lam[lookup(G, x0)] == 0
    # coset-representative formula agrees everywhere
    for gi in range(G.size):
        assert lam[gi] == parabolic_depth_coset(gi, G, B2.generators)


# (group, top ring, subgroup literal) of the depth oracle: both ring
# kinds, p = 2 and 3, f = 2 and a roots: set, every element of the top
DEPTH_CASES = [
    ("chevalley:A1", "zq:p=2,f=1,m=3", "-"),
    ("chevalley:A1", "fqt:p=3,f=1,m=2", "-"),
    ("chevalley:A1", "fqt:p=2,f=2,m=2", "-"),
    ("chevalley:A1", "fqt:p=2,f=1,m=3", "roots:-a1"),
    ("chevalley:A1", "zq:p=3,f=1,m=2", "all"),
]


@pytest.mark.parametrize("group,lit,text", DEPTH_CASES)
def test_parabolic_depths_match_the_coset_formula(group, lit, text):
    # the depths read off the tower numbering equal the lemma's
    # max over y in P of min-val(y^-1 x - I), by matrix products
    top = parse_ring(lit)
    rings = [top.subring_level(m) for m in range(1, top.m + 1)]
    tables = [cache.table_for(group, ring) for ring in rings]
    fam = zeta.sub_family(group.split(":")[1], text)
    lam = parabolic_depths(tables, [fam.generators(r) for r in rings])
    G, gens = tables[-1], fam.generators(top)
    want = [parabolic_depth_coset(i, G, gens) for i in range(G.size)]
    assert lam.tolist() == want


def test_projection_between_levels():
    fam = Family("chevalley:A1")
    G2 = fam.table(parse_ring("zq:p=3,f=1,m=2"))
    G1 = fam.table(parse_ring("zq:p=3,f=1,m=1"))
    proj = G1.lookup_batch(G2.ring.mat_project(G2.mats, 1))
    # surjective with equal fibers
    counts = np.bincount(proj, minlength=G1.size)
    assert (counts == G2.size // G1.size).all()
    # homomorphism on a sample
    rng = np.random.default_rng(3)
    for _ in range(25):
        i, j = rng.integers(0, G2.size, size=2)
        k = mul(G2, int(i), int(j))
        lhs = proj[k]
        rhs = mul(G1, int(proj[i]), int(proj[j]))
        assert lhs == rhs


def test_family_literal_errors():
    with pytest.raises(GroupsError):
        Family("frobnicate:A1")
    with pytest.raises(GroupsError):
        Family("chevalley")
    with pytest.raises(GroupsError):
        Family("rootset:A2:a1,a2")  # not closed
    with pytest.raises(GroupsError):
        Family("heisenberg:A2")
    Family("rootset:A2:a1,a2,a1+a2")  # closed: fine
    assert Family("parabolic:A2:a1").dim_scheme == 2 + 4
    assert Family("borel:A2").dim_scheme == 2 + 3
    assert Family("unipotent:A2").dim_scheme == 3
    assert Family("torus:A2").dim_scheme == 2
    assert Family("chevalley:A2").dim_scheme == 8


def test_heisenberg_composite_ring():
    G = table("heisenberg", "zn:n=6")
    assert G.size == 216
    assert G.class_count() == 55


# ----------------------------------------------------------------------
# the Cayley-table core, checked against matrix products and a reference
# orbit fixpoint that do not use rho

SMALL_TABLES = [
    ("heisenberg", "zq:p=2,f=1,m=3"),
    ("chevalley:A1", "fqt:p=2,f=1,m=2"),
    ("parabolic:A1:-", "fqt:p=2,f=1,m=2"),
    ("parabolic:B2:a1", "fqt:p=2,f=1,m=2"),
]
_small = {}


def small_table(family, lit):
    """Tables are immutable, so the tests below share them."""
    if (family, lit) not in _small:
        _small[family, lit] = table(family, lit)
    return _small[family, lit]


def _inverse_by_powers(ring, g):
    ident = ring.identity_mat(g.shape[0])
    prev = ident
    while True:
        nxt = ring.mat_mul(prev, g)
        if (nxt == ident).all():
            return prev
        prev = nxt


def _fixpoint_labels(n, perms):
    """Min-label propagation over the permutations and their inverses."""
    both = []
    for p in perms:
        inv = np.empty_like(p)
        inv[p] = np.arange(n)
        both += [p, inv]
    labels = np.arange(n)
    while True:
        nxt = labels
        for p in both:
            nxt = np.minimum(nxt, nxt[p])
        if np.array_equal(nxt, labels):
            break
        labels = nxt
    _, labels = np.unique(labels, return_inverse=True)
    return labels


@pytest.mark.parametrize("family,lit", SMALL_TABLES)
def test_rho_is_the_right_multiplication_table(family, lit):
    G = small_table(family, lit)
    assert G.rho.shape == (len(G.generators), G.size)
    assert G.rho.dtype == np.int32 and G.rho.flags.c_contiguous
    for c, (_, g) in enumerate(G.generators):
        want = G.lookup_batch(G.ring.mat_mul(G.mats, g))
        assert (G.rho[c] == want).all()


@pytest.mark.parametrize("family,lit", SMALL_TABLES)
def test_actions_match_matrix_products(family, lit):
    G = small_table(family, lit)
    mul = G.ring.mat_mul
    # every row of the small tables, a fixed sample of the larger ones
    rows = np.random.default_rng(5).permutation(G.size)[:1000]
    X = G.mats[rows]
    for c, (_, g) in enumerate(G.generators):
        gi = _inverse_by_powers(G.ring, g)
        assert (G.times(rows, c) == G.lookup_batch(mul(X, g))).all()
        assert (G.inverse_times(rows, c) == G.lookup_batch(mul(gi, X))).all()
        assert (G.conjugate(rows, c)
                == G.lookup_batch(mul(mul(gi, X), g))).all()


@pytest.mark.parametrize("family,lit", SMALL_TABLES)
def test_pointer_jumping_matches_fixpoint(family, lit):
    G = small_table(family, lit)
    ngens, every = len(G.generators), np.arange(G.size)
    conj = [G.conjugate(every, c) for c in range(ngens)]
    assert (G.conjugation_labels() == _fixpoint_labels(G.size, conj)).all()
    moves = [G.inverse_times(every, 0), G.times(every, ngens - 1)]
    assert (G._orbit_labels(G.size, moves)
            == _fixpoint_labels(G.size, moves)).all()


def test_pointer_jumping_on_random_permutations():
    rng = np.random.default_rng(7)
    n = 3000
    for k in range(4):
        perms = []
        for _ in range(k):
            # a permutation with many fixed points leaves many orbits
            p = np.arange(n)
            moved = rng.choice(n, size=n // 4, replace=False)
            p[moved] = rng.permutation(moved)
            perms.append(p)
        want = _fixpoint_labels(n, perms)
        assert (GroupTable._orbit_labels(n, perms) == want).all()


def _union_find_labels(n, perms):
    """Orbit labels by a pure-Python union-find over the permutations,
    the orbits numbered in the order of their smallest points."""
    up = list(range(n))

    def find(x):
        while up[x] != x:
            up[x] = up[up[x]]
            x = up[x]
        return x

    for p in perms:
        for x, y in enumerate(p.tolist()):
            rx, ry = find(x), find(y)
            up[max(rx, ry)] = min(rx, ry)
    number = {}
    return np.array([number.setdefault(find(x), len(number))
                     for x in range(n)])


def _seeded_perms(rng, n, kind, k):
    """k permutations of range(n) of one kind, as int32 or int64 arrays."""
    perms = []
    for i in range(k):
        if kind == "identity":
            p = np.arange(n)
        elif kind == "cycle":  # one n-cycle through a shuffled order
            order = rng.permutation(n)
            p = np.empty(n, dtype=np.int64)
            p[order] = np.roll(order, -1)
        elif kind == "involution":  # disjoint transpositions
            p = np.arange(n)
            moved = rng.permutation(n)[:rng.integers(0, n + 1) // 2 * 2]
            a, b = moved[0::2], moved[1::2]
            p[a], p[b] = b, a
        else:  # a quarter of the points moved, many left fixed
            p = np.arange(n)
            moved = rng.choice(n, size=n // 4, replace=False)
            p[moved] = rng.permutation(moved)
        perms.append(p.astype(np.int32 if i % 2 else np.int64))
    return perms


@pytest.mark.parametrize("n", [1, 2, 17, 5000])
@pytest.mark.parametrize("kind", ["identity", "cycle", "involution",
                                  "sparse"])
def test_orbit_labels_match_a_union_find(n, kind):
    rng = np.random.default_rng([n, len(kind)])
    for k in (0, 1, 2, 12, 16):
        if kind == "cycle" and k > 1:
            continue
        perms = _seeded_perms(rng, n, kind, k)
        want = _union_find_labels(n, perms)
        assert np.array_equal(GroupTable._orbit_labels(n, perms), want)
    if kind == "involution":
        # involutions together with one cycle: a single orbit
        perms = _seeded_perms(rng, n, kind, 3) \
            + _seeded_perms(rng, n, "cycle", 1)
        assert np.array_equal(GroupTable._orbit_labels(n, perms),
                              np.zeros(n, dtype=np.int64))


# (group family, top ring) of the subgroup oracle, checked at every
# level up to the top: both ring kinds, p = 2 and 3, f = 1 and 2, levels
# 1-3 where ENUM_CAP allows the enumeration
SUBGROUP_CASES = [
    ("chevalley:A1", "zq:p=2,f=1,m=3"),
    ("chevalley:A1", "fqt:p=3,f=1,m=3"),
    ("chevalley:A1", "fqt:p=2,f=2,m=2"),
    ("chevalley:A1", "zq:p=3,f=2,m=2"),
    ("chevalley:A2", "zq:p=2,f=1,m=2"),
    ("chevalley:A2", "fqt:p=3,f=1,m=1"),
    ("chevalley:A2", "fqt:p=2,f=2,m=1"),
    ("chevalley:B2", "fqt:p=2,f=1,m=1"),
]


def test_subgroup_indices_match_lookup():
    # the index set a subgroup's generators reach in the ambient table is
    # the separately enumerated subgroup table, looked up by its matrices
    for group, lit in SUBGROUP_CASES:
        top = parse_ring(lit)
        system = group.split(":")[1]
        subs = ["-", "all", "roots:a1,-a1", "a1" if system == "A1" else "a2"]
        if system == "A2":
            subs.append("roots:a1,-a1,a2,a1+a2")
        for m in range(1, top.m + 1):
            ring = top.subring_level(m)
            G = cache.table_for(group, ring)
            for text in subs:
                fam = zeta.sub_family(system, text)
                P = cache.table_for(fam, ring)
                idx = G.subgroup_indices(fam.generators(ring))
                assert (idx == np.sort(G.lookup_batch(P.mats))).all(), \
                    (group, ring.literal, text)
    H = small_table("heisenberg", "zq:p=2,f=1,m=3")
    sub = generate(H.ring, H.generators[:2], name="sub")
    idx = H.subgroup_indices(H.generators[:2])
    assert (idx == np.sort(H.lookup_batch(sub.mats))).all()


def test_subgroup_with_foreign_generator_raises():
    G = small_table("chevalley:A1", "fqt:p=2,f=1,m=2")
    (_, g), (_, h) = G.generators[:2]
    gh = G.ring.mat_mul(g, h)
    assert not any((gh == x).all() for _, x in G.generators)
    foreign = [(("gh",), gh)]
    with pytest.raises(GroupsError, match="not a generator"):
        G.subgroup_indices(foreign)
    with pytest.raises(GroupsError, match="not a generator"):
        G.double_coset_data(foreign, G.generators)


def test_column_finds_generators_and_nothing_for_the_identity():
    G = small_table("chevalley:A1", "fqt:p=2,f=1,m=2")
    assert [G.column(g) for _, g in G.generators] \
        == list(range(len(G.generators)))
    assert G.column(G.ring.identity_mat(G.d)) is None
    (_, g), (_, h) = G.generators[:2]
    with pytest.raises(GroupsError, match="not a generator"):
        G.column(G.ring.mat_mul(g, h))


# ----------------------------------------------------------------------
# packed keys


def _array_sha256(arr):
    arr = np.ascontiguousarray(arr)
    head = f"{arr.dtype.str} {arr.shape}".encode()
    return hashlib.sha256(head + arr.tobytes()).hexdigest()


# sha256 of (dtype, shape, bytes) of mats, inv and rho, rho hashed
# element-major (N, ngens), the layout the disk cache stores.  The level-1
# tables were recorded from the enumeration that numbered elements through
# a dict of byte encodings; the tower levels (m >= 2) are numbered by kernel
# slot, element (I + pi^(m-1) X_v) s_j at j |V| + v, and were recorded when
# that numbering replaced the search order.  The key widths are 45 bits, 8,
# 12, exactly 64, 128 (two words) and 100
GOLDEN_TABLES = {
    ("heisenberg", "zq:p=3,f=1,m=3"): (
        "ccec6a41cbe2d868a9a7ac31883f2a76248350d7051e887918d2b99d790b30b6",
        "716f2a9e1b8e3180bf2bd28b037a712845001a4b1fcd194b0fa6bc544aab3d41",
        "62cee1955846199163f7f1e67c172914b2c9934183aedd191682e03016448a4f",
    ),
    ("chevalley:A1", "fqt:p=2,f=1,m=4"): (
        "68c49f3834eef41f8efbc8088cbbcb9605089acc35fbf11bc9b89810e2d857f8",
        "f3326e3447f1e735a4acfd4e8ae743854fa840146b63b5373799820fbc33f7b8",
        "33a5a43e15987ee272e32e1c06851999d5d5aaef0fc021d3a94bf78f0c572923",
    ),
    ("chevalley:A1", "zq:p=2,f=2,m=2"): (
        "1a97c51e8496df9b5e11f34bd6eef31884f38acdc7c3e366609093e4b7a139c5",
        "1730f321032fe0def85c8eead979948bfcd250a3436aa5631a249a71bd99c281",
        "8cd3760b76490b33b3ecb0ca0cacb9a3796bd7e4cad3218bf65f9aff1ebef4be",
    ),
    ("chevalley:A2", "zq:p=2,f=1,m=1"): (
        "8e1ffe3f5959bb132622a0a6f20500abeb7440f6790d294a8f8adeb7c0799e36",
        "32de0b7d2f4d87cbe572e1242106c9cef745e8cf7b69bea1edaa551957b5940b",
        "5bebb8398cabb0bf644cca579618ec347ba531390627b5f6625b2687da01cf36",
    ),
    ("borel:A2", "zq:p=2,f=1,m=2"): (
        "31602ac7f7333d1e53207fbb928b1265b7085739c2294c192ddb8dab502945f0",
        "562a2e5645971ab1ceec8f775663621b61133e6340793d617543e8c5bb567867",
        "4a6d90dc77fdaf383786e45a860f5f8a08120e09d46d00d70586717599d1142a",
    ),
    ("parabolic:B2:a1", "fqt:p=2,f=1,m=1"): (
        "63af6a95f4723db2ca1ae1f9f62092299f5200e223c7c0caa6b8f5d0b8b6fa23",
        "47dc4c6f74d943dc3070900c013df1cabdc045fd9b11bac1b4454022b7748c25",
        "d54cda51ec5ec7ce57c7370716a84e0ac4ed87161a226d7db5171dfff5f314b0",
    ),
}


@pytest.mark.parametrize("family,lit", sorted(GOLDEN_TABLES))
def test_golden_tables(family, lit):
    # element order, inverses and rho are those the cache format stores;
    # rho is hashed element-major, as it was recorded
    G = table(family, lit)
    got = tuple(_array_sha256(a) for a in (G.mats, G.inv, G.rho.T))
    assert got == GOLDEN_TABLES[family, lit]
    assert cache.FORMAT_VERSION == 7


def _big_int_words(mats, bits, nwords):
    """The packed words of each matrix, from one Python int per matrix."""
    out = []
    for entries in np.asarray(mats).reshape(len(mats), -1).tolist():
        value = sum(e << (bits * i) for i, e in enumerate(entries))
        out.append([(value >> (64 * w)) & (2**64 - 1) for w in range(nwords)])
    return np.array(out, dtype=np.uint64)


@pytest.mark.parametrize("lit,d,nwords", [
    ("zq:p=3,f=1,m=3", 3, 1),   # 5 bits, 45 in all
    ("zq:p=2,f=1,m=1", 8, 1),   # exactly 64
    ("fqt:p=2,f=1,m=3", 8, 3),  # 3 bits: entries 21 and 42 straddle
    ("zq:p=3,f=1,m=4", 4, 2),   # 7 bits: entry 9 straddles
])
def test_packing_matches_big_int_words(monkeypatch, lit, d, nwords):
    ring = parse_ring(lit)
    pack = groups._Packing(ring, d)
    assert pack.words == nwords
    mats = np.random.default_rng(3).integers(
        0, ring.size, size=(50, d, d)).astype(np.int32)
    mats[0] = ring.size - 1  # every bit set
    want = _big_int_words(mats, (ring.size - 1).bit_length(), nwords)
    seen = []
    monkeypatch.setattr(groups, "_fold", lambda w: seen.append(w) or w[:, 0])
    keys = pack(mats)
    if nwords == 1:
        assert not seen and (keys == want[:, 0]).all()
    else:
        assert (seen[0] == want).all()


def test_fold_separates_rows_differing_in_the_last_word():
    rng = np.random.default_rng(5)
    words = rng.integers(0, 2**63, size=(1000, 3), dtype=np.int64)
    words = words.view(np.uint64)
    words[:, :2] = words[0, :2]
    assert np.unique(groups._fold(words)).size == 1000


def test_fold_collision_raises(monkeypatch):
    # the table whose keys a cache load rebuilds, enumerated under the
    # real fold whether or not an earlier test built it
    G = small_table("parabolic:B2:a1", "fqt:p=2,f=1,m=2")
    # with every multi-word key equal, the entry check must refuse to
    # merge two matrices rather than number them as one element
    monkeypatch.setattr(groups, "_fold",
                        lambda w: np.zeros(w.shape[0], dtype=np.uint64))
    # generate without a lower table keeps packed keys at any level
    ring = parse_ring("zq:p=2,f=1,m=2")
    with pytest.raises(IdentityError, match="share a key"):
        generate(ring, Family("borel:A2").generators(ring))
    # a one-word table never folds
    assert generate(ring, groups._heisenberg_generators(ring)).size == 64
    # keys rebuilt after a cache load are checked for repeats too
    loaded = GroupTable(G.ring, G.mats, G.inv, G.rho, G.generators,
                        G.name)
    with pytest.raises(IdentityError, match="share a key"):
        lookup(loaded, G.mats[1])


def test_lookup_of_colliding_matrix_raises():
    # parabolic:B2:a1 over F2 packs 100 one-bit entries into two words and
    # every bit pattern is a matrix, so a true collision of the fold can be
    # built: keep mix(w0) ^ w1 and change both words
    G = Family("parabolic:B2:a1").table(parse_ring("fqt:p=2,f=1,m=1"))
    mul, mask = int(groups.FOLD_MUL), 2**64 - 1

    def mix(h):
        h = (h * mul) & mask
        return h ^ (h >> 32)

    def unmix(h):
        return ((h ^ (h >> 32)) * pow(mul, -1, 2**64)) & mask

    x = G.mats[7]
    w0, w1 = (int(w) for w in _big_int_words(x[None], 1, 2)[0])
    w0, w1 = unmix(mix(w0) ^ 0b101), w1 ^ 0b101
    bits = [(w0 >> i) & 1 for i in range(64)]
    bits += [(w1 >> i) & 1 for i in range(36)]
    y = np.array(bits, dtype=np.int32).reshape(10, 10)
    assert (y != x).any()
    assert G._pack(y[None])[0] == G._pack(x[None])[0]
    with pytest.raises(IdentityError, match="matrix not in table"):
        lookup(G, y)
    with pytest.raises(IdentityError, match="matrix not in table"):
        G.lookup_batch(np.stack([x, y]))
    assert G._locate(np.stack([x, y]))[1].tolist() == [True, False]


def test_lookups_after_a_cache_load_rebuild_the_keys():
    G = small_table("parabolic:B2:a1", "fqt:p=2,f=1,m=2")
    loaded = GroupTable(G.ring, G.mats, G.inv, G.rho, G.generators,
                        G.name)
    rows = np.random.default_rng(9).permutation(G.size)
    assert (loaded.lookup_batch(G.mats[rows]) == rows).all()
    assert (loaded.lookup_batch(G.mats[G.inv]) == G.inv).all()
    for mine, theirs in zip(loaded._sorted_keys(), G._sorted_keys()):
        assert (mine == theirs).all()


def test_generate_cap_stops_at_first_element_past_it():
    # the enumeration itself (no order law) stops at element cap + 1
    ring = parse_ring("zq:p=3,f=1,m=2")
    with pytest.raises(TooLarge, match=r"reached 101$"):
        generate(ring, groups._heisenberg_generators(ring), cap=100)


# ----------------------------------------------------------------------
# order laws


@pytest.mark.parametrize("family,lit", [
    ("heisenberg", "zq:p=2,f=1,m=3"),
    ("heisenberg", "fqt:p=2,f=2,m=1"),
    ("heisenberg", "zn:n=6"),
    ("chevalley:A1", "zq:p=3,f=1,m=2"),
    ("chevalley:A1", "fqt:p=2,f=1,m=4"),
    ("chevalley:A1", "zq:p=2,f=2,m=2"),
    ("chevalley:A2", "zq:p=2,f=1,m=1"),
    ("chevalley:B2", "fqt:p=2,f=1,m=1"),
])
def test_predicted_order_is_the_enumerated_order(family, lit):
    fam = Family(family)
    ring = parse_ring(lit)
    assert fam.predicted_order(ring) == fam.table(ring).size


def test_no_order_law_without_one():
    ring = parse_ring("zq:p=2,f=1,m=2")
    assert Family("borel:A2").predicted_order(ring) is None
    assert Family("chevalley:A1").predicted_order(parse_ring("zn:n=6")) \
        is None


@pytest.mark.parametrize("family,lit", [
    ("heisenberg", "zq:p=3,f=1,m=2"),
    ("chevalley:A1", "fqt:p=2,f=1,m=3"),
])
def test_cap_below_the_order_law_fails_before_enumerating(
        generated, family, lit):
    # cc --levels M enumerates the levels 1..M-1; only the top one, the
    # ring lit, is over the cap
    ring = parse_ring(lit)
    order = Family(family).predicted_order(ring)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["cc", "--group", family, "--ring", lit,
                         "--levels", str(ring.m + 1), "--cap", str(order - 1)])
    assert code == 3
    assert f"order law gives {order} elements" in err.getvalue()
    assert out.getvalue() == ""
    rings_used = [r for r, _ in generated]
    assert len(rings_used) == ring.m - 1 and lit not in rings_used


# ----------------------------------------------------------------------
# congruence-kernel coordinates: a level-m table enumerated over the
# level-(m-1) table, against an independent breadth-first search


def oracle_table(ring, generators):
    """(mats, inv, rho) by a breadth-first search over a dict keyed by
    encode_mat bytes: each layer times g_0, then g_1, ..., new elements in
    the order they occur; x^-1 = g^-1 parent(x)^-1 along the search tree.
    rho[c, x] is the index of x g_c, as in GroupTable."""
    def encode_mat(mat):  # the canonical key that orders the generators
        return np.ascontiguousarray(mat, dtype="<u2").tobytes()

    gens = sorted({encode_mat(g): g for _, g in generators}.items())
    ident = ring.identity_mat(gens[0][1].shape[0])
    mats, rows, inv_mats = [ident], [], [ident]
    index = {encode_mat(ident): 0}
    gen_inv = [_inverse_by_powers(ring, g) for _, g in gens]
    layer = [0]
    while layer:
        rows += [[0] * len(gens) for _ in layer]
        found = []
        for c, (_, g) in enumerate(gens):
            prods = ring.mat_mul(np.stack([mats[x] for x in layer]), g)
            for x, y in zip(layer, prods):
                key = encode_mat(y)
                if key not in index:
                    index[key] = len(mats)
                    mats.append(y)
                    inv_mats.append(ring.mat_mul(gen_inv[c], inv_mats[x]))
                    found.append(index[key])
                rows[x][c] = index[key]
        layer = found
    inv = [index[encode_mat(m)] for m in inv_mats]
    return np.array(mats), np.array(inv), np.array(rows).T


def tower(family, lit):
    """The tables of a family at levels 1..m, each level m >= 2
    enumerated over the one below."""
    fam, ring = Family(family), parse_ring(lit)
    tables = [fam.table(ring.subring_level(1))]
    for m in range(2, ring.m + 1):
        tables.append(fam.table(ring.subring_level(m), lower=tables[-1]))
    return tables


# every family kind on both ring kinds, at p = 2 and 3, f = 1 and 2, and
# levels 2 and 3
KERNEL_CASES = [
    ("heisenberg", "zq:p=3,f=1,m=2"),
    ("heisenberg", "fqt:p=2,f=1,m=3"),
    ("heisenberg", "fqt:p=2,f=2,m=2"),
    ("chevalley:A1", "zq:p=2,f=1,m=3"),
    ("chevalley:A1", "zq:p=2,f=2,m=2"),
    ("chevalley:A1", "fqt:p=3,f=1,m=2"),
    ("unipotent:A2", "zq:p=3,f=1,m=2"),
    ("unipotent:A2", "fqt:p=2,f=1,m=3"),
    ("borel:A2", "zq:p=2,f=1,m=2"),
    ("borel:A2", "fqt:p=2,f=1,m=2"),
    ("torus:A2", "zq:p=3,f=1,m=3"),
    ("torus:A2", "fqt:p=2,f=2,m=2"),
    ("parabolic:A1:-", "zq:p=3,f=2,m=2"),
    ("parabolic:A1:-", "fqt:p=3,f=1,m=3"),
    ("parabolic:B2:a1", "fqt:p=2,f=1,m=2"),
    ("parabolic:B2:a2", "zq:p=2,f=1,m=2"),
    ("rootset:A2:a1,a1+a2", "zq:p=3,f=1,m=2"),
    ("rootset:A2:a1,-a1", "fqt:p=2,f=1,m=3"),
]


def assert_isomorphic(G, keyed):
    """pi = keyed.lookup_batch(G.mats) renumbers G as keyed: a bijection
    that carries rho and inv of the one to those of the other."""
    pi = keyed.lookup_batch(G.mats)
    assert G.size == keyed.size
    assert np.array_equal(np.sort(pi), np.arange(keyed.size))
    assert G.rho.dtype == keyed.rho.dtype and G.inv.dtype == keyed.inv.dtype
    assert (keyed.rho[:, pi] == pi[G.rho]).all()
    assert (keyed.inv[pi] == pi[G.inv]).all()
    return pi


def assert_partitions_correspond(labels, keyed_labels, pi):
    """The labels of G and those of keyed at pi[x] pair one to one."""
    n = labels.max() + 1
    assert keyed_labels.max() + 1 == n
    assert labels.dtype == keyed_labels.dtype
    assert np.unique(labels * n + keyed_labels[pi]).size == n


@pytest.mark.parametrize("family,lit", KERNEL_CASES)
def test_kernel_route_matches_the_oracle_search(family, lit):
    fam = Family(family)
    for G in tower(family, lit)[1:]:
        mats, inv, rho = oracle_table(G.ring, fam.generators(G.ring))
        # generate without a lower table: the packed-key route, numbered
        # in the oracle's search order
        keyed = generate(G.ring, fam.generators(G.ring))
        assert (keyed.mats == mats).all() and (keyed.inv == inv).all()
        assert (keyed.rho == rho).all()
        # the kernel route numbers the same group by kernel slot
        assert_isomorphic(G, keyed)


@pytest.mark.parametrize("family,lit", KERNEL_CASES)
def test_kernel_span_is_the_enumerated_kernel(family, lit):
    # V has F_p-rank f dim_scheme, and the top digits of the enumerated
    # kernel of G(R_m) -> G(R_{m-1}) are exactly its span
    fam, ring = Family(family), parse_ring(lit)
    basis = groups._kernel_basis(ring, fam.kernel_generators(ring))
    assert basis.shape[0] == ring.f * fam.dim_scheme
    p = ring.p
    coeffs = np.array(list(itertools.product(range(p), repeat=len(basis))))
    span = {tuple(v) for v in (coeffs @ basis % p).tolist()}
    assert len(span) == ring.q ** fam.dim_scheme
    G = fam.table(ring)
    ident = ring.identity_mat(G.d)
    low = ring.mat_project(G.mats, ring.m - 1)
    kern = G.mats[(low == ring.mat_project(ident, ring.m - 1)).all(axis=(1, 2))]
    digits = ring.top_digits()
    top = (digits[kern] - digits[ident]).reshape(len(kern), -1) % p
    assert {tuple(v) for v in top.tolist()} == span


@pytest.mark.parametrize("family", ["chevalley:B2", "chevalley:A2"])
def test_kernel_rank_of_the_large_groups(family):
    fam = Family(family)
    for lit in ("zq:p=2,f=1,m=2", "fqt:p=3,f=1,m=3", "zq:p=2,f=2,m=2"):
        ring = parse_ring(lit)
        basis = groups._kernel_basis(ring, fam.kernel_generators(ring))
        assert basis.shape[0] == ring.f * fam.dim_scheme


@pytest.mark.parametrize("family,lit", [
    ("chevalley:A1", "fqt:p=2,f=1,m=4"),
    ("chevalley:A1", "zq:p=2,f=2,m=2"),
    ("heisenberg", "zq:p=3,f=1,m=3"),
    ("borel:A2", "zq:p=2,f=1,m=2"),
])
def test_kernel_route_keeps_the_golden_tables(family, lit):
    G = tower(family, lit)[-1]
    got = tuple(_array_sha256(a) for a in (G.mats, G.inv, G.rho.T))
    assert got == GOLDEN_TABLES[family, lit]
    assert_isomorphic(G, keyed_table(family, lit))


def test_a_smaller_kernel_span_raises(monkeypatch):
    lower, _ = tower("chevalley:A1", "fqt:p=2,f=1,m=2")
    real = groups._kernel_basis

    def dropped(ring, kernel):
        return real(ring, kernel)[:-1]

    monkeypatch.setattr(groups, "_kernel_basis", dropped)
    with pytest.raises(IdentityError):
        Family("chevalley:A1").table(parse_ring("fqt:p=2,f=1,m=2"),
                                     lower=lower)


def test_an_element_off_the_kernel_span_raises():
    # I + 3 (E12 + E33) lies over the identity of Z/3, but its top digits
    # leave the strictly upper triangular V of the Heisenberg group
    ring = parse_ring("zq:p=3,f=1,m=2")
    fam = Family("heisenberg")
    lower = fam.table(ring.subring_level(1))
    odd = ring.identity_mat(3)
    odd[0, 1], odd[2, 2] = 3, 4
    gens = fam.generators(ring) + [(("odd",), odd)]
    with pytest.raises(IdentityError, match="off its kernel coordinates"):
        generate(ring, gens, lower=lower, name="odd",
                 kernel=fam.kernel_generators(ring))


@pytest.mark.parametrize("family,lit", [
    ("heisenberg", "zq:p=3,f=1,m=2"),
    ("chevalley:A1", "fqt:p=2,f=1,m=3"),
])
def test_a_misread_cocycle_raises(monkeypatch, family, lit):
    # the cocycles c(j, g) of the second piece read off by the first basis
    # vector of V: the products no longer match the digits of X_c
    fam, ring = Family(family), parse_ring(lit)
    lower = fam.table(ring.subring_level(ring.m - 1))
    real, calls = groups._KernelIndex._cocycles, []

    def misread(self, prod, J):
        calls.append(len(J))
        if len(calls) == 2:
            read_off_by_one(self)
        return real(self, prod, J)

    monkeypatch.setattr(groups._KernelIndex, "_cocycles", misread)
    with pytest.raises(IdentityError, match="off its kernel coordinates"):
        fam.table(ring, lower=lower)
    assert len(calls) == 2


@pytest.mark.parametrize("lit", ["zq:p=3,f=1,m=2", "zq:p=2,f=2,m=2",
                                 "fqt:p=2,f=1,m=2", "fqt:p=2,f=2,m=2"])
def test_times_residues_matches_the_gather_oracle(lit):
    # the level-1 mat_mul (BLAS for zq with f = 1, _Kronecker otherwise)
    # against verify's MUL/ADD gather, which shares no code with it: every
    # row times every residue, broadcast, and row i times residue i, as
    # _Coordinates.read calls it
    from localzeta import verify
    ring = parse_ring(lit)
    one = ring.subring_level(1)
    rng = np.random.default_rng(11)
    d, n, R = 3, 5, 7
    X = rng.integers(0, one.size, (n, d, d))
    s = rng.integers(0, one.size, (R, d, d))
    rows = one.top_digits()[X].reshape(n, -1)
    want = one.top_digits()[verify._gather_mat_mul(one, X[None], s[:, None])]
    got = groups._times_residues(ring, rows[None], s[:, None])
    assert got.shape == (R, n, d * d * ring.f)
    assert (got == want.reshape(R, n, -1)).all()
    pairs = groups._times_residues(ring, rows, s[:n])
    assert pairs.shape == (n, d * d * ring.f)
    assert (pairs == got[np.arange(n), np.arange(n)]).all()


def kernel_index(family, lit):
    """(index, lower): the enumeration of the level-m table over the
    level-(m-1) one, with its lifts and cocycles made."""
    fam, ring = Family(family), parse_ring(lit)
    lower = fam.table(ring.subring_level(ring.m - 1))
    gens = groups._canonical_generators(fam.generators(ring))
    index = groups._KernelIndex(
        ring, np.array([g for _, g in gens], dtype=np.int32), lower,
        fam.kernel_generators(ring), "G", groups.ENUM_CAP)
    return index, lower


@pytest.mark.parametrize("family,lit", [
    ("heisenberg", "zq:p=3,f=1,m=2"),
    ("chevalley:A1", "zq:p=2,f=2,m=2"),
    ("chevalley:A1", "fqt:p=2,f=1,m=2"),
    ("heisenberg", "fqt:p=2,f=2,m=2"),
])
def test_coordinates_read_back_the_rebuilt_kernel_slot(family, lit):
    # the matrix at slot J |V| + v of the rebuilt table,
    # (I + pi^(m-1) X_v) s_J, has the coordinates v over its lift s_J,
    # whatever the golden tables hold
    index, lower = kernel_index(family, lit)
    mats = index.record(lower).matrices()
    rng = np.random.default_rng(5)
    J = rng.integers(0, lower.size, 500)
    v = rng.integers(0, index.nV, 500)
    assert (index._cocycles(mats[J * index.nV + v], J) == v).all()


@pytest.mark.parametrize("family,lit", [
    ("heisenberg", "zq:p=3,f=1,m=2"),
    ("chevalley:A1", "fqt:p=2,f=2,m=3"),
])
def test_a_product_passes_only_as_the_element_at_its_coordinates(
        family, lit):
    # one digit of one entry of (I + pi^(m-1) X_v) s_J changed at a time:
    # a change below pi^(m-1) is refused, and a change in the top digits
    # is refused or read as the coordinates of the element it now is
    index, lower = kernel_index(family, lit)
    ring, nV = index.ring, index.nV
    mats = index.record(lower).matrices()
    top = ring.top_digits()
    J = np.array([lower.size - 1])
    prod = mats[J * nV + nV // 2]
    low = refused = moved = 0
    for (a, b), i in itertools.product(np.ndindex(prod.shape[1:]),
                                       range(len(ring.digits(0)))):
        digits = list(ring.digits(int(prod[0, a, b])))
        digits[i] = (digits[i] + 1) % ring.p
        bad = prod.copy()
        bad[0, a, b] = ring.from_digits(digits)
        if (top[bad] == top[prod]).all():
            low += 1
            with pytest.raises(IdentityError, match="off its kernel"):
                index._cocycles(bad, J)
            continue
        try:
            u = index._cocycles(bad, J)
        except IdentityError:
            refused += 1
        else:
            moved += 1
            assert (mats[J * nV + u] == bad).all()
    assert low and refused and moved


@pytest.mark.parametrize("family,lit", [
    ("heisenberg", "zq:p=3,f=1,m=2"),
    ("chevalley:A1", "fqt:p=2,f=1,m=2"),
])
def test_a_wrong_inverse_residue_raises(monkeypatch, family, lit):
    # the lower inverse map sends the first element of one nontrivial
    # residue class to the identity, so that class's inverse residue is
    # wrong: the enumeration refuses it before any level-m product.  The
    # lower table is at level 1, so every element is the first of its
    # class, numbered by its own id
    fam, ring = Family(family), parse_ring(lit)
    lower = fam.table(ring.subring_level(1))
    ident = lower.ring.identity_mat(lower.d)
    x = next(j for j in range(lower.size) if (lower.mats[j] != ident).any())
    lower.inv = lower.inv.copy()
    lower.inv[x] = lookup(lower, ident)
    real, formed = ring.mat_mul, []

    def counting(*args):
        formed.append(1)
        return real(*args)

    monkeypatch.setattr(ring, "mat_mul", counting)
    with pytest.raises(IdentityError, match="inverse residue"):
        fam.table(ring, lower=lower)
    assert formed == []


@pytest.mark.parametrize("family,lit", [
    ("heisenberg", "zq:p=3,f=1,m=4"),
    ("chevalley:A1", "fqt:p=2,f=1,m=5"),
    ("chevalley:A1", "zq:p=2,f=2,m=3"),
    ("chevalley:A1", "fqt:p=3,f=1,m=3"),
    ("heisenberg", "fqt:p=2,f=2,m=2"),
    ("parabolic:B2:a1", "fqt:p=2,f=1,m=3"),
])
def test_residue_data_from_the_record_matches_the_matrices(family, lit):
    # a table with a record gives the level above its residue classes,
    # residue matrices and inverse residues with no matrix: the lower
    # element j is in the class j // stride, numbered by its level-1
    # ancestor.  Read from its rebuilt matrices they are the same
    G = Family(family).table(parse_ring(lit))
    stride, residues, inverse_residues = groups._residue_data(G)
    assert callable(G._mats)  # not rebuilt
    assert stride * len(residues) == G.size
    level1 = Family(family).table(G.ring.subring_level(1))
    assert len(residues) == level1.size
    assert (residues == level1.mats).all()
    cls = np.arange(G.size) // stride
    assert (G.ring.mat_project(G.mats, 1) == residues[cls]).all()
    first = np.arange(len(residues)) * stride
    assert (inverse_residues
            == G.ring.mat_project(G.mats[G.inv[first]], 1)).all()


@pytest.mark.parametrize("lit", ["fqt:p=2,f=1,m=3", "zq:p=2,f=2,m=3"])
def test_a_lower_table_with_no_record_above_level_one_is_refused(lit):
    # a breadth-first table at level 2 numbers its elements in search
    # order, so its residue classes are no blocks of ids: the level above
    # is not enumerated over it
    fam, ring = Family("chevalley:A1"), parse_ring(lit)
    low = ring.subring_level(ring.m - 1)
    lower = generate(low, fam.generators(low), name="bfs")
    assert lower.record is None
    with pytest.raises(GroupsError, match="bfs has no lift record"):
        fam.table(ring, lower=lower)


@pytest.mark.parametrize("family,lit", [
    ("heisenberg", "zq:p=3,f=1,m=3"),
    ("chevalley:A1", "fqt:p=2,f=2,m=3"),
])
def test_a_lower_record_with_a_wrong_lift_raises(family, lit):
    # one digit of one entry of the last lift of the lower record changed,
    # below or at its top digit: the lifts of the level above are no
    # longer over the lower elements the record describes
    fam, ring = Family(family), parse_ring(lit)
    lower = tower(family, ring.subring_level(ring.m - 1).literal)[-1]
    rec, low = lower.record, lower.ring
    lifts = rec.lifts
    for i in range(len(low.digits(0))):
        rec.lifts = lifts.copy()
        digits = list(low.digits(int(lifts[-1, 0, 1])))
        digits[i] = (digits[i] + 1) % ring.p
        rec.lifts[-1, 0, 1] = low.from_digits(digits)
        with pytest.raises(IdentityError, match="not over its lower element"):
            fam.table(ring, lower=lower)
    rec.lifts = lifts
    assert fam.table(ring, lower=lower).size \
        == lower.size * ring.q ** fam.dim_scheme


def recording_rebuilds(monkeypatch):
    """The ring literal of every matrix rebuild of a lift record, in
    order, recorded by wrapping ``groups._matrices``."""
    real, rebuilt = groups._matrices, []

    def recording(ring, *args):
        rebuilt.append(ring.literal)
        return real(ring, *args)

    monkeypatch.setattr(groups, "_matrices", recording)
    return rebuilt


@pytest.mark.parametrize("argv,built", [
    (["hecke", "--group", "B2", "--s1", "a1", "--s2", "a2",
      "--ring", "fqt:p=2,f=1,m=3"], 0),
    (["cc", "--group", "heisenberg", "--ring", "zq:p=3,f=1,m=5"], 0),
    (["cc", "--group", "chevalley:A1", "--ring", "fqt:p=2,f=1,m=6"], 1),
])
def test_the_enumeration_builds_no_kernel_tables(monkeypatch, capsys, argv,
                                                  built):
    # the enumeration reads a lower table through its record: its
    # matrices are rebuilt only for a generator that ``maps`` looks up,
    # here tau(1 + t + t^2) at level 4, which looks products up in level 3
    rebuilt = recording_rebuilds(monkeypatch)
    monkeypatch.delenv("ZETA_CACHE_DIR", raising=False)
    cache.clear_memo()
    try:
        assert cli.main(argv) == 0
    finally:
        cache.clear_memo()
    capsys.readouterr()
    assert rebuilt == ["fqt:p=2,f=1,m=3"] * built


def test_no_generators_over_a_lower_table_raise_the_unfilled_error():
    # over the level-1 table they lift only the identity; over the
    # identity alone they meet the kernel in nothing
    fam, ring = Family("heisenberg"), parse_ring("zq:p=2,f=1,m=2")
    one = ring.subring_level(1)
    kernel = fam.kernel_generators(ring)
    with pytest.raises(GroupsError, match="reach 1 of the 8 elements"):
        generate(ring, [], lower=fam.table(one), kernel=kernel, d=3)
    with pytest.raises(GroupsError, match="F_p-rank 0, not 3"):
        generate(ring, [], lower=generate(one, [], d=3), kernel=kernel,
                 d=3)


@pytest.mark.parametrize("p,k", [(2, 5), (3, 3), (3, 7), (5, 4), (7, 2)])
def test_digit_add_sums_digitwise(p, k):
    v, c = np.random.default_rng(p * k).integers(0, p**k, (2, 400))
    want = sum((v // p**i + c // p**i) % p * p**i for i in range(k))
    assert (groups._digit_add(p, k)(v, c) == want).all()


def test_cc_never_rebuilds_the_top_matrices(monkeypatch, capsys):
    # cc counts classes by gathers on rho, inv and the kernel coordinates,
    # and each level checks its lifts against the record of the level
    # below: a level's matrices are rebuilt only when they are read
    rebuilt = recording_rebuilds(monkeypatch)
    monkeypatch.delenv("ZETA_CACHE_DIR", raising=False)
    cache.clear_memo()
    try:
        assert cli.main(["cc", "--group", "heisenberg",
                         "--ring", "zq:p=3,f=1,m=4"]) == 0
        assert rebuilt == []
        top = parse_ring("zq:p=3,f=1,m=3")
        G = cache.table_for("heisenberg", top)  # memo hit
        assert rebuilt == []
        # read later, the matrices are those of the packed-key route
        assert_isomorphic(G, keyed_table("heisenberg", top.literal))
        assert rebuilt == ["zq:p=3,f=1,m=3"]
    finally:
        cache.clear_memo()
    capsys.readouterr()


def test_lower_table_must_be_the_level_below():
    fam = Family("heisenberg")
    ring = parse_ring("zq:p=2,f=1,m=3")
    with pytest.raises(GroupsError, match="not a level-2 table"):
        fam.table(ring, lower=fam.table(ring.subring_level(1)))
    with pytest.raises(GroupsError, match="not enumerated over"):
        fam.table(parse_ring("zn:n=4"), lower=fam.table(parse_ring("zn:n=2")))


def assert_towers_over_lower(calls):
    # every level m >= 2 (all rings here are zq or fqt) over its level
    # below, and only those
    levels = [parse_ring(lit).m for lit, _ in calls]
    assert max(levels) >= 2
    assert [lower for _, lower in calls] == [m >= 2 for m in levels]


def test_cold_prop62_enumerates_every_level_over_the_one_below(generated):
    from localzeta.zeta import prop62_consistency

    assert prop62_consistency("heisenberg", "zq", 2, 1, 4)["ok"]
    assert [lit for lit, _ in generated] \
        == [f"zq:p=2,f=1,m={m}" for m in (1, 2, 3)]
    assert_towers_over_lower(generated)


def test_suite_tables_checks_tables_enumerated_over_the_one_below(generated):
    from localzeta import verify

    assert verify.suite_tables()["ok"]
    assert_towers_over_lower(generated)


def test_direct_table_enumerates_its_lower_levels(generated):
    G = Family("chevalley:A1").table(parse_ring("fqt:p=2,f=1,m=3"))
    assert generated == [(f"fqt:p=2,f=1,m={m}", m >= 2) for m in (1, 2, 3)]
    assert G.size == 6 * 8**2


@pytest.mark.parametrize("family,lit", [
    ("chevalley:B2", "fqt:p=2,f=1,m=3"),
    ("heisenberg", "zq:p=3,f=1,m=5"),
])
def test_a_refused_cap_enumerates_no_level(generated, family, lit):
    ring = parse_ring(lit)
    with pytest.raises(TooLarge, match="order law gives"):
        cache.table_for(family, ring)
    with pytest.raises(TooLarge, match="order law gives"):
        Family(family).table(ring)
    assert generated == []


def test_cache_hits_enumerate_no_level(generated, tmp_path, monkeypatch):
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    for m in (1, 2, 3):
        cache.table_for("chevalley:A1", parse_ring(f"fqt:p=2,f=1,m={m}"))
    # levels fetched in order run over the memoised level below
    assert [lower for _, lower in generated] == [False, True, True]
    generated.clear()
    top = parse_ring("fqt:p=2,f=1,m=3")
    cache.table_for("chevalley:A1", top)  # memo hit
    cache.clear_memo()
    cache.table_for("chevalley:A1", top)  # disk hit, memo empty
    assert generated == []


@pytest.mark.parametrize("family,lit", [
    ("heisenberg", "zq:p=3,f=1,m=3"),
    ("chevalley:A1", "zq:p=2,f=2,m=2"),
    ("chevalley:A1", "fqt:p=2,f=1,m=3"),
    ("chevalley:A2", "zq:p=2,f=1,m=2"),
    ("chevalley:B2", "fqt:p=2,f=1,m=1"),
    ("parabolic:B2:a1", "fqt:p=2,f=1,m=2"),
    ("borel:A2", "fqt:p=2,f=2,m=2"),
])
def test_a_table_from_disk_equals_the_fresh_one(tmp_path, monkeypatch,
                                                family, lit):
    # every level: level 1 stores its arrays (the packed-key route),
    # levels m >= 2 their lift records (the kernel route)
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    fam, ring = Family(family), parse_ring(lit)
    cache.clear_memo()
    try:
        cache.table_for(fam, ring)
        for m in range(1, ring.m + 1):
            level = ring.subring_level(m)
            fresh = cache.table_for(fam, level)  # memo hit
            loaded = cache._load_disk(fam, level)
            assert (loaded.record is None) == (m == 1)
            if m > 1:
                for key, arr in fresh.record.arrays().items():
                    got = getattr(loaded.record, key)
                    assert got.dtype == arr.dtype and (got == arr).all(), key
                assert loaded.record.nV == fresh.record.nV
            for key in ("mats", "inv", "rho"):
                want, got = getattr(fresh, key), getattr(loaded, key)
                assert got.dtype == want.dtype and (got == want).all(), key
            assert [(p, g.tolist()) for p, g in loaded.generators] \
                == [(p, g.tolist()) for p, g in fresh.generators]
            assert loaded.class_count() == fresh.class_count()
            assert (loaded.name, loaded.d) == (fresh.name, fresh.d)
    finally:
        cache.clear_memo()


# sha256 of whole cache files, recorded at format 7: flat tables (level 1
# and zn) store mats, inv and rho, rho generator-major as the table holds
# it; a tower level stores its lift record, its residue matrices and Ad(r)
# in level-1 id order
DISK_ENTRIES = {
    ("chevalley:A1", "fqt:p=2,f=1,m=1"):
        "9a84c6f66de4d6e90bd9e78f213f617d7c6a96c123078ce50a4ff20fad3de19d",
    ("chevalley:A1", "fqt:p=2,f=1,m=2"):
        "fe34b4138b08a526a285f02ab1e2b949d724717e137aa00cf3f94e15c139eacf",
    ("heisenberg", "zn:n=6"):
        "4d9cacf0931ca080ed505abfd874f152a5b91b887174715757991e5990cb1820",
    ("heisenberg", "zq:p=3,f=1,m=1"):
        "1178abb137770ebcffca0b442f3640cbcc832d3151dbc5c8f6c2bfa78472ec2c",
    ("heisenberg", "zq:p=3,f=1,m=2"):
        "feede2bfe9fe17539afaa272fe4ea996cb3da32b05ecc0b1d877546f5f8357d5",
}


def test_cache_files_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    cache.clear_memo()
    try:
        for family, lit in DISK_ENTRIES:
            fam, ring = Family(family), parse_ring(lit)
            G = cache.table_for(fam, ring)
            with open(cache._cache_path(fam, ring), "rb") as fh:
                got = hashlib.sha256(fh.read()).hexdigest()
            assert got == DISK_ENTRIES[family, lit], (family, lit)
            cache.clear_memo()
            loaded = cache.table_for(fam, ring)  # a disk hit
            assert loaded is not G and loaded.rho.flags.c_contiguous
            assert loaded.rho.shape == (len(G.generators), G.size)
            assert (loaded.rho == G.rho).all()
    finally:
        cache.clear_memo()


def test_a_store_never_builds_the_matrices(tmp_path, monkeypatch):
    # the top table is stored as its lift record: its matrices stay a
    # function, and rebuilding them is left to their first read
    rebuilt = recording_rebuilds(monkeypatch)
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    cache.clear_memo()
    try:
        G = cache.table_for("chevalley:A1", parse_ring("fqt:p=2,f=1,m=3"))
        assert len(list(tmp_path.glob("table-*.bin"))) == 3
        assert callable(G._mats)
        # level 3 checks its lifts against the record of level 2
        assert rebuilt == []
    finally:
        cache.clear_memo()


def test_a_disk_hit_forms_no_product_and_fetches_nothing_below(
        tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a disk hit should not enumerate")

    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    top = parse_ring("fqt:p=2,f=1,m=3")
    cache.clear_memo()
    try:
        fresh = cache.table_for("chevalley:A1", top)
        cache.clear_memo()
        real_mul, products = rings.Ring.mat_mul, []
        real_load, loaded = cache._load_disk, []

        def recording_mul(self, A, B):
            products.append(self.literal)
            return real_mul(self, A, B)

        def recording_load(fam, ring):
            loaded.append(ring.literal)
            return real_load(fam, ring)

        monkeypatch.setattr(rings.Ring, "mat_mul", recording_mul)
        monkeypatch.setattr(cache, "_load_disk", recording_load)
        monkeypatch.setattr(groups, "generate", unreachable)
        monkeypatch.setattr(Family, "table", unreachable)
        G = cache.table_for("chevalley:A1", top)
        assert loaded == [top.literal] and products == []
        assert (G.rho == fresh.rho).all() and (G.inv == fresh.inv).all()
        assert G.class_count() == fresh.class_count() and products == []
    finally:
        cache.clear_memo()


def test_order_law_refuses_before_any_top_level_product(monkeypatch):
    # |B(Z/8)| = 8 * 2^(2*5) = 8192 > 1000 >= |B(Z/4)| = 256
    real, rings_used = rings.Ring.mat_mul, []

    def recording(self, A, B):
        rings_used.append(self.literal)
        return real(self, A, B)

    monkeypatch.setattr(rings.Ring, "mat_mul", recording)
    monkeypatch.delenv("ZETA_CACHE_DIR", raising=False)
    cache.clear_memo()
    try:
        for m in (1, 2):
            cache.table_for("borel:A2", parse_ring(f"zq:p=2,f=1,m={m}"),
                            cap=1000)
        # borel has no order law: the route refuses |B(Z/4)| |V| = 256 * 32
        with pytest.raises(TooLarge, match=r"exceeded cap: its 256 lower "
                           r"elements times \|V\| = 32 give 8192 elements"):
            cache.table_for("borel:A2", parse_ring("zq:p=2,f=1,m=3"),
                            cap=1000)
    finally:
        cache.clear_memo()
    assert "zq:p=2,f=1,m=2" in rings_used
    assert "zq:p=2,f=1,m=3" not in rings_used


@pytest.mark.parametrize("family,kind,levels", [
    ("borel:A2", "zq", 3),
    ("borel:A2", "fqt", 3),
    ("parabolic:B2:a1", "zq", 2),
    ("parabolic:B2:a1", "fqt", 2),
])
def test_parabolic_order_law(family, kind, levels):
    # |P(R_m)| = |P(F_q)| q^((m-1) dim P), over both ring kinds
    fam = Family(family)
    tables = tower(family, f"{kind}:p=2,f=1,m={levels}")
    for m, P in enumerate(tables, start=1):
        assert P.size == tables[0].size * 2 ** ((m - 1) * fam.dim_scheme)


# ----------------------------------------------------------------------
# orbit labels on kernel nodes, against the all-points labels of the
# packed-key oracle, which has no kernel coordinates


_keyed = {}


def keyed_table(family, lit):
    """The packed-key table of generate without a lower table: the same
    group numbered in search order, every element its own node."""
    if (family, lit) not in _keyed:
        ring = parse_ring(lit)
        _keyed[family, lit] = generate(ring, Family(family).generators(ring))
    return _keyed[family, lit]


def trivial_subgroup(G):
    return generate(G.ring, [(("1",), G.ring.identity_mat(G.d))], name="1")


# both ring kinds, p = 2 and 3, f = 1 and 2, the families Heisenberg, A1,
# A2 and B2 (the B2 groups are its parabolics: chevalley:B2 has 737,280
# elements at level 2, which the key route takes tens of seconds on)
NODE_CASES = [
    ("heisenberg", "zq:p=3,f=1,m=3"),
    ("heisenberg", "fqt:p=2,f=2,m=2"),
    ("heisenberg", "zq:p=2,f=1,m=4"),
    ("chevalley:A1", "zq:p=2,f=2,m=2"),
    ("chevalley:A1", "fqt:p=3,f=1,m=3"),
    ("chevalley:A1", "zq:p=3,f=1,m=2"),
    ("chevalley:A2", "zq:p=2,f=1,m=2"),
    ("parabolic:B2:a1", "fqt:p=2,f=1,m=2"),
    ("parabolic:B2:a2", "zq:p=2,f=1,m=2"),
]


@pytest.mark.parametrize("family,lit", NODE_CASES)
def test_conjugation_labels_on_nodes_match_every_point(family, lit):
    G = small_table(family, lit)
    assert G.record is not None
    node, reps = G._nodes(G.record.conjugation_span())
    assert reps.size < G.size
    keyed = keyed_table(family, lit)
    pi = assert_isomorphic(G, keyed)
    assert_partitions_correspond(G.conjugation_labels(),
                                 keyed.conjugation_labels(), pi)


# (group, pairs of subgroup families): Borel, maximal parabolic, trivial
# ("1") and whole-group pairs
COSET_CASES = [
    ("chevalley:A2", "zq:p=2,f=1,m=2",
     [("borel:A2", "borel:A2"), ("parabolic:A2:a1", "parabolic:A2:a2"),
      ("parabolic:A2:a2", "borel:A2"), ("1", "1"),
      ("chevalley:A2", "chevalley:A2"), ("1", "parabolic:A2:a1")]),
    ("chevalley:A1", "fqt:p=3,f=1,m=3",
     [("borel:A1", "borel:A1"), ("1", "1"),
      ("chevalley:A1", "chevalley:A1"), ("borel:A1", "1")]),
    ("chevalley:A1", "zq:p=2,f=2,m=2",
     [("borel:A1", "borel:A1"), ("1", "chevalley:A1")]),
    ("parabolic:B2:a1", "fqt:p=2,f=1,m=2",
     [("parabolic:B2:-", "parabolic:B2:-"), ("parabolic:B2:a1", "1"),
      ("1", "1"), ("parabolic:B2:-", "parabolic:B2:a1")]),
    ("heisenberg", "zq:p=3,f=1,m=3",
     [("1", "1"), ("heisenberg", "heisenberg"), ("1", "heisenberg")]),
]


@pytest.mark.parametrize("family,lit,pairs", COSET_CASES)
def test_double_coset_labels_on_nodes_match_every_point(family, lit, pairs):
    G, keyed = small_table(family, lit), keyed_table(family, lit)
    pi = assert_isomorphic(G, keyed)

    def sub(name):
        return trivial_subgroup(G) if name == "1" else small_table(name, lit)

    for s1, s2 in pairs:
        P1, P2 = sub(s1), sub(s2)
        got = G.double_coset_labels(P1.generators, P2.generators)
        assert_partitions_correspond(
            got, keyed.double_coset_labels(P1.generators, P2.generators), pi)
        b, e, n1, n2 = G.double_coset_data(P1.generators, P2.generators)
        assert (n1, n2) == (P1.size, P2.size)
        assert b == got.max() + 1 and e == b * P1.size * P2.size
        if s1 == s2 == "1":
            assert b == G.size
        if family in (s1, s2):
            assert b == 1


@pytest.mark.parametrize("family,lit,nodes,classes", [
    ("heisenberg", "zq:p=3,f=1,m=4", 216_513, 8721),
    ("chevalley:A1", "zq:p=7,f=1,m=2", 2_688, 58),
])
def test_node_counts(family, lit, nodes, classes):
    # |G_(m-1)| times the orbits of G(F_q) on V: 11 for Heisenberg at q = 3
    # and 8 for A1 at q = 7
    G = table(family, lit)
    node, reps = G._nodes(G.record.conjugation_span())
    assert reps.size == nodes
    assert np.bincount(node).sum() == G.size
    assert G.class_count() == classes


def test_identity_moves_are_dropped(monkeypatch):
    # conjugation by the central e13 generators fixes every node
    G = table("heisenberg", "zq:p=3,f=1,m=2")
    seen = []
    real = GroupTable._orbit_labels
    monkeypatch.setattr(GroupTable, "_orbit_labels", staticmethod(
        lambda n, perms: seen.append(len(perms)) or real(n, perms)))
    assert G.class_count() == keyed_table("heisenberg", "zq:p=3,f=1,m=2") \
        .class_count()
    assert len(G.generators) == 3 and seen[0] == 2


@pytest.mark.parametrize("family,lit,central", [
    ("heisenberg", "zq:p=3,f=1,m=3", True),
    ("heisenberg", "fqt:p=2,f=2,m=2", True),
    ("chevalley:A1", "fqt:p=3,f=1,m=3", False),
])
def test_central_generators_never_move_the_nodes(monkeypatch, family, lit,
                                                 central):
    # the central e13 generators of the Heisenberg group are skipped before
    # any node is moved; A1 has no central generator, so every one moves
    G = table(family, lit)
    every = np.arange(G.size)
    want = _fixpoint_labels(G.size, [G.conjugate(every, c)
                                     for c in range(len(G.generators))])
    reps = G._nodes(G.record.conjugation_span())[1]
    moved = []
    real = GroupTable.conjugate

    def recording(self, x, col):
        if np.array_equal(x, reps):
            moved.append(col)
        return real(self, x, col)

    monkeypatch.setattr(GroupTable, "conjugate", recording)
    assert (G.conjugation_labels() == want).all()
    e13 = [c for c, (prov, _) in enumerate(G.generators)
           if prov[0] == "e13"]
    assert bool(e13) == central
    assert moved == [c for c in range(len(G.generators)) if c not in e13]


def test_a_corrupted_node_map_raises(monkeypatch):
    # residue 0 reduced as if all of V moved it: nodes of the wrong size
    real = groups._reduction_table

    def merged(M, p):
        red = real(M, p)
        red[:p ** M.shape[1]] = 0
        return red

    G = table("chevalley:A1", "fqt:p=2,f=1,m=3")
    monkeypatch.setattr(groups, "_reduction_table", merged)
    with pytest.raises(IdentityError, match="not a coset"):
        G.class_count()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reductions_give_the_smallest_element_of_each_coset(p):
    # seeded spans of up to k = 5 rows, rank deficient ones among them:
    # u M is the smallest base-p number in u + the row space, found by
    # listing the whole row space
    rng = np.random.default_rng(p)
    for k in range(1, 6 if p < 5 else 5):
        weights = p ** np.arange(k)
        vecs = np.array(list(itertools.product(range(p), repeat=k)))[:, ::-1]
        for n in range(1, k + 2):
            span = rng.integers(0, p, size=(3, n, k))
            span[0, -1] = span[0, 0]  # a repeated row
            M, rank = groups._reductions(span, p)
            red = groups._reduction_table(M, p).reshape(3, -1)
            coefs = np.array(list(itertools.product(range(p), repeat=n)))
            for r in range(3):
                space = np.unique(coefs @ span[r] % p, axis=0)
                assert len(space) == p ** rank[r]
                least = ((vecs[:, None] + space) % p @ weights).min(axis=1)
                assert (red[r] == least).all(), (p, k, n, r)


def test_a_node_numbered_off_its_smallest_element_raises(monkeypatch):
    # the reduction of the forward echelon, zero at the lowest nonzero
    # column of each row, picks one element of every coset, but not
    # always the smallest
    real = groups._reductions

    def forward(span, p):
        M, rank = real(span[..., ::-1], p)
        return M[:, ::-1, ::-1], rank

    G = table("chevalley:A1", "zq:p=3,f=1,m=2")
    monkeypatch.setattr(groups, "_reductions", forward)
    with pytest.raises(IdentityError, match="smallest element"):
        G.class_count()


def test_a_move_that_is_no_node_permutation_raises(monkeypatch):
    G = table("chevalley:A1", "zq:p=3,f=1,m=2")
    monkeypatch.setattr(GroupTable, "conjugate",
                        lambda self, x, col: np.zeros_like(x))
    with pytest.raises(IdentityError, match="does not permute its nodes"):
        G.class_count()


def test_kernel_coordinates_must_fit_the_table():
    # one residue fewer leaves lifts that fill no whole residue blocks,
    # one lift fewer too few slots for the table
    G = table("heisenberg", "zq:p=2,f=1,m=2")
    for field in ("residues", "lifts"):
        arrays = G.record.arrays()
        arrays[field] = arrays[field][:-1]
        short = groups.LiftRecord(G.ring, **arrays)
        with pytest.raises(IdentityError, match="do not fit"):
            GroupTable(G.ring, G.mats, G.inv, G.rho, G.generators, G.name,
                       short)


def test_a_table_loaded_from_disk_labels_on_its_stored_nodes(
        generated, tmp_path, monkeypatch):
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    top = parse_ring("fqt:p=2,f=1,m=3")
    fresh = cache.table_for("chevalley:A1", top)
    borel = Family("borel:A1").generators(top)
    want = fresh.conjugation_labels().copy()
    want2 = fresh.double_coset_labels(borel, borel).copy()
    cache.clear_memo()
    generated.clear()
    loaded = cache.table_for("chevalley:A1", top)  # disk hit, memo empty
    assert generated == [] and loaded is not fresh
    for a, b in ((loaded.record.residues, fresh.record.residues),
                 (loaded.record.adj, fresh.record.adj)):
        assert a.dtype == b.dtype and (a == b).all()
    assert (loaded.conjugation_labels() == want).all()
    assert (loaded.double_coset_labels(borel, borel) == want2).all()
    assert generated == []
