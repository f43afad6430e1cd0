"""Exhaustive enumeration of matrix groups over finite rings.

A GroupTable is a fully enumerated finite group of d x d matrices over one
of the rings from :mod:`localzeta.rings`, with canonical little-endian
``<u2`` byte encodings, tracked inverses, and the right-regular table
``rho`` of every product x * g that the enumeration formed.  On top of the
table sit the counting routines used by the zeta layer; their group
actions are integer gathers on ``rho`` and the inverse map, with no matrix
product:

* conjugacy classes by orbit partition under generator conjugation,
  cross-checkable against the commuting-pair count (class count times group
  order equals the number of commuting pairs);
* double cosets of two enumerated subgroups by orbit partition of the
  two-sided action, cross-checkable against the pair count
  e = #{(x,y) : y in Q2, x y x^-1 in Q1} = b |Q1| |Q2|;
* congruence depth w(x,y) = min entry valuation of xy - yx, and the
  parabolic depth lambda_S via level projections.

Enumeration is breadth-first over a canonically sorted generator list, so
element order (and therefore every cache file) is deterministic.
"""

from __future__ import annotations

import numpy as np

from .chevalley import chevalley_group

ENUM_CAP = 2_000_000
PAIR_SCAN_CAP = 20_000
KEY_CHUNK = 1 << 14  # rows whose byte keys are formed at once


class GroupsError(ValueError):
    pass


class TooLarge(RuntimeError):
    pass


class IdentityError(RuntimeError):
    """An identity the computation relies on failed: a defect, not a
    usage error, so it is deliberately not a ValueError."""


def encode_mat(mat) -> bytes:
    """Canonical '<u2' little-endian row-major byte string."""
    return np.ascontiguousarray(mat, dtype="<u2").tobytes()


def _keys(mats):
    """encode_mat of every matrix in an (N, d, d) stack, as a list."""
    enc = np.ascontiguousarray(mats, dtype="<u2")
    if not enc.shape[0]:
        return []
    rows = enc.reshape(enc.shape[0], -1)
    return rows.view(f"V{rows.shape[1] * 2}").ravel().tolist()


def _indices(index, mats):
    """index[encode_mat(x)] for every x in the stack; KeyError if absent.

    Keys are formed a chunk at a time, so a large stack never holds all of
    its byte strings at once.
    """
    out = np.empty(mats.shape[0], dtype=np.int64)
    for lo in range(0, mats.shape[0], KEY_CHUNK):
        hi = lo + KEY_CHUNK
        out[lo:hi] = [index[k] for k in _keys(mats[lo:hi])]
    return out


def inverse_perm(perm):
    """The inverse of a permutation given as an index array."""
    out = np.empty_like(perm)
    out[perm] = np.arange(perm.shape[0], dtype=perm.dtype)
    return out


class GroupTable:
    """An enumerated group with its right-regular table.

    ``rho[x, c]`` is the index of ``x * g_c`` for the c-th generator, so
    every action the counting layer needs is a gather on ``rho`` and
    ``inv``: right multiplication by ``g^-1`` is the inverse permutation of
    ``rho[:, c]``, left multiplication is ``inv[rho_g^-1[inv[x]]]``, and
    conjugation composes the two.
    """

    def __init__(self, ring, mats, inv, rho, generators, name, dim_scheme,
                 index=None):
        self.ring = ring
        self.mats = mats  # (N, d, d) int32
        self.inv = inv  # (N,) int64 index of inverse
        self.rho = rho  # (N, ngens) int32 index of x * g
        self._index = index  # bytes -> int, built on first use
        self.generators = generators  # list of (provenance, matrix)
        self.name = name
        self.dim_scheme = dim_scheme
        self.d = mats.shape[1]
        self._labels = None

    @property
    def size(self):
        return self.mats.shape[0]

    @property
    def index(self):
        """encode_mat(x) -> index of x; a Python loop, so built lazily."""
        if self._index is None:
            self._index = {k: i for i, k in enumerate(_keys(self.mats))}
        return self._index

    def lookup(self, mat):
        key = encode_mat(mat)
        if key not in self.index:
            raise IdentityError(f"matrix not in table {self.name}")
        return self.index[key]

    def lookup_batch(self, mats):
        try:
            return _indices(self.index, mats)
        except KeyError:
            raise IdentityError(f"matrix not in table {self.name}") from None

    def contains(self, mat):
        return encode_mat(mat) in self.index

    def mul(self, i, j):
        return int(
            self.lookup(self.ring.mat_mul(self.mats[i], self.mats[j]))
        )

    # ------------------------------------------------------------------
    # actions as gathers on rho

    def columns(self, sub: "GroupTable"):
        """The rho column of each generator of sub.

        Every family draws its generators from the same root, additive and
        unit lists, so a subgroup's generators are among this table's.  An
        identity generator acts trivially and gets no column.
        """
        cols = {encode_mat(g): c for c, (_, g) in enumerate(self.generators)}
        ident = encode_mat(self.ring.identity_mat(self.d))
        out = []
        for prov, g in sub.generators:
            key = encode_mat(g)
            if key == ident:
                continue
            if key not in cols:
                raise GroupsError(
                    f"generator {prov} of {sub.name} is not a generator "
                    f"of {self.name}"
                )
            out.append(cols[key])
        return out

    def right_inverse_perm(self, col):
        """x -> x g^-1 for the generator g of rho column col."""
        return inverse_perm(self.rho[:, col])

    def left_perm(self, col):
        """x -> g x, as inv[rho_g^-1[inv[x]]]."""
        return self.inv[self.right_inverse_perm(col)[self.inv]]

    def conjugation_perm(self, col):
        """x -> g x g^-1, as rho_g^-1[left_g(x)]."""
        right_inv = self.right_inverse_perm(col)
        return right_inv[self.inv[right_inv[self.inv]]]

    # ------------------------------------------------------------------
    # conjugacy

    @staticmethod
    def _orbit_labels(n, perms):
        """Orbit label per point under the group the permutations generate.

        Hook and shortcut (Shiloach and Vishkin): every edge x -- p(x)
        whose ends have different parents hooks the larger parent onto the
        smaller, then pointer jumping flattens every tree to a star; repeat
        until no edge joins two stars.  A parent never rises, so each orbit
        ends as one star rooted at its smallest element; labels number the
        orbits in that order.
        """
        parent = np.arange(n, dtype=np.int64)
        hooked = True
        while hooked:
            hooked = False
            for p in perms:
                a, b = parent, parent[p]
                cross = a != b
                if cross.any():
                    hooked = True
                    a, b = a[cross], b[cross]
                    high = np.maximum(a, b)
                    parent[high] = np.minimum(parent[high], np.minimum(a, b))
            while True:
                grand = parent[parent]
                if np.array_equal(grand, parent):
                    break
                parent = grand
        roots = parent == np.arange(n)
        return (np.cumsum(roots) - 1)[parent]

    def conjugation_labels(self):
        """Conjugacy-class label per element (orbit partition)."""
        if self._labels is None:
            perms = [
                self.conjugation_perm(c) for c in range(len(self.generators))
            ]
            self._labels = self._orbit_labels(self.size, perms)
        return self._labels

    def class_count(self):
        return int(self.conjugation_labels().max()) + 1

    def class_sizes(self):
        return sorted(np.bincount(self.conjugation_labels()).tolist())

    def commuting_pairs(self, cap=PAIR_SCAN_CAP):
        """#{(x,y) : xy = yx} by direct scan (independent of orbits)."""
        n = self.size
        if n > cap:
            raise TooLarge(f"pair scan over {n} elements exceeds cap {cap}")
        total = 0
        E = self.mats
        for i in range(n):
            x = E[i]
            xy = self.ring.mat_mul(x, E)
            yx = self.ring.mat_mul(E, x)
            eq = (xy == yx).all(axis=(1, 2))
            total += int(eq.sum())
        return total

    # ------------------------------------------------------------------
    # subgroups, double cosets, Hecke pairs

    def subgroup_indices(self, sub: "GroupTable"):
        """Sorted indices of a separately enumerated subgroup in this table.

        A breadth-first search from the identity over the rho columns of
        sub's generators; its size must equal sub.size.
        """
        if sub.ring is not self.ring or sub.d != self.d:
            raise GroupsError("subgroup table over a different carrier")
        cols = self.columns(sub)
        seen = np.zeros(self.size, dtype=bool)
        seen[0] = True  # generate puts the identity first
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            nxt = self.rho[frontier][:, cols].ravel()
            frontier = np.unique(nxt[~seen[nxt]])
            seen[frontier] = True
        idx = np.flatnonzero(seen)
        if idx.size != sub.size:
            raise GroupsError(
                f"{sub.name} generates {idx.size} elements of {self.name}, "
                f"not its {sub.size}"
            )
        return idx

    def double_coset_data(self, sub1: "GroupTable", sub2: "GroupTable"):
        """(b, e): double coset count and Hecke pair count.

        b is the number of orbits of x -> g1 x and x -> x g2^{-1} for
        generators g1 of sub1, g2 of sub2; e = #{(x,y): y in sub2,
        x y x^{-1} in sub1} is computed from full conjugacy data, so the
        identity e = b|Q1||Q2| is a genuine cross-check between two
        independent counts.
        """
        idx1 = self.subgroup_indices(sub1)
        idx2 = self.subgroup_indices(sub2)
        perms = [self.left_perm(c) for c in self.columns(sub1)]
        perms += [self.right_inverse_perm(c) for c in self.columns(sub2)]
        labels = self._orbit_labels(self.size, perms)
        b = int(labels.max()) + 1
        e = self.hecke_pairs(idx1, idx2)
        return b, e

    def hecke_pairs(self, idx1, idx2):
        """e = #{(x,y) : y in Q2, x y x^{-1} in Q1}, exactly.

        For fixed y the conjugators form centralizer cosets, so the count
        is |C(y)| * |class(y) ∩ Q1|, read off the conjugacy labels.
        """
        labels = self.conjugation_labels()
        nclasses = int(labels.max()) + 1
        orb = np.bincount(labels, minlength=nclasses)
        in1 = np.bincount(labels[idx1], minlength=nclasses)
        ly = labels[idx2]
        cent = self.size // orb[ly]
        return int((cent.astype(object) * in1[ly].astype(object)).sum())

    # ------------------------------------------------------------------
    # congruence depth

    def commutator_depth(self, i, j):
        """w(x,y) = min entry valuation of xy - yx, truncated at m."""
        x, y = self.mats[i], self.mats[j]
        diff = self.ring.mat_sub(
            self.ring.mat_mul(x, y), self.ring.mat_mul(y, x)
        )
        return int(self.ring.mat_min_valuation(diff))

    def commutator_depth_kernel(self, i, j):
        """Same depth via max{k : x^-1 y^-1 x y lies in the level-k kernel}."""
        xiyi = self.ring.mat_mul(self.mats[self.inv[i]], self.mats[self.inv[j]])
        comm = self.ring.mat_mul(
            xiyi, self.ring.mat_mul(self.mats[i], self.mats[j])
        )
        delta = self.ring.mat_sub(comm, self.ring.identity_mat(self.d))
        return int(self.ring.mat_min_valuation(delta))

    def pair_depth_counts(self, cap=PAIR_SCAN_CAP):
        """histogram[k] = #{(x,y) : w(x,y) >= k} for 0 <= k <= m."""
        n = self.size
        if n > cap:
            raise TooLarge(f"pair scan over {n} elements exceeds cap {cap}")
        m = self.ring.m
        hist = np.zeros(m + 1, dtype=np.int64)
        E = self.mats
        VAL = self.ring.VAL
        for i in range(n):
            x = E[i]
            diff = self.ring.mat_sub(
                self.ring.mat_mul(x, E), self.ring.mat_mul(E, x)
            )
            w = VAL[diff].min(axis=(1, 2))
            hist += np.bincount(w, minlength=m + 1)
        # cumulative from the top: entries with w == k count for all k' <= k
        return np.cumsum(hist[::-1])[::-1]

    # ------------------------------------------------------------------

    def project_onto(self, lower: "GroupTable"):
        """Index map from this table onto the lower-level table.

        Raises if any projected element is missing (the reduction maps of
        generated groups are expected to be surjective; missing targets
        mean the tables were built incompatibly).
        """
        k = lower.ring.m
        proj = self.ring.mat_project(self.mats, k)
        return lower.lookup_batch(proj)

    def __repr__(self):
        return (
            f"GroupTable({self.name}, |G|={self.size}, d={self.d}, "
            f"ring={self.ring.literal})"
        )


# ----------------------------------------------------------------------
# enumeration


def _matrix_order_inverse(ring, mat, cap=200_000):
    ident = ring.identity_mat(mat.shape[0])
    prev = mat
    for _ in range(cap):
        if (prev == ident).all():
            return ident.copy()
        nxt = ring.mat_mul(prev, mat)
        if (nxt == ident).all():
            return prev
        prev = nxt
    raise GroupsError("generator has no finite order under cap (not a unit?)")


def generate(ring, generators, cap=ENUM_CAP, name="G", dim_scheme=None):
    """Breadth-first closure of the generator list.

    generators: list of (provenance, matrix).  Generators are deduplicated
    and sorted by canonical encoding, and elements are discovered in a
    fixed order, so two runs produce identical tables.  Every product
    x * g formed on the way is kept as the right-regular table rho.
    Raises TooLarge as soon as the (cap + 1)-th element is found.
    """
    seen = {}
    for prov, g in generators:
        g = np.asarray(g, dtype=np.int32)
        key = encode_mat(g)
        if key not in seen:
            seen[key] = (prov, g)
    gens = [seen[k] for k in sorted(seen)]
    d = gens[0][1].shape[0] if gens else 1
    ident = ring.identity_mat(d)

    gen_mats = [g for _, g in gens]
    gen_invs = [_matrix_order_inverse(ring, g) for g in gen_mats]

    mats = [ident[None]]
    invs = [ident[None]]
    rho = []
    index = {encode_mat(ident): 0}
    # add(key, len(index)) returns the key's index, numbering unseen keys
    # in the order they are met
    add = index.setdefault
    frontier = ident[None]
    frontier_inv = ident[None]
    while frontier.shape[0]:
        # the frontier holds the contiguous indices discovered last
        block = np.empty((frontier.shape[0], len(gens)), dtype=np.int32)
        new_mats = []
        new_invs = []
        for col, (g, gi) in enumerate(zip(gen_mats, gen_invs)):
            prod = ring.mat_mul(frontier, g)
            keys = _keys(prod)
            size = len(index)
            if len(keys) <= cap - size:
                found = [add(k, len(index)) for k in keys]
            else:
                found = []
                for k in keys:
                    found.append(add(k, len(index)))
                    if len(index) > cap:
                        raise TooLarge(
                            f"group {name} exceeded cap: reached {len(index)}"
                        )
            block[:, col] = found
            fresh = np.flatnonzero(block[:, col] >= size)
            if fresh.size:
                new_mats.append(prod[fresh])
                new_invs.append(ring.mat_mul(gi, frontier_inv[fresh]))
        rho.append(block)
        if new_mats:
            frontier = np.concatenate(new_mats)
            frontier_inv = np.concatenate(new_invs)
            mats.append(frontier)
            invs.append(frontier_inv)
        else:
            frontier = np.empty((0, d, d), dtype=np.int32)
    inv_idx = np.concatenate([_indices(index, block) for block in invs])
    return GroupTable(
        ring, np.concatenate(mats), inv_idx, np.concatenate(rho), gens, name,
        dim_scheme if dim_scheme is not None else d, index=index,
    )


# ----------------------------------------------------------------------
# families


def _heisenberg_generators(ring):
    gens = []
    for g in ring.additive_generators():
        for pos, tag in (((0, 1), "e12"), ((1, 2), "e23"), ((0, 2), "e13")):
            mat = ring.identity_mat(3)
            mat[pos] = g
            gens.append(((tag, ring.element_str(g)), mat))
    return gens


def _chevalley_generators(cg, ring, roots, include_torus):
    rs = cg.rs
    gens = []
    for v in roots:
        for t in ring.additive_generators():
            gens.append(
                (("x", rs.root_name(v), ring.element_str(t)),
                 cg.x(ring, v, t))
            )
    if include_torus:
        for slot in range(rs.rank):
            for u in ring.unit_generators():
                gens.append(
                    (("tau", rs.root_name(rs.simple[slot]),
                      ring.element_str(u)),
                     cg.tau(ring, slot, u))
                )
    return gens


class Family:
    """A rule producing GroupTables over any compatible ring.

    Literals: ``heisenberg``, ``chevalley:A2``, ``unipotent:A2``,
    ``borel:A2``, ``torus:A2``, ``parabolic:A2:a1`` (comma list of simple
    roots), or ``rootset:A2:a1,a1+a2,-a1`` (arbitrary closed set).
    """

    def __init__(self, text: str, include_torus=True):
        self.text = text
        self.include_torus = include_torus
        parts = text.split(":")
        self.kind = parts[0]
        if self.kind == "heisenberg":
            if len(parts) != 1:
                raise GroupsError(f"bad family literal {text!r}")
            self.system = None
            self.dim_scheme = 3
            return
        if self.kind not in (
            "chevalley", "unipotent", "borel", "torus", "parabolic", "rootset"
        ):
            raise GroupsError(f"unknown family kind {self.kind!r}")
        if len(parts) < 2:
            raise GroupsError(f"family literal {text!r} needs a system")
        self.system = parts[1]
        self.cg = chevalley_group(self.system)
        rs = self.cg.rs
        if self.kind in ("parabolic", "rootset"):
            if len(parts) != 3:
                raise GroupsError(f"family literal {text!r} needs a root set")
            if self.kind == "parabolic":
                subset = rs.parse_simple_subset(parts[2])
                self.roots = rs.parabolic_roots(subset)
            else:
                self.roots = [rs.parse_root(tok) for tok in parts[2].split(",")]
                if not rs.is_closed(self.roots):
                    raise GroupsError(f"root set in {text!r} is not closed")
        elif len(parts) != 2:
            raise GroupsError(f"bad family literal {text!r}")
        elif self.kind == "chevalley":
            self.roots = list(rs.roots)
        elif self.kind in ("unipotent", "borel"):
            self.roots = list(rs.positive)
        else:  # torus
            self.roots = []
        if self.kind == "unipotent":
            self.include_torus = False
        self.dim_scheme = rs.rank + len(self.roots) if self.include_torus \
            else len(self.roots)

    def table(self, ring, cap=ENUM_CAP) -> GroupTable:
        if self.kind == "heisenberg":
            gens = _heisenberg_generators(ring)
        else:
            gens = _chevalley_generators(
                self.cg, ring, self.roots, self.include_torus
            )
        name = f"{self.text}/{ring.literal}"
        return generate(ring, gens, cap=cap, name=name,
                        dim_scheme=self.dim_scheme)

    def struct_hash(self):
        if self.kind == "heisenberg":
            return "heisenberg-3x3"
        return self.cg.struct_hash()

    def __repr__(self):
        return f"Family({self.text})"


def parabolic_depth(x_idx, table, sub_tables):
    """lambda_S(x): largest k <= m with the level-k projection in P_S.

    sub_tables maps level k -> enumerated P_S table over the level-k ring.
    Depth 0 means not even the residue image lies in P_S.
    """
    ring = table.ring
    depth = 0
    for k in range(1, ring.m + 1):
        proj = ring.mat_project(table.mats[x_idx], k)
        if sub_tables[k].contains(proj):
            depth = k
        else:
            break
    return depth


def parabolic_depth_coset(x_idx, table, sub_m):
    """Lemma-style formula: max over y in P_S of min-val(y^{-1} x - I)."""
    ring = table.ring
    x = table.mats[x_idx]
    yinv = table.mats[table.inv[table.subgroup_indices(sub_m)]]
    prod = ring.mat_mul(yinv, x)
    delta = ring.mat_sub(prod, ring.identity_mat(table.d))
    vals = ring.mat_min_valuation(delta)
    return int(vals.max())
