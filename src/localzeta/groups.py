"""Exhaustive enumeration of matrix groups over finite rings.

A GroupTable is a fully enumerated finite group of d x d matrices over one
of the rings from :mod:`localzeta.rings`, with the right-regular table
``rho`` of every product x * g that the enumeration formed, and the
inverse map that gathers on ``rho`` give.  Matrices are found by packed
integer keys: the entries of a matrix, bit-packed into uint64 words and
folded into one uint64 when there are several words, are looked up in the
table's sorted key array, and every hit is confirmed entry by entry.  On
top of the table sit the counting routines used by the zeta layer; their
group actions are integer gathers on ``rho`` and the inverse map, with no
matrix product:

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
PIECE = 1 << 18  # multiply-adds in one mat_mul call of generate
FOLD_MUL = np.uint64(0x9E3779B97F4A7C15)  # odd, so multiplying is a bijection


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


def _fold(words):
    """One uint64 per row of an (n, w) uint64 word array.

    Each word is xored in, multiplied by the odd FOLD_MUL and xor-shifted;
    every step is a bijection of the running key, so rows that differ in
    their last word only never collide.  The fold is not injective, so
    callers confirm every key match entry by entry.
    """
    key = np.zeros(words.shape[0], dtype=np.uint64)
    for j in range(words.shape[1]):
        key ^= words[:, j]
        key *= FOLD_MUL
        key ^= key >> np.uint64(32)
    return key


class _Packing:
    """The uint64 key of every d x d matrix over one ring.

    Entries take bits = (size - 1).bit_length() bits each, row-major from
    the low end of ceil(d*d*bits / 64) uint64 words; an entry may straddle
    two words.  One word is the key and is exact; several are folded.
    """

    def __init__(self, ring, d):
        bits = (ring.size - 1).bit_length()
        self.entries = d * d
        self.words = -(-self.entries * bits // 64)
        word, shift = np.divmod(bits * np.arange(self.entries), 64)
        # entry i adds entry << shift to its first word; int64 products
        # wrap like uint64 ones, which drops the bits past the word
        self.weights = np.zeros((self.entries, self.words), dtype=np.int64)
        self.weights[np.arange(self.entries), word] = (
            np.left_shift(np.uint64(1), shift.astype(np.uint64))
            .view(np.int64)
        )
        # the high bits of a straddling entry start the next word
        self.carries = [
            (i, int(word[i]) + 1, 64 - int(shift[i]))
            for i in np.flatnonzero(shift + bits > 64)
        ]

    def __call__(self, mats):
        flat = np.asarray(mats).reshape(-1, self.entries).astype(np.int64)
        words = (flat @ self.weights).view(np.uint64)
        for i, w, s in self.carries:
            words[:, w] += (flat[:, i] >> s).view(np.uint64)
        return words[:, 0] if self.words == 1 else _fold(words)


def _sorted_lookup(skeys, keys):
    """(pos, hit): where each key is in the sorted key array, if it is
    there; pos is a valid index either way."""
    pos = np.searchsorted(skeys, keys)
    np.minimum(pos, skeys.shape[0] - 1, out=pos)
    return pos, skeys[pos] == keys


def _merge(run, into):
    """Merge one sorted (keys, indices) run into another with no key in
    common."""
    at = np.searchsorted(into[0], run[0])
    return np.insert(into[0], at, run[0]), np.insert(into[1], at, run[1])


class _KeyRuns:
    """Distinct keys with their element indices, as sorted runs.

    The last two runs are merged while the older is at most twice the
    newer, so each run is more than twice the next, there are at most
    log2(N) + 1 runs, and a key's run grows 1.5-fold at each merge it
    takes part in.
    """

    def __init__(self, keys, idx):
        self.runs = [(keys, idx)]

    def add(self, keys, idx):
        """Add sorted keys, none of them present yet."""
        if not keys.size:
            return
        self.runs.append((keys, idx))
        while (len(self.runs) > 1
               and self.runs[-2][0].size <= 2 * self.runs[-1][0].size):
            self.runs.append(_merge(self.runs.pop(), self.runs.pop()))

    def find(self, keys):
        """(index, hit) of every key; the index is meaningful on a hit."""
        idx = np.zeros(keys.shape[0], dtype=np.int64)
        hit = np.zeros(keys.shape[0], dtype=bool)
        for run_keys, run_idx in self.runs:
            pos, here = _sorted_lookup(run_keys, keys)
            idx[here] = run_idx[pos[here]]
            hit |= here
        return idx, hit

    def merged(self):
        """Every key in one sorted run: (keys, indices)."""
        run = self.runs[-1]
        for other in self.runs[-2::-1]:
            run = _merge(run, other)
        return run


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
    conjugation composes the two.  ``inv`` itself comes from ``rho`` and
    the enumeration's search tree (``_inverses``).
    """

    def __init__(self, ring, mats, inv, rho, generators, name, dim_scheme,
                 sorted_keys=None):
        self.ring = ring
        self.mats = mats  # (N, d, d) int32
        self.inv = inv  # (N,) int64 index of inverse
        self.rho = rho  # (N, ngens) int32 index of x * g
        self.generators = generators  # list of (provenance, matrix)
        self.name = name
        self.dim_scheme = dim_scheme
        self.d = mats.shape[1]
        self._pack = _Packing(ring, self.d)
        # (sorted keys, their element indices), built on first use
        self._sorted = sorted_keys
        self._labels = None

    @property
    def size(self):
        return self.mats.shape[0]

    def _sorted_keys(self):
        """The sorted key array and the element index of each key."""
        if self._sorted is None:
            keys = self._pack(self.mats)
            order = np.argsort(keys)
            skeys = keys[order]
            if (skeys[1:] == skeys[:-1]).any():
                raise IdentityError(f"two elements of {self.name} share a key")
            self._sorted = (skeys, order.astype(np.int32))
        return self._sorted

    def _locate(self, mats):
        """(index, found) for every matrix of an (n, d, d) stack; found
        means equal entry by entry, and only then is the index meaningful."""
        mats = np.asarray(mats)
        skeys, sidx = self._sorted_keys()
        pos, hit = _sorted_lookup(skeys, self._pack(mats))
        idx = sidx[pos].astype(np.int64)
        hit &= (self.mats[idx] == mats).all(axis=(1, 2))
        return idx, hit

    def lookup_batch(self, mats):
        idx, found = self._locate(mats)
        if not found.all():
            raise IdentityError(f"matrix not in table {self.name}")
        return idx

    def lookup(self, mat):
        return int(self.lookup_batch(np.asarray(mat)[None])[0])

    def contains_batch(self, mats):
        """Membership of every matrix of an (n, d, d) stack."""
        return self._locate(mats)[1]

    def contains(self, mat):
        return bool(self.contains_batch(np.asarray(mat)[None])[0])

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


def _canonical_generators(generators):
    """(provenance, int32 matrix) pairs sorted by encode_mat, each matrix
    once, with the provenance it first came with."""
    gens = [(prov, np.asarray(g, dtype=np.int32)) for prov, g in generators]
    gens.sort(key=lambda pg: encode_mat(pg[1]))  # stable
    return [
        pg for i, pg in enumerate(gens)
        if i == 0 or encode_mat(pg[1]) != encode_mat(gens[i - 1][1])
    ]


def _room(buf, used, need):
    """buf, or a copy of its first used rows with room for need rows."""
    if need <= buf.shape[0]:
        return buf
    out = np.empty((max(need, 2 * buf.shape[0]),) + buf.shape[1:], buf.dtype)
    out[:used] = buf[:used]
    return out


def _pieces(ngens, width, per):
    """(c0, c1, r0, r1) blocks of the ngens x width products, in
    generator-major order, each of at most per products: whole generator
    columns while a column fits in per, else parts of one column."""
    if width <= per:
        step = per // width
        for c0 in range(0, ngens, step):
            yield c0, min(ngens, c0 + step), 0, width
    else:
        for c in range(ngens):
            for r0 in range(0, width, per):
                yield c, c + 1, r0, min(width, r0 + per)


def _inverses(rho, parent, letter, layers):
    """Every element's inverse index, by gathers on rho along the BFS
    tree, a Schreier vector: x = parent[x] g_letter[x] for x > 0, and the
    identity 0 is alone in the first of the (lo, hi) layers.  g_c^-1 y
    starts from the x with rho[x, c] = 0 and follows the tree, as
    (g_c^-1 parent(y)) g_letter(y); then x^-1 = g^-1 parent(x)^-1."""
    left = np.empty(rho.shape[::-1], rho.dtype)  # left[c, y] = g_c^-1 y
    for c, row in enumerate(left):
        to_one = np.flatnonzero(rho[:, c] == 0)
        if not to_one.size:
            raise GroupsError(f"generator {c} never reaches the identity")
        row[0] = to_one[0]
        for lo, hi in layers[1:]:
            row[lo:hi] = rho[row[parent[lo:hi]], letter[lo:hi]]
    inv = np.zeros(rho.shape[0], dtype=np.int64)
    for lo, hi in layers[1:]:
        inv[lo:hi] = left[letter[lo:hi], inv[parent[lo:hi]]]
    if not (inv[inv] == np.arange(inv.size)).all():
        raise IdentityError("the derived inverse map is not an involution")
    return inv


def generate(ring, generators, cap=ENUM_CAP, name="G", dim_scheme=None):
    """Breadth-first closure of the generator list.

    generators: list of (provenance, matrix).  Generators are deduplicated
    and sorted by canonical encoding.  Each layer forms its products x * g
    generator-major (the whole frontier times g_0, then times g_1, ...),
    in pieces of at most PIECE multiply-adds, and looks their keys up in the
    sorted keys of the elements found so far; new elements are numbered in
    the order they first occur, so two runs produce identical tables.
    Every product is kept as the right-regular table rho, and is compared
    entry by entry with the element it was numbered as, so a key collision
    raises IdentityError and never merges two matrices.  These N * ngens
    products are the only matrix products; inverses are gathers on rho.
    Raises TooLarge in the piece that finds the (cap + 1)-th element.
    """
    gens = _canonical_generators(generators)
    ngens = len(gens)
    d = gens[0][1].shape[0] if gens else 1
    gen_mats = np.array([g for _, g in gens], dtype=np.int32)
    pack = _Packing(ring, d)

    # the first `size` rows of mats are the elements found so far, runs
    # holds their keys, and element x > 0 is parent[x] * gen_mats[letter[x]]
    mats = ring.identity_mat(d)[None]
    runs = _KeyRuns(pack(mats), np.zeros(1, dtype=np.int32))
    parent, letter = [np.zeros(1, np.int64)], [np.zeros(1, np.int64)]
    size, lo = 1, 0
    per = max(1, PIECE // d**3)
    rho, layers = [], []
    while lo < size:
        # the frontier is lo..size-1, the elements the last layer found
        width = size - lo
        block = np.empty((ngens, width), dtype=np.int32)  # generator-major
        for c0, c1, r0, r1 in _pieces(ngens, width, per):
            prod = ring.mat_mul(
                mats[None, lo + r0:lo + r1], gen_mats[c0:c1, None]
            ).reshape(-1, d, d)
            keys = pack(prod)
            # the distinct keys, ascending, each with its first occurrence
            order = np.argsort(keys, kind="stable")
            ks = keys[order]
            head = np.ones(ks.shape[0], dtype=bool)
            np.not_equal(ks[1:], ks[:-1], out=head[1:])
            ukeys, first = ks[head], order[head]
            uid, old = runs.find(ukeys)
            new = np.flatnonzero(~old)
            fresh = new[np.argsort(first[new])]
            if size + fresh.size > cap:
                raise TooLarge(f"group {name} exceeded cap: reached {cap + 1}")
            uid[fresh] = np.arange(size, size + fresh.size)
            col, row = np.divmod(first[fresh], r1 - r0)
            parent.append(lo + r0 + row)
            letter.append(c0 + col)
            mats = _room(mats, size, size + fresh.size)
            mats[size:size + fresh.size] = prod[first[fresh]]
            size += fresh.size
            ids = np.empty(keys.shape[0], dtype=np.int64)
            ids[order] = uid[np.cumsum(head) - 1]
            if not (mats[ids] == prod).all():
                raise IdentityError(f"two matrices of {name} share a key")
            block[c0:c1, r0:r1] = ids.reshape(c1 - c0, r1 - r0)
            runs.add(ukeys[new], uid[new].astype(np.int32))
        rho.append(block.T)
        layers.append((lo, lo + width))
        lo += width
    if mats.shape[0] > size:
        mats = mats[:size].copy()
    rho = np.concatenate(rho)
    inv = _inverses(rho, np.concatenate(parent), np.concatenate(letter),
                    layers)
    return GroupTable(
        ring, mats, inv, rho, gens, name,
        dim_scheme if dim_scheme is not None else d,
        sorted_keys=runs.merged(),
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

    def predicted_order(self, ring):
        """|G| by its order law, or None where none is used.

        Heisenberg: |R|^3.  Chevalley with its torus over O/p^m:
        |G(F_q)| q^((m-1) dim G) (Lemma 6.1); Z/n has no single q.
        """
        if self.kind == "heisenberg":
            return ring.size**3
        if self.kind == "chevalley" and self.include_torus \
                and ring.kind != "zn":
            return self.cg.point_count(ring.q) \
                * ring.q ** ((ring.m - 1) * self.dim_scheme)
        return None

    def table(self, ring, cap=ENUM_CAP) -> GroupTable:
        """Enumerate the group over ring; TooLarge before any enumeration
        when its order law predicts more than cap elements."""
        name = f"{self.text}/{ring.literal}"
        order = self.predicted_order(ring)
        if order is not None and order > cap:
            raise TooLarge(
                f"group {name} exceeded cap: its order law gives {order} "
                f"elements, so enumeration would reach {cap + 1}"
            )
        if self.kind == "heisenberg":
            gens = _heisenberg_generators(ring)
        else:
            gens = _chevalley_generators(
                self.cg, ring, self.roots, self.include_torus
            )
        return generate(ring, gens, cap=cap, name=name,
                        dim_scheme=self.dim_scheme)

    def struct_hash(self):
        if self.kind == "heisenberg":
            return "heisenberg-3x3"
        return self.cg.struct_hash()

    def __repr__(self):
        return f"Family({self.text})"


def parabolic_depths(table, sub_tables):
    """lambda_S of every element: lam[i] is the largest k <= m with the
    level-k projection of element i in P_S.

    sub_tables maps level k -> enumerated P_S table over the level-k ring.
    Depth 0 means not even the residue image lies in P_S.
    """
    ring = table.ring
    lam = np.zeros(table.size, dtype=np.int64)
    alive = np.ones(table.size, dtype=bool)
    for k in range(1, ring.m + 1):
        rows = np.flatnonzero(alive)
        proj = ring.mat_project(table.mats[rows], k)
        alive[rows] = sub_tables[k].contains_batch(proj)
        lam[alive] = k
        if not alive.any():
            break
    return lam


def parabolic_depth_coset(x_idx, table, sub_m):
    """Lemma-style formula: max over y in P_S of min-val(y^{-1} x - I)."""
    ring = table.ring
    x = table.mats[x_idx]
    yinv = table.mats[table.inv[table.subgroup_indices(sub_m)]]
    prod = ring.mat_mul(yinv, x)
    delta = ring.mat_sub(prod, ring.identity_mat(table.d))
    vals = ring.mat_min_valuation(delta)
    return int(vals.max())
