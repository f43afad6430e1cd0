"""Exhaustive enumeration of matrix groups over finite rings.

A GroupTable is a fully enumerated finite group of d x d matrices over one
of the rings from :mod:`localzeta.rings`, with the right-regular table
``rho``, the id of x * g for every generator g and element x, one
contiguous row per generator, and the inverse map that gathers on ``rho``
give.

Elements get their ids by one of two routes, fixed by the ring (see
``generate``).  Every ``zq`` and ``fqt`` table at level m >= 2 is
numbered over the level-(m-1) table by its congruence kernel
(``_KernelIndex``): G(R_m) -> G(R_{m-1}) is onto with the abelian kernel
I + pi^(m-1) V, |V| = q^dim_scheme (the order law, held by the
``Family`` alone; no table carries it), so an element is (I + pi^(m-1) X_v)
s_j for a lift s_j of the lower element j, and its id is its kernel slot
j |V| + v.  Only the products over the lifts are formed; they fix a
``LiftRecord`` of O(|G_(m-1)|) arrays, from which rho and the inverses
follow by gathers.  The level above reads the table through it, and its
matrices are built, by one ``mat_mul`` per piece, only when read.
Level-1 tables and ``zn`` are searched breadth-first with packed integer
keys (``_KeyIndex``).  ``lookup_batch`` searches a table's sorted keys,
built on first use, for either route.  Every product
that is formed is confirmed, entry or digit by digit, so a wrong V or a
key collision raises IdentityError instead of mis-filing an element.
A cap is refused before any product of the level: by the order law
(``Family.check_cap``) where the family has one, else by the route, which
checks |G_(m-1)| |V| before it forms a level-m product.

On top of the table sit the counting routines used by the zeta layer;
their group actions are integer gathers on ``rho`` and the inverse map,
with no matrix product:

* conjugacy classes by orbit partition under generator conjugation,
  cross-checkable against the commuting-pair count (class count times group
  order equals the number of commuting pairs);
* double cosets of two subgroups, each the index set its generators
  reach in the table (``subgroup_indices``), by orbit partition of the
  two-sided action, cross-checkable against the pair count
  e = #{(x,y) : y in Q2, x y x^-1 in Q1} = b |Q1| |Q2|;
* congruence depth w(x,y) = min entry valuation of xy - yx, and the
  parabolic depth lambda_S via the tower numbering of the levels.

A generator's rho row is found by ``GroupTable.column``, for a subgroup's
generator list and for the kernel route's maps on the lower table alike.
The pair scans that check the orbit counts by matrix products
(``commuting_pairs``, ``pair_depth_counts`` and the zeta chains) share
one cap, ``PAIR_SCAN_CAP``, checked by ``check_pair_scan``.

Orbits are labelled on nodes, read from the table's ``LiftRecord``: on a
kernel-route table the kernel K = I + pi^(m-1) V acts on
x = (I + pi^(m-1) X_v) s_j by translations of v, by W_r = (1 - Ad r) V
under conjugation and by V_P1 + Ad(r) V_P2 under the two-sided action, r
the residue of s_j.  A node is one such translation class; generators map
nodes to nodes, so the orbits are the components of a graph on the nodes.
A table with no kernel (no record) has every element its own node.

The generator list is canonically sorted, and both numberings are fixed
by it (the lifts are chosen by a breadth-first search over the lower
table), so element order, and therefore every cache file, is
deterministic.
"""

from __future__ import annotations

import numpy as np

from .chevalley import chevalley_group
from .rings import RingError

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


def check_pair_scan(order):
    """TooLarge when a pair scan over order elements passes PAIR_SCAN_CAP;
    a None order (no order law) passes."""
    if order is not None and order > PAIR_SCAN_CAP:
        raise TooLarge(
            f"pair scan over {order} elements exceeds cap {PAIR_SCAN_CAP}")


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


def _echelon(A, p):
    """(E, rank, pivot) for an (R, n, k) stack of matrices over F_p: E
    the reduced row echelon form of each, rank its rank, and pivot[r, col]
    the row of E[r] whose leading 1 is in column col, or -1.  One column
    at a time, batched over the stack."""
    E = np.array(A, dtype=np.int64) % p
    R, n, k = E.shape
    rank = np.zeros(R, dtype=np.int64)
    pivot = np.full((R, k), -1, dtype=np.int64)
    inverse = np.array([0] + [pow(a, -1, p) for a in range(1, p)])
    for col in range(k):
        free = (np.arange(n) >= rank[:, None]) & (E[:, :, col] != 0)
        rs = np.flatnonzero(free.any(axis=1))
        if not rs.size:
            continue
        hit, top = free[rs].argmax(axis=1), rank[rs]
        row = E[rs, hit] * inverse[E[rs, hit, col]][:, None] % p
        E[rs, hit] = E[rs, top]
        E[rs, top] = row
        factor = E[rs, :, col]
        factor[np.arange(rs.size), top] = 0
        E[rs] = (E[rs] - factor[:, :, None] * row[:, None, :]) % p
        pivot[rs, col] = top
        rank[rs] += 1
    return E, rank, pivot


def _reductions(span, p):
    """(M, rank): for each (n, k) matrix of span over F_p, the k x k
    matrix M with v M the smallest element of v + its row space (column i
    the digit of p^i), and the rank of that space: the echelon runs from
    the top digit, so v M is zero at each row's highest nonzero column,
    where any nonzero vector of the space is first nonzero."""
    E, rank, pivot = _echelon(span[..., ::-1], p)
    R, _, k = E.shape
    M = np.broadcast_to(np.eye(k, dtype=np.int64), (R, k, k)).copy()
    r, col = np.nonzero(pivot >= 0)
    M[r, col] = (M[r, col] - E[r, pivot[r, col]]) % p
    return M[:, ::-1, ::-1], rank


def _reduction_table(M, p):
    """table[r p^k + u] = u M_r, with u and u M_r read as base-p numbers,
    built one digit of u at a time by the digitwise sum."""
    R, k, _ = M.shape
    weights = p ** np.arange(k)
    add = _digit_add(p, k)
    table = np.zeros((R, 1), dtype=np.int64)
    for i in range(k):
        table = np.concatenate(
            [add(table, (a * M[:, i] % p @ weights)[:, None])
             for a in range(p)], axis=1)
    return table.ravel()


class GroupTable:
    """An enumerated group with its right-regular table.

    ``rho`` is an (ngens, N) int32 array, generator-major: ``rho[c, x]``
    is the index of ``x * g_c`` for the c-th generator, so every action
    the counting layer needs is a gather on one row ``rho_g = rho[c]``
    and on ``inv``: x g = rho_g[x], g^-1 x = inv[rho_g[inv[x]]], and
    g^-1 x g composes the two.  ``mats`` is an (N, d, d) int32 array, or a
    function that builds it, called on the first read: the counting layer
    reads only ``rho``, ``inv`` and ``record``.  A table enumerated over
    its level below is derived from its ``record`` (``LiftRecord.table``)
    and keeps it, for its orbit labels, the level above and the disk
    cache; ``record`` is None for a table with no kernel.
    """

    def __init__(self, ring, mats, inv, rho, generators, name, record=None):
        self.ring = ring
        self.record = record
        self._mats = mats
        self.inv = inv  # (N,) int64 index of inverse
        self.rho = rho  # (ngens, N) int32: rho[c, x] is the index of x * g_c
        self.generators = generators  # list of (provenance, matrix)
        self.name = name
        # a table with no generators is the identity alone, built eagerly
        self.d = generators[0][1].shape[0] if generators else mats.shape[1]
        if record is not None and not (
                len(record.lifts) * record.nV == self.size
                and record.stride * len(record.residues) == len(record.lifts)
                == record.stride * len(record.adj)):
            raise IdentityError(f"the kernel coordinates of {name} do not "
                                f"fit its {self.size} elements")
        self._pack = _Packing(ring, self.d)
        # (sorted keys, their element indices), built on first use
        self._sorted = None
        self._labels = None
        self._columns = None

    @property
    def size(self):
        return self.rho.shape[1]

    @property
    def mats(self):
        """(N, d, d) int32, element x at row x."""
        if callable(self._mats):
            self._mats = self._mats()
        return self._mats

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

    # ------------------------------------------------------------------
    # actions as gathers on rho
    #
    # A take copies int32 indices to intp before it gathers, and fancy
    # indexing casts them in chunks.  The table- and node-sized gathers at
    # int32 indices (the output of a rho row) in inverse_times and _orbits
    # are fancy indexes, since that copy raised the peak memory of a class
    # count by 8 MB; the other gathers are takes, which are faster.

    def column(self, mat):
        """The rho row of the generator mat, or None for the identity,
        which acts trivially and has none; GroupsError for any other
        matrix.  The rows are found by one dict, built on first use."""
        if self._columns is None:
            self._columns = {encode_mat(g): c
                             for c, (_, g) in enumerate(self.generators)}
            self._columns[encode_mat(self.ring.identity_mat(self.d))] = None
        key = encode_mat(mat)
        if key not in self._columns:
            raise GroupsError(f"matrix {np.asarray(mat).tolist()} is not a "
                              f"generator of {self.name}")
        return self._columns[key]

    def columns(self, gens):
        """The rho row of each generator of a (provenance, matrix)
        generator list, ``Family.generators`` or a table's own
        ``generators``, by ``column``.

        Every family draws its generators from the same root, additive and
        unit lists, so a subgroup's generators are among this table's.  An
        identity generator acts trivially and gets no row.
        """
        cols = (self.column(g) for _, g in gens)
        return [c for c in cols if c is not None]

    def times(self, x, col):
        """x g for the element indices x and the generator g of rho row
        col."""
        return self.rho[col].take(x)

    def inverse_times(self, x, col):
        """g^-1 x, as inv[rho_g[inv[x]]]."""
        return self.inv[self.rho[col].take(self.inv.take(x))]

    def conjugate(self, x, col):
        """g^-1 x g, as rho_g[g^-1 x]."""
        return self.rho[col].take(self.inverse_times(x, col))

    # ------------------------------------------------------------------
    # conjugacy

    @staticmethod
    def _orbit_labels(n, perms):
        """Orbit label per point under the group the permutations generate.

        Hook and shortcut (Shiloach and Vishkin), on int32 parents: for
        each permutation p, every edge x -- p(x) whose ends have different
        parents hooks the larger parent onto the smaller, and one pointer
        jump right after each hook shortcuts every path (as in FastSV).
        Stop after a round over the permutations that hooks no edge: then
        the parent is the same along every edge, so it is one point r on
        each orbit, r in the orbit, and the orbit is a star rooted at r.
        A parent is never above its point and never rises, so r is the
        orbit's smallest point; labels number the orbits in that order.
        Every hook with its jump lowers some parent, the hook when the
        forest is flat and the jump when it is not, so the loop ends.  The
        hook is a fancy assignment: where a parent is hooked by several
        edges one of them wins, and each writes at most the old parent.
        The gathers are takes: on parents of a node count, they beat fancy
        indexing even with the copy of their int32 indices.
        """
        parent = np.arange(n, dtype=np.int32)
        hooked = True
        while hooked:
            hooked = False
            for p in perms:
                b = parent.take(p)
                cross = parent != b
                if cross.any():
                    hooked = True
                    a, b = parent[cross], b[cross]
                    high = np.maximum(a, b)
                    parent[high] = np.minimum(parent.take(high),
                                              np.minimum(a, b))
                    parent = parent.take(parent)
        roots = parent == np.arange(n, dtype=np.int32)
        return (np.cumsum(roots) - 1).take(parent)

    def _nodes(self, span):
        """(node, reps): the node of every element, nodes numbered by their
        smallest elements reps, ascending.

        The node of x = j |V| + v is (j, v reduced modulo the row space of
        span[r]), r = j // stride the residue of j: the orbit of x under the
        translations span[r] stands for, whose smallest element is
        j |V| + red[r, v].  Raises IdentityError unless every reduced v
        stands for the p^rank values of its coset and is at most each.
        """
        rec = self.record
        p, nV, R = rec.ring.p, rec.nV, rec.adj.shape[0]
        M, rank = _reductions(span, p)
        red = _reduction_table(M, p).reshape(R, nV)
        stands = np.bincount((red + np.arange(R)[:, None] * nV).ravel(),
                             minlength=R * nV).reshape(R, nV)
        if not (np.take_along_axis(stands, red, axis=1)
                == p ** rank[:, None]).all():
            raise IdentityError(f"a node of {self.name} is not a coset of "
                                f"its kernel translations")
        if not (red <= np.arange(nV)).all():
            raise IdentityError(f"a node of {self.name} is not numbered by "
                                f"its smallest element")
        n = self.size
        first = np.repeat(red.astype(np.int32), rec.stride, axis=0)
        first += np.arange(0, n, nV, dtype=np.int32)[:, None]
        first = first.ravel()
        reps = np.flatnonzero(first == np.arange(n))
        node = np.empty(n, dtype=np.int32)
        node[reps] = np.arange(reps.size)
        return node[first], reps

    def _orbits(self, span, moves):
        """Orbit label per element under the gather maps moves, (action,
        row) pairs that send nodes of span to nodes, span a function of
        the record; with no record every element is its own node.  Each
        move is evaluated at the node representatives only; one that fixes
        every node is dropped, and one that is not a permutation of the
        nodes raises IdentityError.  The nodes are numbered by their
        smallest elements, so each orbit is numbered by its smallest
        element."""
        if self.record is None:
            node = reps = np.arange(self.size)
        else:
            node, reps = self._nodes(span(self.record))
        nodes = np.arange(reps.size)
        perms = []
        for action, col in moves:
            perm = node[action(reps, col)]
            if np.array_equal(perm, nodes):
                continue
            seen = np.zeros(reps.size, dtype=bool)
            seen[perm] = True
            if not seen.all():
                raise IdentityError(f"a generator of {self.name} does not "
                                    f"permute its nodes")
            perms.append(perm)
        return self._orbit_labels(reps.size, perms)[node]

    def conjugation_labels(self):
        """Conjugacy-class label per element, each class numbered by its
        smallest element.

        The kernel K = I + pi^(m-1) V conjugates x = (I + pi^(m-1) X_v) s_j
        to (I + pi^(m-1) (X_v + w - Ad(r) w)) s_j, w in V, r the residue of
        s_j, since pi^(2(m-1)) = 0: its nodes are the cosets v + W_r,
        W_r = (1 - Ad r) V, and the classes are the orbits of x -> g^-1 x g
        on them.  A generator whose conjugation fixes every generator
        (their element indices are rho[:, 0], the products 1 g_c)
        commutes with the whole group and fixes every element, so it is
        skipped before any node is moved.
        """
        if self._labels is None:
            gens = self.rho[:, 0]
            moves = [(self.conjugate, c) for c in range(gens.size)
                     if not np.array_equal(self.conjugate(gens, c), gens)]
            self._labels = self._orbits(LiftRecord.conjugation_span, moves)
        return self._labels

    def class_count(self):
        return int(self.conjugation_labels().max()) + 1

    def commuting_pairs(self):
        """#{(x,y) : xy = yx} by direct scan (independent of orbits)."""
        n = self.size
        check_pair_scan(n)
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

    def subgroup_indices(self, gens):
        """Sorted indices of the subgroup that a generator list generates in
        this table: a breadth-first search from the identity over the rho
        rows of its generators (``columns``), so the subgroup is an index
        set of this table and never a table of its own.  Each layer keeps
        one occurrence of each new element, the one whose position its
        slot in ``last`` holds, so no layer is sorted."""
        rows = [self.rho[c] for c in self.columns(gens)]
        seen = np.zeros(self.size, dtype=bool)
        seen[0] = True  # generate puts the identity first
        last = np.empty(self.size, dtype=np.int32)
        frontier = np.zeros(1, dtype=np.int32)
        while frontier.size:
            # frontier[:0] stands in for the rows of an empty generator list
            nxt = np.concatenate([frontier[:0]]
                                 + [row.take(frontier) for row in rows])
            nxt = nxt[~seen[nxt]]
            at = np.arange(nxt.size, dtype=np.int32)
            last[nxt] = at
            frontier = nxt[last[nxt] == at]
            seen[frontier] = True
        return np.flatnonzero(seen)

    def double_coset_labels(self, gens1, gens2, idx1=None, idx2=None):
        """Double-coset label per element, each numbered by its smallest
        element: the orbits of x -> g1^-1 x and x -> x g2 for g1 in the
        generator list gens1 of Q1 and g2 in gens2 of Q2.  They are
        labelled on nodes: K_1 x K_2, K_i the kernel part of Q_i with
        coordinates V_i, moves v by V_1 + Ad(r) V_2, r the residue of x.
        idx1 and idx2, the indices of Q1 and Q2, are found when not given."""
        idx1 = self.subgroup_indices(gens1) if idx1 is None else idx1
        idx2 = self.subgroup_indices(gens2) if idx2 is None else idx2
        moves = [(self.inverse_times, c) for c in self.columns(gens1)]
        moves += [(self.times, c) for c in self.columns(gens2)]
        return self._orbits(lambda rec: rec.double_coset_span(idx1, idx2),
                            moves)

    def double_coset_data(self, gens1, gens2):
        """(b, e, |Q1|, |Q2|) for the subgroups Q1 and Q2 that the generator
        lists gens1 and gens2 generate in this table.

        b is the number of double-coset labels; e = #{(x,y): y in Q2,
        x y x^{-1} in Q1} comes from the conjugacy labels, so the
        identity e = b|Q1||Q2| checks two orbit partitions against each
        other.  Both are labelled on nodes of the same kernel; the
        matrix-product checks (``commuting_pairs``, ``pair_depth_counts``)
        stay independent of them.
        """
        idx1 = self.subgroup_indices(gens1)
        idx2 = self.subgroup_indices(gens2)
        labels = self.double_coset_labels(gens1, gens2, idx1, idx2)
        b = int(labels.max()) + 1
        e = self.hecke_pairs(idx1, idx2)
        return b, e, idx1.size, idx2.size

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

    def pair_depth_counts(self):
        """histogram[k] = #{(x,y) : w(x,y) >= k} for 0 <= k <= m.
        RingError on ``zn``, which has no valuation, before any product."""
        if self.ring.VAL is None:
            raise RingError(f"valuation undefined on {self.ring.literal}")
        n = self.size
        check_pair_scan(n)
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
    starts from the x with rho[c, x] = 0 and follows the tree, as
    (g_c^-1 parent(y)) g_letter(y); then x^-1 = g^-1 parent(x)^-1."""
    left = np.empty_like(rho)  # left[c, y] = g_c^-1 y
    for c, row in enumerate(left):
        to_one = np.flatnonzero(rho[c] == 0)
        if not to_one.size:
            raise GroupsError(f"generator {c} never reaches the identity")
        row[0] = to_one[0]
        for lo, hi in layers[1:]:
            row[lo:hi] = rho[letter[lo:hi], row[parent[lo:hi]]]
    inv = np.zeros(rho.shape[1], dtype=np.int64)
    for lo, hi in layers[1:]:
        inv[lo:hi] = left[letter[lo:hi], inv[parent[lo:hi]]]
    if not (inv[inv] == np.arange(inv.size)).all():
        raise IdentityError("the derived inverse map is not an involution")
    return inv


class _KeyIndex:
    """Element ids by packed keys, the route of level-1 and ``zn`` tables
    (and of ``generate`` called without ``lower``, the oracle that tests
    compare the kernel route with).

    Every product x * g of the frontier is formed, and the keys of the
    elements found so far are kept as sorted runs of (keys, ids).  The last
    two runs are merged while the older is at most twice the newer, so each
    run is more than twice the next, there are at most log2(N) + 1 runs,
    and a key's run grows 1.5-fold at each merge it takes part in.  Each
    piece's keys are sorted and looked up in every run; new keys are
    numbered in the order they first occur.  Every product is compared
    entry by entry with the element it is filed as, so a key collision
    raises IdentityError and never merges two matrices.
    """

    def __init__(self, ring, gen_mats, d, name):
        self.ring, self.gen_mats, self.d, self.name = ring, gen_mats, d, name
        self.pack = _Packing(ring, d)
        self.runs = [(self.pack(ring.identity_mat(d)[None]),
                      np.zeros(1, dtype=np.int32))]
        # the first `size` rows are the elements found so far
        self.mats = ring.identity_mat(d)[None]
        self.per = max(1, PIECE // d**3)  # products of one piece

    def file(self, rows, c0, c1, size):
        """(ids, fresh): the element id of every product of the elements
        in the slice rows with the generators c0..c1-1, generator-major,
        new elements numbered from size, and the positions of the new
        elements' first occurrences, ascending."""
        d = self.d
        prod = self.ring.mat_mul(
            self.mats[None, rows], self.gen_mats[c0:c1, None]
        ).reshape(-1, d, d)
        keys = self.pack(prod)
        # the distinct keys, ascending, each with its first occurrence
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        head = np.ones(ks.shape[0], dtype=bool)
        np.not_equal(ks[1:], ks[:-1], out=head[1:])
        ukeys, first = ks[head], order[head]
        uid = np.zeros(ukeys.shape[0], dtype=np.int64)
        old = np.zeros(ukeys.shape[0], dtype=bool)
        for run_keys, run_ids in self.runs:
            pos, here = _sorted_lookup(run_keys, ukeys)
            uid[here] = run_ids[pos[here]]
            old |= here
        new = np.flatnonzero(~old)
        fresh = new[np.argsort(first[new])]
        uid[fresh] = np.arange(size, size + fresh.size)
        if new.size:
            self.runs.append((ukeys[new], uid[new].astype(np.int32)))
            while (len(self.runs) > 1
                   and self.runs[-2][0].size <= 2 * self.runs[-1][0].size):
                self.runs.append(_merge(self.runs.pop(), self.runs.pop()))
        ids = np.empty(keys.shape[0], dtype=np.int64)
        ids[order] = uid[np.cumsum(head) - 1]
        self.mats = _room(self.mats, size, size + fresh.size)
        self.mats[size:size + fresh.size] = prod[first[fresh]]
        if not (self.mats[ids] == prod).all():
            raise IdentityError(f"two matrices of {self.name} share a key")
        return ids, first[fresh]

    def matrices(self, size):
        """The matrices of the first size elements, as filed."""
        return self.mats[:size].copy() if self.mats.shape[0] > size \
            else self.mats


def _kernel_basis(ring, kernel):
    """The reduced echelon F_p-basis, as (k, d*d*f) digit rows, of V, the
    span of the top digits D(k) = X over the kernel generators
    k = I + pi^(m-1) X (D(I) = 0 at level m >= 2)."""
    A = ring.top_digits()[np.asarray(kernel)].reshape(len(kernel), -1)
    E, rank, _ = _echelon(A[None], ring.p)
    return E[0, :rank[0]].astype(A.dtype)


def _residue_data(lower):
    """(stride, residues, inverse_residues): the residue class of lower
    element j is its level-1 ancestor j // stride, residues[r] is the
    matrix of class r and inverse_residues[r] that of the inverse of its
    first element r stride, read off the record of a table with one.
    GroupsError for a table above level 1 with no record: no id blocks."""
    rec = lower.record
    if rec is None:
        if lower.ring.m > 1:
            raise GroupsError(f"{lower.name} has no lift record: enumerate "
                              f"it over its own level below")
        return 1, lower.mats, lower.mats[lower.inv]
    stride = rec.stride * rec.nV
    return (stride, rec.residues,
            rec.residues[lower.inv[::stride] // stride])


def _times_residues(ring, rows, residues):
    """The digit rows of X s, X the d x d matrix over F_q that a digit row
    of rows reads as and s a residue matrix: rows (..., d*d*f) and
    residues (..., d, d) broadcast like np.matmul, by one level-1
    ``mat_mul``.  A level-1 element is the base-p number of its digits."""
    p, f, d = ring.p, ring.f, residues.shape[-1]
    one = ring.subring_level(1)
    X = rows.reshape(rows.shape[:-1] + (d, d, f))
    A = X[..., f - 1].astype(np.int32)
    for j in range(f - 2, -1, -1):
        A = A * p + X[..., j]
    prods = one.mat_mul(A, residues)
    # with f = 1 an element is its own digit
    digits = prods[..., None] if f == 1 \
        else one.top_digits().take(prods, axis=0)
    return digits.reshape(prods.shape[:-2] + (-1,))


def _distinct(keys, size):
    """(vals, at): the distinct values of an array of keys below size,
    ascending, and where each key is among them, vals[at] == keys; by a
    mark per value, with no sort."""
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[keys]


def _digit_add(p, k):
    """v, c -> the base-p digitwise sum mod p of arrays of numbers below
    p^k: xor when p = 2, else lookups in a table of the sums of groups of
    h digits, with p^(2h) at most 2^16."""
    if p == 2:
        return np.bitwise_xor
    h = 1
    while h < k and p ** (2 * h + 2) <= 1 << 16:
        h += 1
    w = p**h
    digits = np.arange(w)[:, None] // p ** np.arange(h) % p
    table = ((digits[:, None] + digits[None]) % p @ p ** np.arange(h)).ravel()

    def add(v, c):
        if h == k:
            return table.take(v * w + c)
        out = 0
        for lo in range(0, k, h):
            s = p**lo
            out = out + table.take(v // s % w * w + c // s % w) * s
        return out

    return add


def _digit_rows(basis, p):
    """rows[v], int8: the digit row of X_v = sum_i v_i B_i over the basis
    rows B_i, v in base p, built one coordinate at a time."""
    rows = np.zeros((1, basis.shape[1]), dtype=np.int8)
    for b in basis:
        rows = np.concatenate([(rows + (a * b % p).astype(np.int8)) % p
                               for a in range(p)])
    return rows


def _kernel_matrices(ring, rows, d):
    """I + pi^(m-1) X for the digit rows of X, as (n, d, d) index
    matrices; I has top digits 0 at m >= 2, so adding cannot carry."""
    scal = np.array(ring.kernel_scalars(), dtype=np.int32)
    return ring.identity_mat(d) + rows.reshape(len(rows), d, d, -1) @ scal


def _matrices(ring, lifts, basis):
    """Every matrix of a table enumerated over its level below: element
    j |V| + v is (I + pi^(m-1) X_v) s_j, one ``mat_mul`` of the |V| kernel
    matrices and the lifts of each piece of whole fibres."""
    L, d, _ = lifts.shape
    kernel = _kernel_matrices(ring, _digit_rows(basis, ring.p), d)
    mats = np.empty((L, len(kernel), d, d), dtype=np.int32)
    step = max(1, PIECE // d**3 // len(kernel))
    for lo in range(0, L, step):
        mats[lo:lo + step] = ring.mat_mul(kernel, lifts[lo:lo + step, None])
    return mats.reshape(-1, d, d)


class LiftRecord:
    """What a level m >= 2 table over its level below is derived from:
    O(|G_(m-1)|) arrays, against the |G_(m-1)| |V| rows of the table.

    G(R_m) -> G(R_{m-1}) has the abelian kernel I + pi^(m-1) V, V with the
    reduced echelon basis B_0..B_(k-1) (``basis``, digit rows), and the
    element x = (I + pi^(m-1) X_v) s_j has the id j |V| + v, v the base-p
    coordinates of X_v.  The record holds the lifts s_j (``lifts``); the
    lower rho row of each generator g (``maps[g]``) and the cocycles
    coc[g, j], s_j g = (I + pi^(m-1) X_c) s_(maps[g][j]) with c = coc[g, j];
    the lower inverses (``lower_inv``) and the cocycles e[j] of
    s_j s_(lower_inv[j]) = I + pi^(m-1) X_e; the residue matrices
    (``residues``), r that of the level-1 element r, which lower j is over
    for r = j // stride (|G_(m-1)| / |G_1|); and Ad(r) on V for each r
    (``adj``: row i of adj[r] holds the coordinates of Ad(r) B_i =
    r B_i r^-1).  A table and the record are fixed by a Schreier
    transversal and its cocycles.  The record is also the table's kernel
    description for orbit labelling (the spans below) and what the level
    above reads the table by: its residue classes and the coordinates its
    lifts are checked with.

    ``table`` is the one route from a record to its GroupTable, for a
    fresh enumeration and a disk-cache hit alike: ``rho`` by a broadcast,
    the inverses by the kernel formula with an involution check, and the
    matrices by ``_matrices`` when first read, so a store never builds
    them.
    """

    ARRAYS = ("lifts", "coc", "maps", "e", "lower_inv", "residues", "adj",
              "basis")

    def __init__(self, ring, lifts, coc, maps, e, lower_inv, residues, adj,
                 basis):
        self.ring = ring
        self.lifts, self.coc, self.maps, self.e, self.lower_inv, \
            self.residues, self.basis = (
                np.asarray(a, dtype=np.int32) for a in
                (lifts, coc, maps, e, lower_inv, residues, basis))
        self.adj = np.asarray(adj, dtype=np.int8)
        self.stride = len(self.lifts) // len(self.residues)
        self.k = self.basis.shape[0]
        self.nV = ring.p**self.k
        self.digit_add = _digit_add(ring.p, self.k)

    def arrays(self):
        return {key: getattr(self, key) for key in self.ARRAYS}

    def rho(self):
        """rho[g, j |V| + v] = maps[g][j] |V| + (v + c(j, g)): one gather
        of the rows v -> v + c of the distinct cocycle values c, which
        lays rho out generator-major as it is, and an add."""
        vals, at = _distinct(self.coc, self.nV)
        rows = self.digit_add(vals[:, None], np.arange(self.nV)) \
            .astype(np.int32)
        rho = rows.take(at, axis=0)  # (ngens, j, v)
        rho += self.maps[:, :, None] * np.int32(self.nV)
        return rho.reshape(rho.shape[0], -1)

    def inverses(self, name):
        """inv[j |V| + v] = j' |V| + u: with j' = lower_inv[j], r the
        residue j' // stride and s_j s_j' = I + pi^(m-1) X_e,
        x^-1 = s_j' (I - pi^(m-1) X_e)
        (I - pi^(m-1) X_v) = (I - pi^(m-1) Ad(r) (X_e + X_v)) s_j', so u is
        -(e + v) Ad(r): one gather of the rows v -> u of the distinct
        pairs (r, e).  The result must be an involution."""
        nV, p, jp = self.nV, self.ring.p, self.lower_inv
        pairs, at = _distinct((jp // self.stride).astype(np.int64) * nV
                              + self.e,
                              self.adj.shape[0] * nV)
        r, e = np.divmod(pairs, nV)
        neg = _reduction_table(-self.adj.astype(np.int64) % p, p) \
            .reshape(-1, nV)
        rows = np.take_along_axis(
            neg[r], self.digit_add(e[:, None], np.arange(nV)), axis=1)
        inv = rows.take(at, axis=0)
        inv += jp[:, None].astype(np.int64) * nV
        inv = inv.ravel()
        if not (inv[inv] == np.arange(inv.size)).all():
            raise IdentityError(f"the derived inverse map of {name} "
                                f"is not an involution")
        return inv

    def kernel_span(self, idx):
        """The reduced echelon basis, (k', k), of the v with (0, v) among
        the element indices idx: V_P for the elements of a subgroup P."""
        p = self.ring.p
        digits = idx[idx < self.nV, None] // p ** np.arange(self.k) % p
        E, rank, _ = _echelon(digits[None], p)
        return E[0, :rank[0]]

    def conjugation_span(self):
        """(R, k, k): the rows of 1 - Ad(r), spanning W_r = (1 - Ad r) V,
        by which K moves v under conjugation."""
        return (np.eye(self.k, dtype=np.int64) - self.adj) % self.ring.p

    def double_coset_span(self, idx1, idx2):
        """(R, k1 + k2, k): bases of V_1 and of Ad(r) V_2, spanning the
        translations of v by the kernel parts of the subgroups with element
        indices idx1 and idx2."""
        V1, V2 = self.kernel_span(idx1), self.kernel_span(idx2)
        return np.concatenate([
            np.broadcast_to(V1, (self.adj.shape[0],) + V1.shape),
            V2 @ self.adj % self.ring.p,
        ], axis=1)

    def matrices(self):
        return _matrices(self.ring, self.lifts, self.basis)

    def table(self, generators, name):
        """The GroupTable, its matrices left to be rebuilt on first read."""
        return GroupTable(self.ring, self.matrices, self.inverses(name),
                          self.rho(), generators, name, self)


class _Coordinates:
    """The v with prod = (I + pi^(m-1) X_v) s_J, for products over the
    lifts s_J of a level m >= 2, checked in digit space: the enumeration
    reads its cocycles with it, and the level above its lifts over a
    record.  With y = D(prod) - D(s_J), D the top digits, prod - s_J must
    be y scal entrywise (an index is its digits below pi^(m-1) plus D scal
    with no carry, so every lower digit agrees), and z = (y mod p) s_r^-1,
    s_r^-1 the inverse residue of J, the digit row of X_v, v read at the
    pivots of V: with checked inverse residues, exactly when prod is
    (I + pi^(m-1) X_v) s_J."""

    def __init__(self, ring, lifts, stride, inverse_residues, basis):
        self.ring, self.p, self.stride = ring, ring.p, stride
        self.lifts, self.inverse_residues = lifts, inverse_residues
        self.basis = basis
        self.top = ring.top_digits().astype(np.int8)
        self.scal = np.array(ring.kernel_scalars(), dtype=np.int32)
        self.rows = _digit_rows(basis, ring.p)
        # the leading 1 of each row of the reduced echelon basis
        self.pivots = (basis != 0).argmax(axis=1)

    def read(self, prod, J):
        """(v, ok): the coordinates of each product over the lift s_J, and
        whether every product passes the digit check."""
        p = self.p
        low = self.lifts.take(J, axis=0)
        y = self.top.take(prod, axis=0) - self.top.take(low, axis=0)
        low -= prod  # s_J - prod + y scal, 0 iff every lower digit agrees
        for j, u in enumerate(self.scal):
            low += y[..., j] * u
        off = low.any()
        del low  # not held through the level-1 product
        y += (y < 0) * np.int8(p)  # mod p, y in (-p, p)
        inv = self.inverse_residues.take(J // self.stride, axis=0)
        z = _times_residues(self.ring, y.reshape(len(J), -1), inv)
        v = z[:, self.pivots] @ p ** np.arange(self.pivots.size)
        return v, not off and (z == self.rows.take(v, axis=0)).all()


class _KernelIndex(_Coordinates):
    """The enumeration of a level m >= 2 table over ``lower``, the
    level-(m-1) table of the same family: it forms and checks the products
    that fix the table's ``LiftRecord``, with no search at level m, and
    is dropped once the record is made; the coordinates it reads are over
    its own lifts.

    V is the F_p-span of the top pi-adic digits of the kernel generators.
    ``_lift`` runs a BFS over the lower table, moving on lower indices
    with ``maps[g]`` (the lower rho row of the projection of g): the
    first level-m product s_j g over a new lower element J is its lift
    s_J (s_0 = I), and every product gives the cocycle c(j, g),
    s_j g = (I + pi^(m-1) X_c) s_J, read and checked by ``_Coordinates``.
    A lower table with a record is read through it, residues and lift
    check alike; its matrices are read only where ``maps`` looks a
    product up.

    By Schreier's lemma the generated group meets the kernel in the span
    of the cocycles, so it fills every id j |V| + v when their rank is k
    and every lower element is lifted.  Since pi^(2(m-1)) = 0,
    x g = (I + pi^(m-1) (X_v + X_c)) s_J, so the record fixes ``rho``; the
    inverse cocycles come from one checked product s_j s_j' per lower
    element (``_inverse_cocycles``), and Ad(r) on V for every residue r
    from |R| k more (``_adjoint``).
    """

    def __init__(self, ring, gen_mats, lower, kernel, name, cap):
        d = gen_mats.shape[1]
        low = ring.subring_level(ring.m - 1)
        if lower.ring is not low or lower.d != d:
            raise GroupsError(f"{lower.name} is not a level-{low.m} table "
                              f"for {name}")
        self.name, basis = name, _kernel_basis(ring, kernel)
        self.k = basis.shape[0]
        self.nV = ring.p**self.k
        if lower.size * self.nV > cap:
            raise TooLarge(f"group {name} exceeded cap: its {lower.size} "
                           f"lower elements times |V| = {self.nV} give "
                           f"{lower.size * self.nV} elements, so enumeration "
                           f"would reach {cap + 1}")
        stride, self.residues, inverse_residues = _residue_data(lower)
        one = ring.subring_level(1)
        if not (one.mat_mul(self.residues, inverse_residues)
                == one.identity_mat(d)).all():
            raise IdentityError(f"an inverse residue of {name} is wrong")
        # the map j -> proj(s_j g) of each generator g on the lower table:
        # the lower rho row of the projection, or its products looked up
        # where the projection is no lower generator
        per = self.per = max(1, PIECE // d**3)  # products of one piece
        self.maps = np.empty((len(gen_mats), lower.size), dtype=np.int32)
        for g, row in zip(gen_mats, self.maps):
            gp = ring.mat_project(g, low.m)
            try:
                c = lower.column(gp)
            except GroupsError:
                row[:] = np.concatenate([
                    lower.lookup_batch(low.mat_mul(lower.mats[r:r + per], gp))
                    for r in range(0, lower.size, per)
                ])
                continue
            row[:] = np.arange(lower.size) if c is None else lower.rho[c]
        super().__init__(ring, np.zeros((lower.size, d, d), dtype=np.int32),
                         stride, inverse_residues, basis)
        self._lift(ring, gen_mats, lower)

    def _lift(self, ring, gen_mats, lower):
        """The lifts s_j and the cocycles coc[g, j] = c(j, g), by a BFS over
        the lower table: the only products formed apart from the |R| k of
        ``_adjoint`` and the |G_(m-1)| of ``_inverse_cocycles``.  Raises
        GroupsError unless the generators fill every id."""
        ngens, d = gen_mats.shape[:2]
        self.lifts[0] = ring.identity_mat(d)
        lifted = np.zeros(lower.size, dtype=bool)
        lifted[0] = True
        self.coc = np.zeros((ngens, lower.size), dtype=np.int32)
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            found = []
            for c0, c1, r0, r1 in _pieces(ngens, frontier.size, self.per):
                rows = frontier[r0:r1]
                prod = ring.mat_mul(
                    self.lifts[None, rows], gen_mats[c0:c1, None]
                ).reshape(-1, d, d)
                J = np.concatenate([self.maps[c][rows] for c in range(c0, c1)])
                # the first product over each new lower element is its lift
                new = np.flatnonzero(~lifted[J])
                new = new[np.unique(J[new], return_index=True)[1]]
                lifted[J[new]] = True
                self.lifts[J[new]] = prod[new]
                found.append(J[new])
                self.coc[c0:c1, rows] = \
                    self._cocycles(prod, J).reshape(c1 - c0, r1 - r0)
            frontier = np.concatenate([frontier[:0]] + found)
        if not lifted.all():
            raise GroupsError(f"the generators of {self.name} reach "
                              f"{lifted.sum()} of the {lower.size} elements "
                              f"of {lower.name}")
        self._check_lifts(lower)
        # Schreier's lemma: the group meets the kernel in the span of the
        # cocycles, the values s_j g s_J^-1 on the transversal of lifts
        p, k = self.p, self.k
        values = _distinct(self.coc, self.nV)[0]
        rank = _echelon((values[:, None] // p ** np.arange(k) % p)[None],
                        p)[1][0]
        if rank < k:
            raise GroupsError(f"the generators of {self.name} meet the kernel "
                              f"in F_p-rank {rank}, not {k}")

    def _check_lifts(self, lower):
        """IdentityError unless each lift s_j lies over the lower element
        j: proj(s_j) must read as (I + pi^(m-2) X_v') s'_J' with the
        coordinates of the lower record, j = J' |V'| + v', or equal the
        stored matrix of a lower table with no record."""
        low, rec, per = lower.ring, lower.record, self.per
        proj = self.ring.mat_project(self.lifts, low.m)
        if rec is None:
            over = (proj == lower.mats).all()
        else:
            read = _Coordinates(low, rec.lifts, rec.stride,
                                self.inverse_residues, rec.basis).read
            J, v = np.divmod(np.arange(lower.size), rec.nV)
            over = True
            for lo in range(0, lower.size, per):
                got, ok = read(proj[lo:lo + per], J[lo:lo + per])
                over = over and ok and (got == v[lo:lo + per]).all()
        if not over:
            raise IdentityError(f"a lift of {self.name} is not over its "
                                f"lower element")

    def _adjoint(self):
        """(R, k, k) int8: row i of adj[r] holds the coordinates of
        Ad(r) B_i = r B_i r^-1, as the cocycle of the product
        s_J (I + pi^(m-1) B_i) = (I + pi^(m-1) r B_i r^-1) s_J over s_J,
        J = r stride the first element of residue r; ``_cocycles`` checks
        every product.  The |R| k products are formed and read ``per`` at
        a time."""
        p, k, per = self.p, self.k, self.per
        units, d = p ** np.arange(k), self.lifts.shape[-1]
        basis = _kernel_matrices(self.ring, self.basis, d)
        R = len(self.residues)
        J = np.repeat(np.arange(R) * self.stride, k)
        i = np.tile(np.arange(k), R)
        v = np.concatenate([
            self._cocycles(self.ring.mat_mul(self.lifts[J[lo:lo + per]],
                                             basis[i[lo:lo + per]]),
                           J[lo:lo + per])
            for lo in range(0, J.size, per)])
        return (v[:, None] // units % p).reshape(-1, k, k).astype(np.int8)

    def _cocycles(self, prod, J):
        """``read``, raising IdentityError unless every product passes."""
        v, ok = self.read(prod, J)
        if not ok:
            raise IdentityError(
                f"a product of {self.name} lies off its kernel coordinates")
        return v

    def _inverse_cocycles(self, lower):
        """e[j], s_j s_j' = I + pi^(m-1) X_e for j' = lower.inv[j]: the
        |G_(m-1)| products, each checked by ``_cocycles``."""
        L, per = self.lifts.shape[0], self.per
        jp = lower.inv
        return np.concatenate([
            self._cocycles(
                self.ring.mat_mul(self.lifts[lo:lo + per],
                                  self.lifts[jp[lo:lo + per]]),
                np.zeros(min(L, lo + per) - lo, dtype=np.int64))
            for lo in range(0, L, per)])

    def record(self, lower):
        adj = self._adjoint()
        return LiftRecord(self.ring, self.lifts, self.coc, self.maps,
                          self._inverse_cocycles(lower), lower.inv,
                          self.residues, adj, self.basis)


def generate(ring, generators, cap=ENUM_CAP, name="G", lower=None,
             kernel=None, d=1):
    """The group the generator list generates, as a GroupTable.

    generators: list of (provenance, matrix), deduplicated and sorted by
    canonical encoding; d is the matrix size of an empty list, whose group
    is the identity alone.  With ``lower``, the level-(m-1) table, and
    ``kernel``, generators of the kernel of G(R_m) -> G(R_{m-1}), the
    elements are numbered by kernel slot with no search (``_KernelIndex``):
    the generators must fill every slot (GroupsError otherwise), and
    TooLarge is raised before any level-m product when |G_{m-1}| |V|
    passes the cap.  ``Family.table`` and ``cache.table_for`` give every
    ``zq`` and ``fqt`` level m >= 2 its lower table.

    Without ``lower`` the enumeration is breadth-first by packed keys
    (``_KeyIndex``), the route of level-1 and ``zn`` tables and the oracle
    that tests compare the kernel route with.  Each layer files its
    products x * g generator-major (the whole frontier times g_0, then
    times g_1, ...), in pieces, under the id of their element; new
    elements are numbered in the order they first occur, so two runs
    produce identical tables.  All N * ngens products are formed and
    checked against the element each is filed as; their ids are rho, and
    the inverses are gathers on rho along the search tree
    (``_inverses``).  Raises TooLarge in the piece that finds the
    (cap + 1)-th element.
    """
    gens = _canonical_generators(generators)
    d = gens[0][1].shape[0] if gens else d
    gen_mats = np.array([g for _, g in gens], dtype=np.int32) \
        .reshape(-1, d, d)
    if lower is not None:
        return _KernelIndex(ring, gen_mats, lower, kernel, name, cap) \
            .record(lower).table(gens, name)
    index = _KeyIndex(ring, gen_mats, d, name)
    ngens = len(gens)
    # element x > 0 is parent[x] * gen_mats[letter[x]]
    parent, letter = [np.zeros(1, np.int64)], [np.zeros(1, np.int64)]
    size, lo = 1, 0
    rho, layers = [], []
    while lo < size:
        # the frontier is lo..size-1, the elements the last layer found
        width = size - lo
        block = np.empty((ngens, width), dtype=np.int32)  # generator-major
        for c0, c1, r0, r1 in _pieces(ngens, width, index.per):
            ids, fresh = index.file(slice(lo + r0, lo + r1), c0, c1, size)
            if size + fresh.size > cap:
                raise TooLarge(f"group {name} exceeded cap: reached {cap + 1}")
            col, row = np.divmod(fresh, r1 - r0)
            parent.append(lo + r0 + row)
            letter.append(c0 + col)
            size += fresh.size
            block[c0:c1, r0:r1] = ids.reshape(c1 - c0, r1 - r0)
        rho.append(block)
        layers.append((lo, lo + width))
        lo += width
    rho = np.concatenate(rho, axis=1)
    inv = _inverses(rho, np.concatenate(parent), np.concatenate(letter),
                    layers)
    return GroupTable(ring, index.matrices(size), inv, rho, gens, name)


# ----------------------------------------------------------------------
# families


def has_tower(ring):
    """Whether tables over ring are enumerated over the level below."""
    return ring.kind != "zn" and ring.m >= 2


def _heisenberg_generators(ring, scalars=None):
    """e12(t), e23(t), e13(t) for t in scalars, by default the ring's
    additive generators."""
    gens = []
    for g in ring.additive_generators() if scalars is None else scalars:
        for pos, tag in (((0, 1), "e12"), ((1, 2), "e23"), ((0, 2), "e13")):
            mat = ring.identity_mat(3)
            mat[pos] = g
            gens.append(((tag, ring.element_str(g)), mat))
    return gens


def _chevalley_generators(cg, ring, roots, include_torus, scalars=None,
                          units=None):
    """x_v(t) for the roots v and t in scalars, then, with the torus,
    tau_b(u) for the simple roots b and u in units; by default the ring's
    additive and unit generators."""
    rs = cg.rs
    gens = []
    for v in roots:
        for t in ring.additive_generators() if scalars is None else scalars:
            gens.append(
                (("x", rs.root_name(v), ring.element_str(t)),
                 cg.x(ring, v, t))
            )
    if not include_torus:
        return gens
    for slot in range(rs.rank):
        for u in ring.unit_generators() if units is None else units:
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

    def __init__(self, text: str):
        self.text = text
        parts = text.split(":")
        self.kind = parts[0]
        self.include_torus = self.kind != "unipotent"
        if self.kind == "heisenberg":
            if len(parts) != 1:
                raise GroupsError(f"bad family literal {text!r}")
            self.system = None
            self.dim_scheme = self.d = 3
            return
        if self.kind not in (
            "chevalley", "unipotent", "borel", "torus", "parabolic", "rootset"
        ):
            raise GroupsError(f"unknown family kind {self.kind!r}")
        if len(parts) < 2:
            raise GroupsError(f"family literal {text!r} needs a system")
        self.system = parts[1]
        self.cg = chevalley_group(self.system)
        self.d = self.cg.dim  # the matrix size, also of an empty list
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
        self.dim_scheme = rs.rank + len(self.roots) if self.include_torus \
            else len(self.roots)

    def predicted_order(self, ring):
        """|G| by its order law, or None where none is used.

        Heisenberg: |R|^3.  Chevalley over O/p^m: |G(F_q)| q^((m-1) dim G)
        (Lemma 6.1); Z/n has no single q.
        """
        if self.kind == "heisenberg":
            return ring.size**3
        if self.kind == "chevalley" and ring.kind != "zn":
            return self.cg.point_count(ring.q) \
                * ring.q ** ((ring.m - 1) * self.dim_scheme)
        return None

    def generators(self, ring, scalars=None, units=None):
        """The (provenance, matrix) list the table over ring is generated
        by; a subgroup family's list also finds the subgroup inside the
        table of a larger family (``GroupTable.subgroup_indices``)."""
        if self.kind == "heisenberg":
            return _heisenberg_generators(ring, scalars)
        return _chevalley_generators(self.cg, ring, self.roots,
                                     self.include_torus, scalars, units)

    def kernel_generators(self, ring):
        """x_v(pi^(m-1) u) and tau_b(1 + pi^(m-1) u) (e_ij(pi^(m-1) u) for
        Heisenberg), u over the F_p-basis of F_q: matrices I + pi^(m-1) X
        whose X span V."""
        scalars = ring.kernel_scalars()
        units = [ring.add(ring.one, t) for t in scalars]
        return [g for _, g in self.generators(ring, scalars, units)]

    def check_cap(self, ring, cap):
        """TooLarge when predicted_order gives more than cap elements."""
        order = self.predicted_order(ring)
        if order is not None and order > cap:
            raise TooLarge(f"group {self.text}/{ring.literal} exceeded cap: "
                           f"its order law gives {order} elements, so "
                           f"enumeration would reach {cap + 1}")

    def table(self, ring, cap=ENUM_CAP, lower=None) -> GroupTable:
        """Enumerate the group over ring.  A tower level is enumerated over
        lower, the level-(m-1) table, itself enumerated first when not
        given.  The order law is checked before each level, so a cap that
        predicted_order refuses raises TooLarge before any product; a
        family with no order law is refused by the route, which checks
        |lower| |V| against the cap before any level-m product
        (``_KernelIndex``)."""
        name = f"{self.text}/{ring.literal}"
        self.check_cap(ring, cap)
        kernel = None
        if has_tower(ring):
            if lower is None:
                lower = self.table(ring.subring_level(ring.m - 1), cap)
            kernel = self.kernel_generators(ring)
        elif lower is not None:
            raise GroupsError(f"{name} is not enumerated over a lower level")
        return generate(ring, self.generators(ring), cap=cap, name=name,
                        lower=lower, kernel=kernel, d=self.d)

    def struct_hash(self):
        if self.kind == "heisenberg":
            return "heisenberg-3x3"
        return self.cg.struct_hash()

    def __repr__(self):
        return f"Family({self.text})"


def parabolic_depths(tables, subs):
    """lambda_S of every element of the top table tables[-1]: lam[i] is
    the largest k <= m with the level-k projection of element i in P_S.

    tables[k-1] is the level-k table of the top table's tower, and
    subs[k-1] the generator list of P_S over its ring.  A tower element
    j |V| + v lies over the lower element j, so the level-k projection of
    top element i is i // (|G_top| / |G_k|), looked up in a mask of
    ``subgroup_indices``.  Depth 0: not even the residue image is in P_S.
    """
    top = tables[-1]
    ids = np.arange(top.size)
    lam = np.zeros(top.size, dtype=np.int64)
    alive = np.ones(top.size, dtype=bool)
    for k, (G, gens) in enumerate(zip(tables, subs), start=1):
        member = np.zeros(G.size, dtype=bool)
        member[G.subgroup_indices(gens)] = True
        alive &= member[ids // (top.size // G.size)]
        lam[alive] = k
    return lam


def parabolic_depth_coset(x_idx, table, gens):
    """Lemma-style formula: max over y in P_S of min-val(y^{-1} x - I),
    P_S the subgroup the generator list gens generates in table."""
    ring = table.ring
    x = table.mats[x_idx]
    yinv = table.mats[table.inv[table.subgroup_indices(gens)]]
    prod = ring.mat_mul(yinv, x)
    delta = ring.mat_sub(prod, ring.identity_mat(table.d))
    vals = ring.mat_min_valuation(delta)
    return int(vals.max())
