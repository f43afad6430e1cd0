"""Truncated local rings (and Z/n) with table-backed exact arithmetic.

Three kinds of coefficient ring are supported, all finite:

* ``zq``  -- unramified mixed characteristic: Z[x]/(p^m, h(x)) with h monic of
  degree f, irreducible mod p.  Residue field F_q, q = p^f.  For f = 1 this is
  plain Z/p^m.
* ``fqt`` -- equal characteristic: F_q[t]/t^m.
* ``zn``  -- Z/n for composite n (no valuation; used for multiplicativity
  checks via the Chinese remainder theorem).

Elements are represented by their canonical integer index in ``range(size)``.
A ``zn`` index is the residue itself.  ``zq`` and ``fqt`` share one digit
model: with pi = p for ``zq`` and pi = t for ``fqt``, each element is
sum_{k<m, j<f} d_kj pi^k x^j with digits d_kj in [0, p), and its index is
the base-p number with digit d_kj at one position:

* ``W[k, j]``, the index of pi^k x^j, is p^(k + m j) for ``zq`` (the m
  base-p digits of the coefficient of x^j, then of x^(j+1), ...) and
  p^(f k + j) for ``fqt`` (the coefficient of t^k, a residue index, then
  that of t^(k+1), ...).  This is the only place the two kinds differ
  before + and x carry digits.
* ``DIGITS[a, k, j] = a // W[k, j] % p``, read-only int64.
* ``char``, the characteristic: p^m for ``zq``, p for ``fqt``, n for ``zn``.

The valuation is the first k with a nonzero digit row, the projection to
level k keeps rows k' < k against the level-k ``W``, and pi^(m-1) R is
spanned by ``W[m-1]``.

Elementwise arithmetic goes through precomputed numpy tables (ADD, MUL,
NEG, INV), which keeps matrix work over these rings vectorizable.

``Ring.mat_mul`` takes one of two routes:

* ``zq`` with f = 1 and ``zn``: one float64 BLAS product of the residues,
  exact because inner dim * (n-1)^2 < 2^53 under the table cap, then an
  integer remainder.
* every other ring (``fqt``, and Galois rings ``zq`` with f > 1): Kronecker
  substitution (``_Kronecker``).  An element sum c_ij t^i x^j (c_ij < P,
  P = p for ``fqt`` and p^m for ``zq``; t-degree i < m for ``fqt``, i = 0
  for ``zq``; x-degree j < f) becomes the integer with c_ij in its b-bit
  field number i(2f-1) + j.  One integer matrix product then holds, in
  field i(2f-1) + j, the coefficient of t^i x^j (j < 2f-1) of the product
  before reduction modulo h and P.  Each such coefficient is a sum of at
  most inner dim * T * f products of two digits below P (T = m for
  ``fqt``, 1 for ``zq``), and b is the bit length of
  inner dim * T * f * (P-1)^2, so no field reaches 2^b and none carries
  into the next.  The product is float64 BLAS when the whole of it
  stays below 2^53, else an int64 product, whose wrap mod 2^64 leaves the
  low 64 bits, and so every field below them, exact.  Lookup tables of at
  most 2^LUT_BITS entries, each reading a few whole fields, turn the
  fields back into ring indices; they also reduce mod P and fold x-degrees >= f by the
  fixed reduction modulo h.  When the kept fields need more than 64 bits,
  the fields are split into blocks of L with (2L-1) b <= 64 and the block
  products are summed; the common case is the same loop with one block.
"""

from __future__ import annotations

import functools

import numpy as np

RING_TABLE_CAP = 4096  # largest ring size we will build tables for
# widest group of product fields decoded by one lookup table: 4096 int32
# entries stay in the first-level cache (2^16 entries were no faster on
# fqt F2[t]/t^m and cost more peak memory)
LUT_BITS = 12


class RingError(ValueError):
    pass


class NotAUnit(RingError):
    pass


def _poly_rem_mod_p(a, b, p):
    # remainder of a by monic b over F_p
    a = list(a)
    db = len(b) - 1
    for da in range(len(a) - 1, db - 1, -1):
        lead = a[da]
        if lead:
            for j in range(db + 1):
                a[da - db + j] = (a[da - db + j] - lead * b[j]) % p
    a = a[:db] if db > 0 else [0]
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return tuple(a)


def _monic_polys(p, deg):
    for idx in range(p**deg):
        coeffs = []
        r = idx
        for _ in range(deg):
            coeffs.append(r % p)
            r //= p
        yield tuple(coeffs) + (1,)


def _is_irreducible(h, p):
    deg = len(h) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(p, d):
            if _poly_rem_mod_p(h, g, p) == (0,):
                return False
    return True


@functools.lru_cache(maxsize=None)
def find_modulus(p: int, f: int) -> tuple:
    """Lowest monic irreducible polynomial of degree f over F_p.

    "Lowest" means smallest constant-first coefficient tuple read as a
    little-endian base-p integer; the choice is deterministic and shared by
    the zq and fqt constructions so that residue fields agree.
    """
    for h in _monic_polys(p, f):
        if _is_irreducible(h, p):
            return h
    raise RingError(f"no irreducible modulus of degree {f} over F_{p}")


def _factor(n):
    """[(p, e), ...] with n = prod p^e, ascending primes, by trial
    division; [] for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


class Ring:
    """A finite coefficient ring with index-based table arithmetic."""

    def __init__(self, kind, p=None, f=None, m=None, n=None):
        self.kind = kind
        if kind in ("zq", "fqt"):
            if _factor(p) != [(p, 1)] or f < 1 or m < 1:
                raise RingError(f"bad parameters p={p}, f={f}, m={m}")
            self.p, self.f, self.m = p, f, m
            self.char = p**m if kind == "zq" else p
            self.q = p**f
            self.size = self.q**m
            self.n = None
            self.modulus = find_modulus(p, f)
        elif kind == "zn":
            if n is None or n < 2:
                raise RingError(f"bad modulus n={n}")
            self.n = self.char = n
            self.p = self.f = self.m = None
            self.q = None
            self.size = n
            self.modulus = None
        else:
            raise RingError(f"unknown ring kind {kind!r}")
        if self.size > RING_TABLE_CAP:
            raise RingError(
                f"ring of size {self.size} exceeds table cap {RING_TABLE_CAP}"
            )
        self.zero = 0
        self.one = 1 if self.size > 1 else 0
        self.W = self.DIGITS = None
        if self.p is not None:
            k, j = np.ogrid[:self.m, :self.f]
            self.W = p ** (k + m * j if kind == "zq" else f * k + j)
            self.DIGITS = np.arange(self.size)[:, None, None] // self.W % p
            self.DIGITS.setflags(write=False)
        self._build_tables()
        self._proj_tables = {}
        self._kronecker = {}
        self._unit_gens = None

    # ------------------------------------------------------------------
    # construction of the coefficient model and tables

    def _x_powers(self):
        """(2f-1, f) array: row j holds x^j reduced modulo h, with
        coefficients mod p^m for ``zq`` and mod p for ``fqt``."""
        P = self.char
        h = self.modulus
        cur = [1] + [0] * (self.f - 1)
        rows = []
        for _ in range(2 * self.f - 1):
            rows.append(cur)
            top = cur[-1]
            cur = [(c - top * hj) % P for c, hj in zip([0] + cur[:-1], h)]
        return np.array(rows, dtype=np.int64)

    def _build_tables(self):
        size = self.size
        if self.kind == "zn" or (self.kind == "zq" and self.f == 1):
            mod = self.char
            # int32 throughout, reduced in place: RING_TABLE_CAP bounds
            # every product by 4095^2 < 2^31
            idx = np.arange(size, dtype=np.int32)
            self.ADD = np.add.outer(idx, idx)
            self.ADD %= mod
            self.MUL = np.multiply.outer(idx, idx)
            self.MUL %= mod
            self.NEG = -idx % mod
            self._fast_mod = int(mod)
        else:
            self._build_poly_tables()
            self._fast_mod = None
        self._build_unit_tables()

    def _poly_digits(self):
        """(P, T, D) for ``zq`` and ``fqt``: column i*f + j of the (size,
        T*f) array D holds the coefficient, mod P, of t^i x^j (i < T, j < f)
        of each element; P = p^m and T = 1 for ``zq``, P = p and T = m for
        ``fqt``."""
        if self.kind == "zq":  # the coefficient of x^j: digit rows by p^k
            return self.char, 1, self.p ** np.arange(self.m) @ self.DIGITS
        return self.char, self.m, self.DIGITS.reshape(self.size, -1)

    def _build_poly_tables(self):
        """ADD, MUL and NEG of ``fqt`` and of Galois rings from the digits:
        sums digit by digit, products truncated at t^T, folded modulo h
        and reduced mod P; in pieces of rows, one digit plane at a time."""
        P, T, D = self._poly_digits()
        F, S, size = self.f, 2 * self.f - 1, self.size
        red = self._x_powers()  # row k reduces x^k modulo h
        weights = P ** np.arange(T * F, dtype=np.int64)
        self.NEG = ((-D) % P * weights).sum(axis=1).astype(np.int32)
        self.ADD = np.zeros((size, size), dtype=np.int32)
        self.MUL = np.zeros((size, size), dtype=np.int32)
        planes = np.ascontiguousarray(D.T, dtype=np.int32)
        chunk = max(1, (1 << 22) // (size * T * S))
        for lo in range(0, size, chunk):
            a = planes[:, lo:lo + chunk, None]
            add, mul = self.ADD[lo:lo + chunk], self.MUL[lo:lo + chunk]
            for c in range(T * F):
                add += (a[c] + planes[c]) % P * int(weights[c])
            conv = np.zeros((T, S) + add.shape, dtype=np.int32)
            for i1 in range(T):
                for i2 in range(T - i1):
                    for j1 in range(F):
                        for j2 in range(F):
                            conv[i1 + i2, j1 + j2] += \
                                a[i1 * F + j1] * planes[i2 * F + j2]
            conv %= P
            for i in range(T):
                for j in range(F):
                    c = sum(conv[i, k] * int(red[k, j])
                            for k in range(S) if red[k, j])
                    mul += c % P * int(weights[i * F + j])

    def _build_unit_tables(self):
        size = self.size
        idx = np.arange(size)
        if self.kind == "zn":
            g = np.gcd(idx, self.n)
            self.UNIT = g == 1
            self.VAL = None
            unit_count = int(self.UNIT.sum())
        else:
            self.VAL = self._valuation_table()
            self.UNIT = self.VAL == 0
            unit_count = self.q**self.m - self.q ** (self.m - 1)
            if int(self.UNIT.sum()) != unit_count:
                raise RingError(
                    f"{self.literal}: {int(self.UNIT.sum())} units, "
                    f"expected {unit_count}"
                )
        # inverses by raising to |units| - 1, vectorized square-and-multiply
        e = unit_count - 1
        acc = np.full(size, self.one, dtype=np.int32)
        cur = idx.astype(np.int32)
        while e:
            if e & 1:
                acc = self.MUL[acc, cur]
            cur = self.MUL[cur, cur]
            e >>= 1
        inv = np.where(self.UNIT, acc, -1).astype(np.int32)
        check = self.MUL[inv[self.UNIT], idx[self.UNIT]]
        if (check != self.one).any():
            raise RingError(f"{self.literal}: unit inverse table is wrong")
        self.INV = inv

    def _valuation_table(self):
        """The first digit row k that is nonzero, m for 0."""
        rows = self.DIGITS.any(axis=2)
        return np.where(rows.any(axis=1), rows.argmax(axis=1),
                        self.m).astype(np.int32)

    # ------------------------------------------------------------------
    # scalar operations (indices in, indices out)

    def add(self, a, b):
        return int(self.ADD[a, b])

    def neg(self, a):
        return int(self.NEG[a])

    def mul(self, a, b):
        return int(self.MUL[a, b])

    def pow(self, a, e):
        if e < 0:
            a, e = self.invert(a), -e
        acc, cur = self.one, a
        while e:
            if e & 1:
                acc = int(self.MUL[acc, cur])
            cur = int(self.MUL[cur, cur])
            e >>= 1
        return acc

    def is_unit(self, a):
        return bool(self.UNIT[a])

    def invert(self, a):
        if not self.UNIT[a]:
            raise NotAUnit(f"{self.element_str(a)} is not a unit in {self.literal}")
        return int(self.INV[a])

    def valuation(self, a):
        """t-adic / p-adic valuation, truncated so that v(0) = m."""
        if self.VAL is None:
            raise RingError(f"valuation undefined on {self.literal}")
        return int(self.VAL[a])

    def from_int(self, c):
        return c % self.char  # the prime-ring image sits in digit row 0

    def elements(self):
        return range(self.size)

    def units(self):
        return [int(i) for i in np.flatnonzero(self.UNIT)]

    # ------------------------------------------------------------------
    # canonical digit encoding

    def digits(self, a):
        """Little-endian base-p digit tuple; inverse of from_digits."""
        if self.DIGITS is None:
            raise RingError("zn elements are plain residues; no digit encoding")
        return tuple(a // self.p**e % self.p for e in range(self.m * self.f))

    def from_digits(self, digs):
        return sum(d * self.p**e for e, d in enumerate(digs))

    def element_str(self, a):
        if self.kind == "zn":
            return str(a)
        row = self.DIGITS[a]  # row k: the digits of pi^k
        if self.kind == "zq":  # coefficients of x^j in [0, p^m)
            coeffs = self.p ** np.arange(self.m) @ row
            const, term = "{}", "{}*x^{}"
        else:  # coefficients of t^i, as residue indices
            coeffs = row @ self.p ** np.arange(self.f)
            const, term = "[{}]", "[{}]*t^{}"
        terms = [(term if i else const).format(int(c), i)
                 for i, c in enumerate(coeffs) if c]
        return " + ".join(terms) or "0"

    # ------------------------------------------------------------------
    # levels and projections

    def subring_level(self, k):
        """The same ring family truncated at level k <= m."""
        if self.kind == "zn":
            raise RingError("zn has no level structure")
        if not 1 <= k <= self.m:
            raise RingError(f"level {k} out of range 1..{self.m}")
        return make_ring(self.kind, p=self.p, f=self.f, m=k)

    def project_table(self, k):
        """Index table sending each element to its level-k truncation."""
        if k in self._proj_tables:
            return self._proj_tables[k]
        low = self.subring_level(k)
        tab = (self.DIGITS[:, :k] * low.W).sum(axis=(1, 2)).astype(np.int32)
        if tab.min() < 0 or tab.max() >= low.size:
            raise RingError(
                f"{self.literal}: projection to level {k} leaves its range"
            )
        self._proj_tables[k] = tab
        return tab

    def top_digits(self):
        """(size, f) array: the F_p digits of each element's coefficient
        of pi^(m-1), in the digit order of the level-1 ring, so that
        adding pi^(m-1) u adds the digits of u modulo p."""
        return self.DIGITS[:, self.m - 1]

    def kernel_scalars(self):
        """pi^(m-1) u for u running through the F_p-basis x^j of the
        residue field: the F_p-basis of the ideal pi^(m-1) R."""
        return self.W[self.m - 1].tolist()

    # ------------------------------------------------------------------
    # generator selection (deterministic)

    def additive_generators(self):
        """Canonical generating set of the additive group (digit basis)."""
        if self.kind == "zn":
            return [1]
        # Z/p^m-module basis x^j for zq; every pi^k x^j for fqt, of char p
        return (self.W[0] if self.kind == "zq" else self.W.ravel()).tolist()

    def unit_generators(self):
        """Greedy minimal generating list for the unit group, ascending:
        each unit outside the span of the units before it is taken.
        Computed once per ring."""
        if self._unit_gens is None:
            span = np.zeros(self.size, dtype=bool)  # a subgroup H, as a mask
            span[self.one] = True
            spanned, target, gens = 1, int(self.UNIT.sum()), []
            for u in np.flatnonzero(self.UNIT):
                if spanned == target:
                    break
                if span[u]:
                    continue
                gens.append(int(u))
                # units commute, so <H, u> is the union of the cosets
                # H u^k, each new until u^k falls in H
                row, coset = self.MUL[u], np.flatnonzero(span)
                while True:
                    coset = row[coset]
                    if span[coset[0]]:
                        break
                    span[coset] = True
                    spanned += coset.size
            self._unit_gens = tuple(gens)
        return list(self._unit_gens)

    # ------------------------------------------------------------------
    # matrix helpers (index matrices, batched)

    def identity_mat(self, d):
        out = np.zeros((d, d), dtype=np.int32)
        np.fill_diagonal(out, self.one)
        return out

    def mat_from_int(self, M):
        return (np.asarray(M, dtype=np.int64) % self.char).astype(np.int32)

    def mat_mul(self, A, B):
        """Batched product of index matrices, broadcast like np.matmul;
        int32 result.  Z/n residues (``zn``, ``zq`` with f = 1) take one
        float64 BLAS product; every other ring takes ``_Kronecker``."""
        A = np.asarray(A)
        B = np.asarray(B)
        if self._fast_mod is not None:
            # RING_TABLE_CAP bounds mod by 4096, so inner dim * (mod-1)^2
            # < 2^53 for every inner dim below 5.3e8: float64 matmul (BLAS)
            # is exact here, and the integer remainder of the exact product
            # is much cheaper than fmod
            prod = np.matmul(A.astype(np.float64), B.astype(np.float64))
            return (prod.astype(np.int64) % self._fast_mod).astype(np.int32)
        k = A.shape[-1]
        plan = self._kronecker.get(k)
        if plan is None:
            plan = self._kronecker[k] = _Kronecker(self, k)
        return plan(A, B)

    def mat_add(self, A, B):
        return self.ADD[np.asarray(A), np.asarray(B)].astype(np.int32)

    def mat_sub(self, A, B):
        B = np.asarray(B)
        return self.ADD[np.asarray(A), self.NEG[B]].astype(np.int32)

    def mat_project(self, A, k):
        return self.project_table(k)[np.asarray(A)].astype(np.int32)

    def mat_min_valuation(self, A):
        """Entrywise minimum valuation, reduced over the last two axes."""
        if self.VAL is None:
            raise RingError(f"valuation undefined on {self.literal}")
        return self.VAL[np.asarray(A)].min(axis=(-1, -2))

    # ------------------------------------------------------------------

    @property
    def literal(self):
        if self.kind == "zn":
            return f"zn:n={self.n}"
        return f"{self.kind}:p={self.p},f={self.f},m={self.m}"

    def __repr__(self):
        return f"Ring({self.literal}, size={self.size})"

    def key(self):
        return (self.kind, self.p, self.f, self.m, self.n)


class _Kronecker:
    """Matrix products over a table ring with inner dimension k, by
    Kronecker substitution (see the module docstring).

    enc[u][a] is block u of the integer that encodes element a.  Product
    fields are decoded by groups: (shift, mask, mod, lut, acc) reads the
    group's whole fields at `shift`, reduces a single field wider than
    LUT_BITS mod P first, and looks up the ring index of the group's
    contribution.  Contributions that touch disjoint coefficients are
    summed as integers in the same accumulator; accumulators meet through
    the ring's ADD table.  For ``fqt`` with f = 1 every field has its own
    coefficient, so there is one accumulator.
    """

    def __init__(self, ring, k):
        P, T, digits = ring._poly_digits()
        F = ring.f
        S = 2 * F - 1  # fields per t-degree: x-degrees 0 .. 2f-2
        n = T * S  # fields kept: t-degrees below T
        b = (k * T * F * (P - 1) ** 2).bit_length()
        L = n if n * b <= 64 else (64 // b + 1) // 2
        nb = -(-n // L)
        self.float = nb == 1 and (2 * T - 1) * S * b <= 53
        self.shift = L * b
        self.add = ring.ADD.ravel()
        self.size = ring.size

        enc = np.zeros((nb, ring.size), dtype=np.uint64)
        for pos in range(n):
            i, j = divmod(pos, S)
            if j < F:
                u, r = divmod(pos, L)
                enc[u] += digits[:, i * F + j].astype(np.uint64) << b * r
        self.enc = enc.astype(np.float64) if self.float else enc.view(np.int64)

        red = ring._x_powers()
        weights = P ** np.arange(T * F, dtype=np.int64)
        wide = b > LUT_BITS  # then a group is one field, reduced mod P
        per = max(1, LUT_BITS // b)
        self.groups = [[] for _ in range(nb)]
        supports = []  # coefficients touched, per accumulator
        for w in range(nb):
            hi = min(n, (w + 1) * L)
            for g0 in range(w * L, hi, per):
                fields = range(g0, min(hi, g0 + per))
                vals = np.arange(P if wide else 1 << b * len(fields),
                                 dtype=np.int64)
                terms = {}  # coefficient -> [(field in group, multiplier)]
                for r, pos in enumerate(fields):
                    i, j = divmod(pos, S)
                    for jj in np.flatnonzero(red[j]).tolist():
                        terms.setdefault(i * F + jj, []).append(
                            (r, int(red[j, jj])))
                lut = np.zeros(vals.size, dtype=np.int64)
                for col, pairs in terms.items():
                    c = sum((vals if wide else vals >> b * r & (1 << b) - 1)
                            * mult for r, mult in pairs)
                    lut += c % P * int(weights[col])
                support = set(terms)
                for acc, cols in enumerate(supports):
                    if not cols & support:
                        cols |= support
                        break
                else:
                    acc = len(supports)
                    supports.append(support)
                self.groups[w].append((
                    b * (g0 - w * L), (1 << b * len(fields)) - 1,
                    P if wide else None, lut.astype(np.int32), acc,
                ))
        self.naccs = len(supports)

    def __call__(self, A, B):
        Ae, Be = self.enc.take(A, axis=1), self.enc.take(B, axis=1)
        accs = [None] * self.naccs
        carry = None
        last = len(self.groups) - 1
        for w, groups in enumerate(self.groups):
            prod = np.matmul(Ae[0], Be[w])
            for u in range(1, w + 1):
                prod += np.matmul(Ae[u], Be[w - u])
            if w == last:
                Ae = Be = None  # memory: the decode needs only the product
            if self.float:
                prod = prod.astype(np.int64)
            prod = prod.view(np.uint64)
            high = prod >> self.shift if w < last else None
            if carry is not None:
                prod += carry
            carry = high
            field = np.empty_like(prod)
            for shift, mask, mod, lut, acc in groups:
                np.right_shift(prod, shift, out=field)
                field &= mask
                if mod is not None:
                    field %= mod
                val = lut.take(field.view(np.int64))
                if accs[acc] is None:
                    accs[acc] = val
                else:
                    accs[acc] += val
        out = accs[0]
        for acc in accs[1:]:
            out *= self.size
            out += acc
            out = self.add.take(out)
        return out


@functools.lru_cache(maxsize=None)
def _ring_cached(kind, p, f, m, n):
    return Ring(kind, p=p, f=f, m=m, n=n)


def make_ring(kind, p=None, f=None, m=None, n=None) -> Ring:
    """Construct (or fetch) the ring of the given kind and parameters."""
    return _ring_cached(kind, p, f, m, n)


def parse_ring(text: str) -> Ring:
    """Parse a ring literal such as ``zq:p=2,f=1,m=3`` or ``zn:n=12``: each
    key of its kind once, and no other key."""
    try:
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        pairs = [(key.strip(), int(val)) for key, _, val in
                 (part.partition("=") for part in rest.split(","))]
    except Exception as exc:
        raise RingError(f"malformed ring literal {text!r}") from exc
    keys = {"zq": {"p", "f", "m"}, "fqt": {"p", "f", "m"}, "zn": {"n"}}
    if kind not in keys:
        raise RingError(f"unknown ring kind in literal {text!r}")
    names = [key for key, _ in pairs]
    repeated = sorted({key for key in names if names.count(key) > 1})
    if repeated:
        raise RingError(f"ring literal {text!r} repeats {repeated}")
    params = dict(pairs)
    missing, unknown = keys[kind] - set(params), set(params) - keys[kind]
    if missing:
        raise RingError(f"ring literal {text!r} missing {sorted(missing)}")
    if unknown:
        raise RingError(f"ring literal {text!r}: {kind} takes no "
                        f"{sorted(unknown)}")
    return make_ring(kind, **params)


def crt_split(n):
    """Coprime factorization n = prod p^e, ascending primes."""
    return [p**e for p, e in _factor(n)]
