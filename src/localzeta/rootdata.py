"""Reduced root systems in integer coordinates.

Supported types: A1, A2, A3, B2, C2, D4.  Each system is realized by the
usual e_i - e_j style vectors so that every inner product is an integer and
all Cartan pairings come out exactly.

Conventions fixed here and relied on everywhere else:

* positive roots are listed in increasing (height, coefficient-tuple) order;
  the negative of the k-th positive root sits at index npos + k;
* ``rho`` is the sum of all positive roots, so pairing(rho, b) == 2 for each
  simple b;
* names are ``a1 .. al`` for simples and signed integer combinations such as
  ``a1+2a2`` otherwise.
"""

from __future__ import annotations

from fractions import Fraction

_SIMPLES = {
    "A1": [(1, -1)],
    "A2": [(1, -1, 0), (0, 1, -1)],
    "A3": [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)],
    "B2": [(1, -1), (0, 1)],
    "C2": [(1, -1), (0, 2)],
    "D4": [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)],
}

SYSTEMS = tuple(sorted(_SIMPLES))


class RootDataError(ValueError):
    pass


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _solve_fraction(gram, rhs):
    # Gaussian elimination over Q; gram is square and invertible
    n = len(gram)
    M = [[Fraction(gram[i][j]) for j in range(n)] + [Fraction(rhs[i])]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                factor = M[r][col]
                M[r] = [a - factor * b for a, b in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


class RootSystem:
    def __init__(self, name: str):
        if name not in _SIMPLES:
            raise RootDataError(
                f"unknown root system {name!r}; have {', '.join(SYSTEMS)}"
            )
        self.name = name
        self.simple = [tuple(v) for v in _SIMPLES[name]]
        self.rank = len(self.simple)
        self._close_under_reflections()
        self._index_roots()
        self.rho = tuple(
            sum(v[i] for v in self.positive) for i in range(len(self.simple[0]))
        )
        for b in self.simple:
            if self.pairing(self.rho, b) != 2:
                raise RootDataError(f"rho pairing broken in {name}")

    # ------------------------------------------------------------------

    def _close_under_reflections(self):
        roots = set(self.simple)
        changed = True
        while changed:
            changed = False
            for a in self.simple:
                for b in list(roots):
                    r = self._reflect_vec(b, a)
                    if r not in roots:
                        roots.add(r)
                        changed = True
        self._rootset = roots

    def _coeffs_of(self, v):
        gram = [[_dot(a, b) for b in self.simple] for a in self.simple]
        rhs = [_dot(v, a) for a in self.simple]
        sol = _solve_fraction(gram, rhs)
        if any(c.denominator != 1 for c in sol):
            raise RootDataError(f"non-integral root coefficients for {v}")
        return tuple(int(c) for c in sol)

    def _index_roots(self):
        pos = []
        for v in self._rootset:
            c = self._coeffs_of(v)
            if all(x >= 0 for x in c) and any(x > 0 for x in c):
                # order: height first, ties by coordinate lex
                pos.append((sum(c), v))
        pos.sort()
        self.positive = [v for _, v in pos]
        self.npos = len(self.positive)
        self.roots = self.positive + [
            tuple(-x for x in v) for v in self.positive
        ]
        self._index = {v: i for i, v in enumerate(self.roots)}
        self.coeffs = {v: self._coeffs_of(v) for v in self.roots}

    # ------------------------------------------------------------------
    # basic geometry

    def is_root(self, v):
        return tuple(v) in self._index

    def index(self, v):
        return self._index[tuple(v)]

    def negative(self, v):
        return tuple(-x for x in v)

    def height(self, v):
        return sum(self.coeffs[tuple(v)])

    def pairing(self, b, a):
        """Cartan integer 2(b,a)/(a,a); b need not be a root."""
        num = 2 * _dot(b, a)
        den = _dot(a, a)
        if num % den:
            raise RootDataError(f"pairing({b},{a}) not integral")
        return num // den

    def _reflect_vec(self, b, a):
        k = self.pairing(b, a)
        return tuple(x - k * y for x, y in zip(b, a))

    def reflect(self, b, a):
        r = self._reflect_vec(tuple(b), tuple(a))
        if r not in self._index:
            raise RootDataError(f"reflection left the root system: {b} by {a}")
        return r

    def add(self, a, b):
        """a + b if it is a root, else None."""
        s = tuple(x + y for x, y in zip(a, b))
        return s if s in self._index else None

    def p_down(self, a, b):
        """Largest k >= 0 with b - k*a still a root (the down string)."""
        k = 0
        cur = b
        while True:
            nxt = tuple(x - y for x, y in zip(cur, a))
            if nxt in self._index:
                k += 1
                cur = nxt
            else:
                return k

    def p_up(self, a, b):
        k = 0
        cur = b
        while True:
            nxt = tuple(x + y for x, y in zip(cur, a))
            if nxt in self._index:
                k += 1
                cur = nxt
            else:
                return k

    @property
    def dim_adjoint(self):
        return self.rank + len(self.roots)

    def highest_root(self):
        return self.positive[-1]

    # ------------------------------------------------------------------
    # names

    def root_name(self, v):
        v = tuple(v)
        c = self.coeffs[v]
        if all(x <= 0 for x in c):
            return "-" + self.root_name(self.negative(v))
        terms = []
        for i, x in enumerate(c):
            if x == 0:
                continue
            terms.append(f"a{i + 1}" if x == 1 else f"{x}a{i + 1}")
        return "+".join(terms)

    def parse_root(self, text: str):
        s = text.strip().replace(" ", "")
        sign = 1
        if s.startswith("-"):
            sign = -1
            s = s[1:]
        coeffs = [0] * self.rank
        for term in s.split("+"):
            if not term:
                raise RootDataError(f"bad root token {text!r}")
            k, _, idx = term.partition("a")
            if not idx.isdigit():
                raise RootDataError(f"bad root token {text!r}")
            i = int(idx)
            if not 1 <= i <= self.rank:
                raise RootDataError(f"no simple root a{i} in {self.name}")
            mult = int(k) if k else 1
            coeffs[i - 1] += mult
        v = tuple(
            sign * sum(c * s_i[j] for c, s_i in zip(coeffs, self.simple))
            for j in range(len(self.simple[0]))
        )
        if v not in self._index:
            raise RootDataError(f"{text!r} is not a root of {self.name}")
        return v

    def parse_simple_subset(self, text: str):
        """Comma list of simple-root names -> sorted tuple of 0-based slots."""
        if text.strip() in ("", "-"):
            return ()
        out = set()
        for tok in text.split(","):
            v = self.parse_root(tok)
            if v not in self.simple:
                raise RootDataError(f"{tok.strip()!r} is not a simple root")
            out.add(self.simple.index(v))
        return tuple(sorted(out))

    # ------------------------------------------------------------------
    # closed subsets

    def is_closed(self, subset):
        ss = {tuple(v) for v in subset}
        for a in ss:
            for b in ss:
                s = self.add(a, b)
                if s is not None and s not in ss:
                    return False
        return True

    def closure(self, subset):
        ss = {tuple(v) for v in subset}
        changed = True
        while changed:
            changed = False
            for a in list(ss):
                for b in list(ss):
                    s = self.add(a, b)
                    if s is not None and s not in ss:
                        ss.add(s)
                        changed = True
        return sorted(ss, key=self.index)

    def parabolic_roots(self, subset):
        """Roots of the standard parabolic of type ``subset``.

        subset is a tuple of 0-based simple slots; the result is all positive
        roots plus the negatives supported on the subset.
        """
        keep = set(subset)
        out = list(self.positive)
        for v in self.positive:
            c = self.coeffs[v]
            if all(x == 0 or i in keep for i, x in enumerate(c)):
                out.append(self.negative(v))
        return out

    def __repr__(self):
        return f"RootSystem({self.name}, rank={self.rank}, npos={self.npos})"


_cache = {}


def root_system(name: str) -> RootSystem:
    if name not in _cache:
        _cache[name] = RootSystem(name)
    return _cache[name]
