"""Chevalley bases and adjoint one-parameter subgroups over finite rings.

The Lie algebra of type X has basis H_1..H_l (simple coroots) followed by
X_gamma for gamma running through the roots in their canonical order.  The
structure constants N(a,b) in [X_a, X_b] = N(a,b) X_{a+b} are fixed by
making every extraspecial pair positive and propagating with the Jacobi
identity; the whole bracket table is then re-verified from scratch at
construction time (antisymmetry, Jacobi, and |N(a,b)| = p_down(a,b) + 1).

Group elements are adjoint matrices over a coefficient ring:

* ``x(root, t)``      = exp(t ad X_root), entrywise exact because every
  divided power (ad X)^k / k! is an integer matrix;
* ``h(root, u)``      = the coroot torus element, diagonal u^{pairing(d,root)}
  on X_d; it equals w(root,u) w(root,-1) and is what conjugation formulas
  use;
* ``tau(slot, u)``    = the coweight torus element for a simple root b,
  diagonal u^{[d:b]} on X_d where [d:b] is the coefficient of b in d.  These
  see the center that the x's miss, and they make the torus coordinates of
  the big cell injective, which the h's do not (h_a(u) collapses u and -u
  in A1).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np

from .rootdata import root_system, _dot


class ChevalleyError(ValueError):
    pass


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vneg(a):
    return tuple(-x for x in a)


def _integer(value, what, nonzero=False):
    """A Fraction that must be an integer (and nonzero, if asked), as an
    int; ChevalleyError otherwise."""
    if value.denominator != 1 or (nonzero and value == 0):
        kind = "a nonzero integer" if nonzero else "an integer"
        raise ChevalleyError(
            f"structure constant {what} is {value}, not {kind}"
        )
    return int(value)


def _structure_signs(rs):
    """All N(a,b) as {(a, b): int} for root pairs whose sum is a root."""
    norm = {v: _dot(v, v) for v in rs.roots}
    pos_order = {v: i for i, v in enumerate(rs.positive)}

    extraspecial = {}
    for g in rs.positive:
        if g in rs.simple:
            continue
        for xi in rs.positive:
            eta = _vsub(g, xi)
            if eta in pos_order:
                extraspecial[g] = (xi, eta)
                break

    memo = {}

    def N(a, b):
        key = (a, b)
        if key in memo:
            return memo[key]
        s = _vadd(a, b)
        if not rs.is_root(s):
            memo[key] = 0
            return 0
        pa, pb = a in pos_order, b in pos_order
        if pa and pb:
            if pos_order[a] > pos_order[b]:
                val = -N(b, a)
            else:
                xi, eta = extraspecial[s]
                if a == xi:
                    val = rs.p_down(a, b) + 1
                else:
                    # Jacobi for (X_{-xi}, X_a, X_b); every term lands on eta
                    t1 = N(_vneg(xi), a)
                    term1 = t1 * N(_vsub(a, xi), b) if t1 else 0
                    t3 = N(b, _vneg(xi))
                    term3 = t3 * N(_vsub(b, xi), a) if t3 else 0
                    # N(s, -xi) = -N(xi,eta) (eta,eta)/(s,s), never zero
                    ns = _integer(
                        Fraction(-N(xi, eta) * norm[eta], norm[s]),
                        f"N({s}, {_vneg(xi)})", nonzero=True,
                    )
                    val = _integer(
                        Fraction(-(term1 + term3), ns),
                        f"N({a}, {b}) by the Jacobi identity",
                    )
        elif not pa and not pb:
            val = -N(_vneg(a), _vneg(b))
        elif pa:  # b negative
            if s in pos_order:
                # cycle (a, b, -s) gives N(a,b) = (s,s) N(b,-s) / (a,a),
                # and N(b,-s) = -N(-b,s) with (-b, s) both positive
                val = _integer(
                    Fraction(-norm[s] * N(_vneg(b), s), norm[a]),
                    f"N({a}, {b}) by the cycle (a, b, -s)",
                )
            else:
                val = -N(_vneg(a), _vneg(b))
        else:
            val = -N(b, a)
        memo[key] = val
        return val

    table = {}
    for a in rs.roots:
        for b in rs.roots:
            s = _vadd(a, b)
            if rs.is_root(s):
                table[(a, b)] = N(a, b)
    return table


class ChevalleyGroup:
    """Adjoint Chevalley group data for one root system."""

    def __init__(self, system: str):
        self.rs = root_system(system)
        rs = self.rs
        self.dim = rs.dim_adjoint  # matrix size l + |roots|
        self.nsigns = _structure_signs(rs)
        self._coroot_rows = {
            v: self._coroot_coeffs(v) for v in rs.roots
        }
        self._bracket = self._bracket_tensor()
        self._verify_structure()
        self._ad = {v: self._ad_matrix(v) for v in rs.roots}
        self._divided = {v: self._divided_powers(v) for v in rs.roots}
        self._ring_cache = {}

    # ------------------------------------------------------------------
    # integer structure

    def _coroot_coeffs(self, g):
        """gamma-vee in the simple coroot basis, integral by construction."""
        rs = self.rs
        ng = _dot(g, g)
        out = []
        for i, a in enumerate(rs.simple):
            num = rs.coeffs[g][i] * _dot(a, a)
            if num % ng:
                raise ChevalleyError(f"non-integral coroot for {g}")
            out.append(num // ng)
        return tuple(out)

    def _basis_slot(self, v):
        return self.rs.rank + self.rs.index(v)

    def _bracket_tensor(self):
        """T[i,j] = [b_i, b_j] as integer vectors; basis H then X."""
        rs = self.rs
        d = self.dim
        T = np.zeros((d, d, d), dtype=np.int64)
        for i in range(rs.rank):
            ai = rs.simple[i]
            for g in rs.roots:
                j = self._basis_slot(g)
                k = rs.pairing(g, ai)
                T[i, j, j] = k
                T[j, i, j] = -k
        for a in rs.roots:
            ia = self._basis_slot(a)
            for b in rs.roots:
                ib = self._basis_slot(b)
                s = _vadd(a, b)
                if all(x == 0 for x in s):
                    for i, c in enumerate(self._coroot_rows[a]):
                        T[ia, ib, i] = c
                elif rs.is_root(s):
                    T[ia, ib, self._basis_slot(s)] = self.nsigns[(a, b)]
        return T

    def _verify_structure(self):
        T = self._bracket
        if not np.array_equal(T, -T.transpose(1, 0, 2)):
            raise ChevalleyError("bracket table not antisymmetric")
        # Jacobi: [a,[b,c]] + [b,[c,a]] + [c,[a,b]] = 0
        AB = np.einsum("jkm,imn->ijkn", T, T)
        jac = AB + AB.transpose(1, 2, 0, 3) + AB.transpose(2, 0, 1, 3)
        if jac.any():
            raise ChevalleyError("Jacobi identity fails")
        rs = self.rs
        for (a, b), n in self.nsigns.items():
            if abs(n) != rs.p_down(a, b) + 1:
                raise ChevalleyError(
                    f"|N{a},{b}| = {abs(n)} != string bound"
                )

    def _ad_matrix(self, g):
        """Matrix of ad X_g; column j is the bracket with basis j."""
        j = self._basis_slot(g)
        return self._bracket[j].T.copy()

    def _divided_powers(self, g):
        """[I, A, A^2/2!, ...] until zero; exact integer division."""
        A = self._ad[g]
        out = [np.eye(self.dim, dtype=np.int64), A]
        k = 1
        while out[-1].any():
            k += 1
            raw = A @ out[-1]
            if (raw % k).any():
                raise ChevalleyError(f"divided power {k} not integral at {g}")
            out.append(raw // k)
            if k > 6:
                raise ChevalleyError("unexpected nilpotency depth")
        return out[:-1]

    # ------------------------------------------------------------------
    # ring-level generators

    def _ring_data(self, ring):
        key = ring.key()
        if key not in self._ring_cache:
            self._ring_cache[key] = {
                v: [ring.mat_from_int(D) for D in self._divided[v]]
                for v in self.rs.roots
            }
        return self._ring_cache[key]

    def x(self, ring, root, t):
        """exp(t ad X_root) over the ring; t is an element index."""
        root = tuple(root)
        mats = self._ring_data(ring)[root]
        out = mats[0].copy()
        tk = t
        for D in mats[1:]:
            out = ring.mat_add(out, ring.MUL[tk, D])
            tk = ring.mul(tk, t)
        return out

    def h(self, ring, root, u):
        """Coroot torus element; diagonal u^{pairing(d, root)} on X_d."""
        root = tuple(root)
        if not ring.is_unit(u):
            raise ChevalleyError("torus parameter must be a unit")
        rs = self.rs
        out = ring.identity_mat(self.dim)
        for g in rs.roots:
            k = rs.pairing(g, root)
            out[self._basis_slot(g), self._basis_slot(g)] = ring.pow(u, k)
        return out

    def tau(self, ring, slot, u):
        """Coweight torus element for the simple root in the given slot."""
        if not ring.is_unit(u):
            raise ChevalleyError("torus parameter must be a unit")
        rs = self.rs
        out = ring.identity_mat(self.dim)
        for g in rs.roots:
            k = rs.coeffs[g][slot]
            out[self._basis_slot(g), self._basis_slot(g)] = ring.pow(u, k)
        return out

    def w(self, ring, root, u):
        """Weyl representative x_r(u) x_{-r}(-u^{-1}) x_r(u)."""
        root = tuple(root)
        inv = ring.invert(u)
        a = self.x(ring, root, u)
        b = self.x(ring, _vneg(root), ring.neg(inv))
        return ring.mat_mul(ring.mat_mul(a, b), a)

    def torus_element(self, ring, units):
        """Product of tau over all simple slots; units is a length-l list."""
        out = ring.identity_mat(self.dim)
        for slot, u in enumerate(units):
            out = ring.mat_mul(out, self.tau(ring, slot, u))
        return out

    # ------------------------------------------------------------------

    def big_cell(self, ring, neg_params, units, pos_params):
        """Product over the negative cell, the coweight torus, the positive
        cell; parameter lists follow the positive-root order."""
        rs = self.rs
        out = ring.identity_mat(self.dim)
        for g, t in zip([_vneg(v) for v in rs.positive], neg_params):
            out = ring.mat_mul(out, self.x(ring, g, t))
        out = ring.mat_mul(out, self.torus_element(ring, units))
        for g, t in zip(rs.positive, pos_params):
            out = ring.mat_mul(out, self.x(ring, g, t))
        return out

    def struct_hash(self):
        """Stable digest of the integer structure (for cache keys)."""
        payload = repr(
            (
                self.rs.name,
                sorted(self.nsigns.items()),
                sorted(self._coroot_rows.items()),
            )
        ).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def haar_unit_polynomial(self):
        """|G(F_q)| / q^dim as a Laurent polynomial in q.

        Equals prod_i (1 - q^{-d_i}) over the invariant degrees; the point
        count is the smooth one (with the coweight torus included), namely
        q^{npos} prod_i (q^{d_i} - 1).
        """
        from .laurent import Laurent

        degs = INVARIANT_DEGREES[self.rs.name]
        out = Laurent.const(1, 1)
        for d in degs:
            out = out * (Laurent.const(1, 1) - Laurent.var(0, 1, -d))
        return out

    def point_count(self, q):
        """|G(F_q)| for the smooth form, as an exact integer."""
        degs = INVARIANT_DEGREES[self.rs.name]
        out = q**self.rs.npos
        for d in degs:
            out *= q**d - 1
        return out

    def __repr__(self):
        return f"ChevalleyGroup({self.rs.name}, dim={self.dim})"


INVARIANT_DEGREES = {
    "A1": (2,),
    "A2": (2, 3),
    "A3": (2, 3, 4),
    "B2": (2, 4),
    "C2": (2, 4),
    "D4": (2, 4, 4, 6),
}


# ----------------------------------------------------------------------
# symbolic identity verification
#
# The conjugation and one-parameter identities are checked as exact Laurent
# polynomial matrix identities, not sampled at ring points, so a pass is a
# proof for the given system.


def _laurent_x(cg, root, nvars, t):
    """x_root(t) as a dense matrix of Laurent polynomials.

    t is a Laurent polynomial in nvars variables (it may itself be a sum,
    as in the one-parameter law check).
    """
    from .laurent import Laurent

    d = cg.dim
    out = [
        [Laurent.const(1 if i == j else 0, nvars) for j in range(d)]
        for i in range(d)
    ]
    tk = Laurent.const(1, nvars)
    for D in cg._divided[tuple(root)][1:]:
        tk = tk * t
        for i in range(d):
            for j in range(d):
                if D[i, j]:
                    out[i][j] = out[i][j] + tk * int(D[i, j])
    return out


def _lmatmul(A, B):
    d = len(A)
    nvars = A[0][0].nvars
    from .laurent import Laurent

    out = [[Laurent.const(0, nvars) for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for k in range(d):
            if A[i][k].is_zero():
                continue
            for j in range(d):
                if B[k][j].is_zero():
                    continue
                out[i][j] = out[i][j] + A[i][k] * B[k][j]
    return out


def _slot_weights(cg, root):
    """Exponent of u on each basis slot under conjugation by h_root(u)."""
    rs = cg.rs
    weights = [0] * cg.dim
    for g in rs.roots:
        weights[cg._basis_slot(g)] = rs.pairing(g, root)
    return weights


def verify_torus_conjugation(system_or_cg):
    """Exact symbolic checks of the torus conjugation identities.

    Verifies, over Laurent polynomials:
      * h_b(u) x_a(t) h_b(u)^{-1} = x_a(u^{<a,b>} t) for every root a and
        simple root b (single-root form);
      * the same under a general torus element prod_b h_b(u_b) (multi-root
        form);
      * h_a(u) = x_a(u) x_{-a}(-u^{-1}) x_a(u) is diagonal with entries
        u^{<d,a>} (the defining product really is the coroot torus element);
      * the one-parameter law x_a(s) x_a(t) = x_a(s+t);
    and, as a plain integer identity, the modulus consequence
    sum_{a<0} <a,b> = -<rho,b> for each simple b.

    Failures are reported per item, never raised.
    """
    from .laurent import Laurent

    cg = (
        system_or_cg
        if isinstance(system_or_cg, ChevalleyGroup)
        else chevalley_group(system_or_cg)
    )
    rs = cg.rs
    d = cg.dim
    report = {
        "system": rs.name,
        "torus_single": [],
        "torus_multi": [],
        "h_diagonal": [],
        "one_parameter": [],
        "modulus": [],
    }

    # single-root conjugation: variables (u, t)
    for b in rs.simple:
        weights = _slot_weights(cg, b)
        for a in rs.roots:
            c = rs.pairing(a, b)
            t = Laurent.var(1, 2)
            lhs = _laurent_x(cg, a, 2, t)
            for i in range(d):
                for j in range(d):
                    if not lhs[i][j].is_zero():
                        lhs[i][j] = lhs[i][j] * Laurent.var(
                            0, 2, weights[i] - weights[j]
                        )
            rhs = _laurent_x(cg, a, 2, t * Laurent.var(0, 2, c))
            ok = lhs == rhs
            report["torus_single"].append(
                {
                    "alpha": rs.root_name(a),
                    "beta": rs.root_name(b),
                    "exponent": c,
                    "ok": ok,
                }
            )

    # multi-root form: variables (u_1..u_l, t); the torus element is
    # prod_b h_b(u_b) and the twist is prod_b u_b^{<a,b>}
    nv = rs.rank + 1
    weight_rows = [_slot_weights(cg, b) for b in rs.simple]
    for a in rs.roots:
        t = Laurent.var(rs.rank, nv)
        lhs = _laurent_x(cg, a, nv, t)
        for i in range(d):
            for j in range(d):
                if lhs[i][j].is_zero():
                    continue
                exps = [w[i] - w[j] for w in weight_rows] + [0]
                lhs[i][j] = lhs[i][j] * Laurent.monomial(1, exps)
        twist = Laurent.monomial(
            1, [rs.pairing(a, b) for b in rs.simple] + [1]
        )
        rhs = _laurent_x(cg, a, nv, twist)
        report["torus_multi"].append(
            {"alpha": rs.root_name(a), "ok": lhs == rhs}
        )

    # h_a(u) = w_a(u) w_a(-1) with w_a(v) = x_a(v) x_{-a}(-v^{-1}) x_a(v),
    # expanded symbolically; the result must be the diagonal u^{<d,a>}
    for a in rs.roots:

        def wmat(v, vinv):
            return _lmatmul(
                _lmatmul(
                    _laurent_x(cg, a, 1, v),
                    _laurent_x(cg, _vneg(a), 1, -vinv),
                ),
                _laurent_x(cg, a, 1, v),
            )

        u = Laurent.var(0, 1)
        minus_one = Laurent.const(-1, 1)
        prod = _lmatmul(
            wmat(u, Laurent.monomial(1, (-1,))), wmat(minus_one, minus_one)
        )
        weights = _slot_weights(cg, a)
        ok = True
        for i in range(d):
            for j in range(d):
                want = (
                    Laurent.var(0, 1, weights[i])
                    if i == j
                    else Laurent.const(0, 1)
                )
                if prod[i][j] != want:
                    ok = False
        report["h_diagonal"].append({"alpha": rs.root_name(a), "ok": ok})

    # one-parameter subgroup law in variables (s, t)
    for a in rs.roots:
        s = Laurent.var(0, 2)
        t = Laurent.var(1, 2)
        lhs = _lmatmul(_laurent_x(cg, a, 2, s), _laurent_x(cg, a, 2, t))
        rhs = _laurent_x(cg, a, 2, s + t)
        report["one_parameter"].append(
            {"alpha": rs.root_name(a), "ok": lhs == rhs}
        )

    for b in rs.simple:
        total = sum(rs.pairing(_vneg(a), b) for a in rs.positive)
        rho = rs.pairing(rs.rho, b)
        report["modulus"].append(
            {
                "beta": rs.root_name(b),
                "negative_sum": total,
                "rho_pairing": rho,
                "ok": total == -rho,
            }
        )

    report["ok"] = all(
        item["ok"]
        for key in (
            "torus_single",
            "torus_multi",
            "h_diagonal",
            "one_parameter",
            "modulus",
        )
        for item in report[key]
    )
    return report


def haar_constants(cg, q, group_order, borel_order):
    """Haar normalization data at residue field size q.

    group_order and borel_order are the enumerated |G(F_q)| and |B(F_q)|;
    the normalization identity multiplies the Iwahori measure by the index
    [G(F_q) : B(F_q)] and divides by k_G(q), and must give exactly 1.
    """
    rs = cg.rs
    k = Fraction(group_order, q**cg.dim)
    iwahori = Fraction(q - 1, q) ** rs.rank * Fraction(1, q**rs.npos)
    normalization = iwahori / k * Fraction(group_order, borel_order)
    expected_borel = (q - 1) ** rs.rank * q**rs.npos
    return {
        "q": q,
        "k": k,
        "k_from_degrees": cg.haar_unit_polynomial().evaluate([Fraction(q)]),
        "density_exponents": {
            rs.root_name(b): -rs.pairing(rs.rho, b) - 1 for b in rs.simple
        },
        "iwahori_measure": iwahori,
        "borel_order": borel_order,
        "expected_borel": expected_borel,
        "normalization": normalization,
        "ok": normalization == 1 and borel_order == expected_borel,
    }


def iwahori_box_report(cg, ring):
    """Image size of the big cell on the Iwahori box, by enumeration.

    The box is v(a) >= 1 on negative-root coordinates, v(b) = 0 on torus
    coordinates, v(c) >= 0 on positive-root coordinates; the expected image
    size (q^{m-1})^r (q^m - q^{m-1})^l (q^m)^r witnesses injectivity.
    """
    import itertools

    rs = cg.rs
    q = ring.p**ring.f
    m = ring.m
    neg = [x for x in range(ring.size) if ring.VAL[x] >= 1]
    units = [x for x in range(ring.size) if ring.UNIT[x]]
    everything = list(range(ring.size))
    seen = set()
    for negs in itertools.product(neg, repeat=rs.npos):
        for us in itertools.product(units, repeat=rs.rank):
            for poss in itertools.product(everything, repeat=rs.npos):
                mat = cg.big_cell(ring, negs, us, poss)
                seen.add(mat.astype("<u2").tobytes())
    box = (
        len(neg) ** rs.npos
        * len(units) ** rs.rank
        * len(everything) ** rs.npos
    )
    expected = (
        (q ** (m - 1)) ** rs.npos
        * (q**m - q ** (m - 1)) ** rs.rank
        * (q**m) ** rs.npos
    )
    return {
        "system": rs.name,
        "ring": ring.literal,
        "image": len(seen),
        "box": box,
        "expected": expected,
        "injective": len(seen) == box,
        "ok": len(seen) == box == expected,
    }


_cache = {}


def chevalley_group(system: str) -> ChevalleyGroup:
    if system not in _cache:
        _cache[system] = ChevalleyGroup(system)
    return _cache[system]
