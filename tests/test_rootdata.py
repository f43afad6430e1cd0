"""Root systems: counts, Cartan data, strings, closures, Weyl orders."""

import pytest

from localzeta.rootdata import RootDataError, RootSystem, SYSTEMS, root_system

# (system, #roots, Weyl order, highest-root height) from the standard tables
KNOWN = {
    "A1": (2, 2, 1),
    "A2": (6, 6, 2),
    "A3": (12, 24, 3),
    "B2": (8, 8, 3),
    "C2": (8, 8, 3),
    "D4": (24, 192, 5),
}

# entry [i][j] is pairing(a_i, a_j) = 2(a_i,a_j)/(a_j,a_j): the j-th column
# is normalized by the j-th root, so B2 (short a2) has -2 in row 1
CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "C2": [[2, -1], [-2, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}


def weyl_order(rs):
    """Order of the Weyl group, by orbit enumeration on root indices."""
    n = len(rs.roots)
    gens = [tuple(rs.index(rs.reflect(v, a)) for v in rs.roots)
            for a in rs.simple]
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = tuple(w[g[i]] for i in range(n))
                if wg not in seen:
                    seen.add(wg)
                    nxt.append(wg)
        frontier = nxt
    return len(seen)


def cartan_matrix(rs):
    """Entry [i][j] = pairing(a_i, a_j)."""
    return [[rs.pairing(b, a) for a in rs.simple] for b in rs.simple]


def test_root_counts_and_weyl_orders():
    for name, (nroots, worder, hheight) in KNOWN.items():
        rs = root_system(name)
        assert len(rs.roots) == nroots
        assert rs.npos == nroots // 2
        assert weyl_order(rs) == worder
        assert rs.height(rs.highest_root()) == hheight
        assert rs.dim_adjoint == rs.rank + nroots


def test_cartan_matrices():
    for name, want in CARTAN.items():
        assert cartan_matrix(root_system(name)) == want


def test_rho_pairing_is_two_on_simples():
    for name in SYSTEMS:
        rs = root_system(name)
        for b in rs.simple:
            assert rs.pairing(rs.rho, b) == 2


def test_positive_order_and_negatives():
    for name in SYSTEMS:
        rs = root_system(name)
        hts = [rs.height(v) for v in rs.positive]
        assert hts == sorted(hts)
        assert hts[: rs.rank] == [1] * rs.rank  # simples come first
        for k, v in enumerate(rs.positive):
            assert rs.roots[rs.npos + k] == rs.negative(v)
        # no root is a doubled root
        for v in rs.roots:
            assert not rs.is_root(tuple(2 * x for x in v))


def test_reflections_and_pairing_values():
    for name in SYSTEMS:
        rs = root_system(name)
        for a in rs.roots:
            assert rs.reflect(a, a) == rs.negative(a)
            for b in rs.roots:
                k = rs.pairing(b, a)
                assert k in (-3, -2, -1, 0, 1, 2, 3)
                assert rs.reflect(rs.reflect(b, a), a) == b


def test_root_strings():
    b2 = root_system("B2")
    a1 = b2.parse_root("a1")  # long
    a2 = b2.parse_root("a2")  # short
    assert b2.p_down(a2, a1) == 0
    assert b2.p_up(a2, a1) == 2  # a1, a1+a2, a1+2a2
    assert b2.p_down(a1, a2) == 0
    assert b2.p_up(a1, a2) == 1
    a2sys = root_system("A2")
    x, y = a2sys.simple
    assert a2sys.p_up(x, y) == 1 and a2sys.p_down(x, y) == 0
    # string length bound: p_down + p_up <= 3 in these systems
    for name in SYSTEMS:
        rs = root_system(name)
        for a in rs.roots:
            for b in rs.roots:
                if b in (a, rs.negative(a)):
                    continue
                assert rs.p_down(a, b) + rs.p_up(a, b) <= 3
                # string relation: <b,a> = p_down - p_up
                assert rs.pairing(b, a) == rs.p_down(a, b) - rs.p_up(a, b)


def test_names_roundtrip():
    for name in SYSTEMS:
        rs = root_system(name)
        for v in rs.roots:
            assert rs.parse_root(rs.root_name(v)) == v
    d4 = root_system("D4")
    assert d4.root_name(d4.highest_root()) == "a1+2a2+a3+a4"
    with pytest.raises(RootDataError):
        d4.parse_root("a7")
    with pytest.raises(RootDataError):
        root_system("A2").parse_root("a1+a1")  # 2a1 is not a root


def test_parse_simple_subset():
    a3 = root_system("A3")
    assert a3.parse_simple_subset("a1,a3") == (0, 2)
    assert a3.parse_simple_subset("a3, a1") == (0, 2)
    assert a3.parse_simple_subset("") == ()
    assert a3.parse_simple_subset("-") == ()
    with pytest.raises(RootDataError):
        a3.parse_simple_subset("a1+a2")  # not simple


def test_closures():
    a2 = root_system("A2")
    x, y = a2.simple
    assert a2.is_closed([x])
    assert not a2.is_closed([x, y])
    # positives always closed
    for name in SYSTEMS:
        rs = root_system(name)
        assert rs.is_closed(rs.positive)
        assert rs.is_closed(rs.roots)


def test_parabolic_root_sets():
    a3 = root_system("A3")
    full = a3.parabolic_roots((0, 1, 2))
    assert sorted(full) == sorted(a3.roots)
    borel = a3.parabolic_roots(())
    assert sorted(borel) == sorted(a3.positive)
    p1 = a3.parabolic_roots((0,))
    assert len(p1) == a3.npos + 1
    for name in SYSTEMS:
        rs = root_system(name)
        for sub in [(), (0,), tuple(range(rs.rank))]:
            assert rs.is_closed(rs.parabolic_roots(sub))


def test_unknown_system_rejected():
    with pytest.raises(RootDataError):
        RootSystem("G2")
