"""Single-element reads of a group table that only the tests make.

The package works on whole stacks (``GroupTable.lookup_batch``, the rho
rows, ``pair_depth_counts``); these one-pair forms are the tests' direct
oracles for them.
"""

import numpy as np


def lookup(G, mat):
    """The index of one matrix in the table G."""
    return int(G.lookup_batch(np.asarray(mat)[None])[0])


def mul(G, i, j):
    """The index of the product of elements i and j, by a matrix product."""
    return lookup(G, G.ring.mat_mul(G.mats[i], G.mats[j]))


def commutator_depth(G, i, j):
    """w(x, y) = min entry valuation of xy - yx, truncated at m."""
    ring, x, y = G.ring, G.mats[i], G.mats[j]
    diff = ring.mat_sub(ring.mat_mul(x, y), ring.mat_mul(y, x))
    return int(ring.mat_min_valuation(diff))


def commutator_depth_kernel(G, i, j):
    """Same depth via max{k : x^-1 y^-1 x y lies in the level-k kernel}."""
    ring = G.ring
    xiyi = ring.mat_mul(G.mats[G.inv[i]], G.mats[G.inv[j]])
    comm = ring.mat_mul(xiyi, ring.mat_mul(G.mats[i], G.mats[j]))
    delta = ring.mat_sub(comm, ring.identity_mat(G.d))
    return int(ring.mat_min_valuation(delta))
