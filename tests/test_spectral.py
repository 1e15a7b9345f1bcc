"""Dominant eigendata: stretch factors, eigenvectors, cyclic structure.

Closed-form oracles: the Fibonacci matrix [[1,1],[1,0]] has characteristic
polynomial x^2 - x - 1 with root the golden ratio, and the rank-4 swap has
x^4 - x^2 - 1, so its stretch is the square root of the golden ratio.  The
generic oracle is numpy's dense eigensolver on small random irreducible
matrices.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from traintracks import (
    InputError,
    Metric,
    NotIrreducibleError,
    PowerIterationError,
    cyclic_index,
    is_simplicial,
    path_length,
    pf_eigen,
)
from traintracks.words import letter_index

PHI = (1.0 + math.sqrt(5.0)) / 2.0


# ------------------------------------------------------------ closed forms


def test_fibonacci_stretch_factor(fib_tt):
    pf = fib_tt.pf
    assert pf.lam == pytest.approx(PHI, abs=1e-12)
    # nu = (1/phi, 1/phi^2), the probability eigenvector
    assert pf.nu[0] == pytest.approx(1 / PHI, abs=1e-9)
    assert pf.nu[1] == pytest.approx(1 / PHI**2, abs=1e-9)
    assert pf.k == 1
    assert pf.blocks == (("a", "b"),)
    assert pf.residual < 1e-10
    assert pf.primitive_first_return == (True,)
    assert pf.expanding


def test_rank4_stretch_factor(rank4_tt):
    pf = rank4_tt.pf
    lam = math.sqrt(PHI)
    assert pf.lam == pytest.approx(lam, abs=1e-12)
    assert pf.k == 2
    assert pf.blocks == (("a", "b"), ("c", "d"))
    assert pf.primitive_first_return == (True, True)
    # closed form from nu A = lam nu: nu_c = lam nu_a, nu_d = nu_a / lam,
    # nu_b = nu_a / phi, normalized to sum 1
    nu_a = 1.0 / (1.0 + 1.0 / PHI + lam + 1.0 / lam)
    expected = np.array([nu_a, nu_a / PHI, nu_a * lam, nu_a / lam])
    np.testing.assert_allclose(pf.nu, expected, atol=1e-9)
    assert pf.residual < 1e-10


def test_swap_is_simplicial(swap_tt):
    pf = swap_tt.pf
    assert pf.lam == pytest.approx(1.0, abs=1e-12)
    assert pf.k == 2
    assert not pf.expanding
    assert is_simplicial(swap_tt.matrix)
    np.testing.assert_allclose(pf.nu, [0.5, 0.5], atol=1e-9)


def test_one_by_one_matrix():
    pf = pf_eigen([[3]])
    assert pf.lam == 3.0
    assert pf.k == 1
    assert list(pf.nu) == [1.0]
    with pytest.raises(NotIrreducibleError):
        pf_eigen([[0]])


# --------------------------------------------------------- irreducibility


def test_irreducibility_cases():
    for irreducible in ([[1, 1], [1, 0]], [[0, 1], [1, 0]], [[2]]):
        cyclic_index(irreducible)
    for reducible in ([[1, 1], [0, 1]], [[1, 0], [0, 1]], [[0]]):
        with pytest.raises(NotIrreducibleError):
            cyclic_index(reducible)


def test_pf_requires_irreducible():
    with pytest.raises(NotIrreducibleError):
        pf_eigen([[1, 1], [0, 1]])
    with pytest.raises(NotIrreducibleError):
        pf_eigen([[1, -1], [1, 1]])


def test_cyclic_index_cases():
    k, blocks = cyclic_index([[1, 1], [1, 0]])
    assert k == 1 and blocks == (("a", "b"),)
    k, blocks = cyclic_index([[0, 1], [1, 0]])
    assert k == 2 and blocks == (("a",), ("b",))
    with pytest.raises(NotIrreducibleError):
        cyclic_index([[1, 0], [0, 1]])


def test_simplicial_cases(identity2_tt, fib_tt):
    assert is_simplicial(identity2_tt.matrix)
    assert not is_simplicial(fib_tt.matrix)


# ------------------------------------------------- generic eigen oracle


@st.composite
def irreducible_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    mat = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    mat = np.array(mat, dtype=np.int64)
    # make every row/column pattern a single cycle plus noise: guarantees
    # strong connectivity without filtering too hard
    for i in range(n):
        mat[(i + 1) % n, i] = max(1, mat[(i + 1) % n, i])
    return mat


@settings(max_examples=60, deadline=None)
@given(irreducible_matrices())
def test_pf_matches_dense_eigensolver(mat):
    pf = pf_eigen(mat)
    dense = np.max(np.abs(np.linalg.eigvals(mat.astype(float))))
    assert pf.lam == pytest.approx(float(dense), rel=1e-9, abs=1e-9)
    assert (pf.nu > 0).all()
    assert pf.nu.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(np.abs(pf.nu @ mat - pf.lam * pf.nu).max()) < 1e-8


@st.composite
def cyclic_matrices(draw):
    """An irreducible matrix with k planted cyclic classes: its digraph only
    steps from class r to class r + 1 mod k, along a closed walk through
    every vertex plus random such steps.  Returns the matrix and k."""
    k = draw(st.integers(min_value=1, max_value=4))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=k, max_size=k))
    first = np.cumsum([0] + sizes)
    n = int(first[-1])
    mat = np.zeros((n, n), dtype=np.int64)
    walk = [int(first[t % k]) + (t // k) % sizes[t % k] for t in range(max(sizes) * k)]
    for u, v in zip(walk, walk[1:] + walk[:1]):
        mat[v, u] = 1
    for r in range(k):
        for u in range(first[r], first[r + 1]):
            s = (r + 1) % k
            for v in range(first[s], first[s + 1]):
                mat[v, u] = max(mat[v, u], draw(st.integers(min_value=0, max_value=2)))
    return mat, k


@settings(max_examples=200, deadline=None)
@given(cyclic_matrices())
def test_power_is_primitive_on_cyclic_classes(planted):
    """The premise of ``primitive_first_return = (True,) * k``: on each of
    ``cyclic_index``'s classes, the diagonal block B of A^k, of size n,
    passes Wielandt's test B^((n-1)^2+1) > 0 entrywise."""
    mat, planted_k = planted
    k, blocks = cyclic_index(mat)
    assert k % planted_k == 0
    label = {letter_index(c): r for r, block in enumerate(blocks) for c in block}
    assert sorted(label) == list(range(len(mat)))
    for v, u in zip(*np.nonzero(mat)):  # u -> v steps to the next class
        assert label[v] == (label[u] + 1) % k
    power = np.linalg.matrix_power((mat > 0).astype(np.int64), k)
    for block in blocks:
        idx = [letter_index(c) for c in block]
        sub = np.minimum(power[np.ix_(idx, idx)], 1)
        reach = np.eye(len(idx), dtype=np.int64)
        for _ in range((len(idx) - 1) ** 2 + 1):
            reach = np.minimum(reach @ sub, 1)
        assert reach.all()
    assert pf_eigen(mat).primitive_first_return == (True,) * k


def test_power_iteration_budget(fib_tt):
    with pytest.raises(PowerIterationError):
        pf_eigen(fib_tt.matrix, tol=1e-15, max_iter=2)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_pf_eigen_rejects_tol_not_positive(fib_tt, tol):
    # max_iter=1 would raise PowerIterationError if the loop were entered
    with pytest.raises(InputError, match="tolerance"):
        pf_eigen(fib_tt.matrix, tol=tol, max_iter=1)


# ------------------------------------------------------------- eigenmetric


@pytest.mark.parametrize("name", ["fibonacci", "fibonacci-conj-a", "swap-fibonacci", "swap"])
def test_eigenmetric_homothety(name, all_tts):
    tt = all_tts[name]
    metric = Metric(tt.pf.nu)
    assert metric.volume() == pytest.approx(1.0, abs=1e-12)
    for i, w in enumerate(tt.gmap.edge_images):
        assert path_length(w, metric) == pytest.approx(
            tt.pf.lam * metric.of_pair(i), rel=1e-10
        )
    assert tt.homothety_defect() < 1e-10


def test_homothety_defect_needs_metric(unipotent_tt):
    assert unipotent_tt.pf is None and unipotent_tt.metric is None
    assert not unipotent_tt.expanding
    with pytest.raises(NotIrreducibleError):
        unipotent_tt.homothety_defect()
