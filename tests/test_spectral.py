"""Dominant eigendata: stretch factors, eigenvectors, cyclic structure.

Closed-form oracles: the Fibonacci matrix [[1,1],[1,0]] has characteristic
polynomial x^2 - x - 1 with root the golden ratio, and the rank-4 swap has
x^4 - x^2 - 1, so its stretch is the square root of the golden ratio.  The
generic oracles, on random irreducible matrices of size up to 26 and with
planted cyclic index, are the spectral radius and the exact Collatz-Wielandt
bracket min_e (nu A)_e / nu_e <= lam <= max_e (nu A)_e / nu_e of the returned
nu, summed in rationals.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from traintracks import (
    Automorphism,
    Metric,
    NotIrreducibleError,
    PreconditionError,
    analyze_train_track,
    corpus,
    cyclic_index,
    is_simplicial,
    path_length,
    pf_eigen,
    rose_map,
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
    assert pf.expanding


def test_rank4_stretch_factor(rank4_tt):
    pf = rank4_tt.pf
    lam = math.sqrt(PHI)
    assert pf.lam == pytest.approx(lam, abs=1e-12)
    assert pf.k == 2
    assert pf.blocks == (("a", "b"), ("c", "d"))
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


def test_plastic_number_stretch_factor():
    """a -> b, b -> c, c -> ab has characteristic polynomial x^3 - x - 1,
    whose real root is the plastic number 1.3247179572447460259609..."""
    tt = analyze_train_track(rose_map(Automorphism(["b", "c", "ab"])))
    plastic = 1.3247179572447460
    assert abs(tt.pf.lam - plastic) <= np.spacing(plastic)
    assert tt.pf.k == 1
    assert_pf_quality(tt.pf, tt.matrix)


def test_seventeen_edge_map_with_small_spectral_gap():
    """|lambda_2| / lambda is about 1 - 1e-6 here, with k = 1: an iteration
    to a gap needs millions of steps, the eigensolve none."""
    images = ["l", "ppp", "g", "f", "b", "a", "o", "d", "c", "k", "ce", "q", "no", "h", "m", "bbin", "j"]
    tt = analyze_train_track(rose_map(Automorphism(images)))
    assert tt.pf.k == 1
    assert tt.pf.lam == pytest.approx(2.44956954, abs=5e-9)
    assert_pf_quality(tt.pf, tt.matrix)


def test_pf_quality_on_bundled_and_family_maps(family_autos):
    autos = [corpus.get(name) for name in corpus.REGISTRY] + family_autos
    tts = [analyze_train_track(rose_map(auto)) for auto in autos]
    with_pf = [tt for tt in tts if tt.pf is not None]
    assert len(with_pf) == 33
    for tt in with_pf:
        assert tt.pf.iterations == 0
        assert_pf_quality(tt.pf, tt.matrix)
        assert tt.pf.residual <= 1e-14 * tt.pf.lam


def test_one_by_one_matrix():
    pf = pf_eigen([[3]])
    assert pf.lam == 3.0
    assert pf.k == 1
    assert list(pf.nu) == [1.0]
    # the rank-1 rose a -> A: a permutation, lam = 1
    pf = pf_eigen(rose_map(Automorphism(["A"])).transition_matrix())
    assert (pf.lam, pf.k, pf.blocks, list(pf.nu), pf.residual) == (1.0, 1, (("a",),), [1.0], 0.0)
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


def assert_pf_quality(pf, mat):
    """Relative residual at most 1e-13, nu positive and summing to 1, and lam
    within 2 ulps of the exact Collatz-Wielandt bracket of its own nu."""
    mat = np.asarray(mat)
    assert (pf.nu > 0).all()
    assert pf.nu.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(np.abs(pf.nu @ mat - pf.lam * pf.nu).max()) <= 1e-13 * pf.lam
    nu = [Fraction(float(x)) for x in pf.nu]
    n = len(nu)
    ratios = [sum(nu[i] * int(mat[i, j]) for i in range(n)) / nu[j] for j in range(n)]
    slack = 2 * Fraction(float(np.spacing(pf.lam)))
    assert min(ratios) - slack <= Fraction(pf.lam) <= max(ratios) + slack


@st.composite
def irreducible_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=26))
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


@settings(max_examples=120, deadline=None)
@given(st.one_of(irreducible_matrices(), cyclic_matrices().map(lambda planted: planted[0])))
def test_pf_matches_dense_eigensolver(mat):
    """With k > 1 eigenvalues on the spectral circle, too, the Perron root
    is the one picked."""
    pf = pf_eigen(mat)
    dense = np.max(np.abs(np.linalg.eigvals(mat.astype(float))))
    assert pf.lam == pytest.approx(float(dense), rel=1e-9, abs=1e-9)
    assert_pf_quality(pf, mat)


@settings(max_examples=200, deadline=None)
@given(cyclic_matrices())
def test_power_is_primitive_on_cyclic_classes(planted):
    """Frobenius normal form for an irreducible matrix of period k: on each of
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


@pytest.mark.parametrize(
    "name, missing",
    [
        ("fibonacci-conj-b", "a verified train track"),
        ("identity", "an irreducible transition matrix"),
        ("swap", "an expanding stretch factor"),
    ],
)
def test_require_names_the_stage_and_what_is_missing(name, missing):
    tt = analyze_train_track(rose_map(corpus.get(name)))
    with pytest.raises(PreconditionError, match=f"^the probe stage needs {missing}$"):
        tt.require("probe")
    if name == "swap":
        tt.require("probe", expanding=False)  # lam = 1 is in the limit-length domain
