"""Graph self-maps: transition data, turns, and the train track check.

The train track verdict is produced combinatorially (derivative closure of
taken turns); the oracle here is the definition itself: iterate the raw
letter substitution on each edge and watch for the first free cancellation.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from traintracks import (
    BudgetExceededError,
    Graph,
    GraphMap,
    InputError,
    reduce_word,
    rose,
    rose_map,
    to_automorphism,
)
from traintracks import corpus

CORPUS = sorted(corpus.REGISTRY)


def brute_force_tt(gmap, depth=8):
    """First iterate (up to ``depth``) at which some edge image cancels, or None.

    The path of edge e under the m-th power of the map is the m-fold raw
    substitution; the map is a train track on this horizon exactly when every
    such path is already tight.
    """
    rank = gmap.graph.edge_pairs
    first_failure = None
    for e in gmap.graph.letters:
        w = e
        for m in range(1, depth + 1):
            w = gmap.substitute(w)
            if reduce_word(w, rank) != w:
                if first_failure is None or m < first_failure:
                    first_failure = m
                break
    return first_failure


# ------------------------------------------------------------ linear data

FROZEN_MATRICES = {
    "fibonacci": [[1, 1], [1, 0]],
    "fibonacci-conj-a": [[1, 1], [1, 0]],
    "fibonacci-conj-b": [[1, 1], [3, 2]],
    "identity": [[1, 0], [0, 1]],
    "swap": [[0, 1], [1, 0]],
    "swap-fibonacci": [[0, 0, 1, 1], [0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
    "unipotent": [[1, 1], [0, 1]],
}


@pytest.mark.parametrize("name", CORPUS)
def test_transition_matrices_frozen(name):
    gmap = rose_map(corpus.get(name))
    assert np.array_equal(gmap.transition_matrix(), np.array(FROZEN_MATRICES[name]))


@pytest.mark.parametrize("name", CORPUS)
def test_transition_columns_sum_to_image_lengths(name):
    gmap = rose_map(corpus.get(name))
    mat = gmap.transition_matrix()
    for j, w in enumerate(gmap.edge_images):
        assert mat[:, j].sum() == len(w)


FROZEN_IRREDUCIBLE = {
    "fibonacci": True,
    "fibonacci-conj-a": True,
    "fibonacci-conj-b": True,
    "identity": False,
    "swap": True,
    "swap-fibonacci": True,
    "unipotent": False,
}


@pytest.mark.parametrize("name", CORPUS)
def test_irreducibility_frozen(name):
    gmap = rose_map(corpus.get(name))
    assert gmap.is_irreducible() == FROZEN_IRREDUCIBLE[name]


def test_invariant_subgraph_witnesses():
    uni = rose_map(corpus.unipotent_rank2())
    assert uni.find_invariant_subgraph() == frozenset("a")

    ident = rose_map(corpus.identity_rank2())
    witness = ident.find_invariant_subgraph()
    assert witness is not None and 0 < len(witness) < 2

    fib = rose_map(corpus.fibonacci())
    assert fib.find_invariant_subgraph() is None


# ------------------------------------------------------------------ turns


def test_fibonacci_derivative_frozen(fib_tt):
    gmap = fib_tt.gmap
    assert gmap.derivative("a") == "a"
    assert gmap.derivative("b") == "a"
    assert gmap.derivative("A") == "B"
    assert gmap.derivative("B") == "A"


def test_fibonacci_taken_turns(fib_tt):
    assert fib_tt.gmap.taken_turns() == frozenset({frozenset({"A", "b"})})


def test_fibonacci_legal_turns(fib_tt):
    gmap = fib_tt.gmap
    turns = [frozenset(p) for p in ("ab", "aB", "Ab", "AB", "aA", "bB")]
    for t in turns:
        assert gmap.is_legal_turn(t) == (t != frozenset("ab"))


def test_turn_orbit_shapes(fib_tt):
    gmap = fib_tt.gmap
    orbit = gmap.turn_orbit(frozenset("ab"))
    assert orbit == [frozenset("ab"), frozenset("a")]
    orbit = gmap.turn_orbit(frozenset({"A", "b"}))
    assert orbit[0] == frozenset({"A", "b"})
    assert orbit[-1] in orbit[:-1]  # ended on a repeat, not a degeneracy


# -------------------------------------------------------- train track check


@pytest.mark.parametrize("name", CORPUS)
def test_verdict_matches_brute_force(name):
    gmap = rose_map(corpus.get(name))
    verdict = gmap.is_train_track()
    failure = brute_force_tt(gmap, depth=8)
    assert verdict.is_train_track == (failure is None)
    if failure is not None:
        assert verdict.fails_at_iterate == failure


def test_conjugate_b_failure_witness(conj_b_tt):
    verdict = conj_b_tt.verdict
    assert not verdict.is_train_track
    assert not verdict  # __bool__ mirrors the verdict
    assert verdict.fails_at_iterate == 2
    orbit = verdict.witness_orbit
    gmap = conj_b_tt.gmap
    assert orbit[0] in gmap.taken_turns()
    assert len(orbit[-1]) == 1  # ends degenerate
    for t, nxt in zip(orbit, orbit[1:]):
        d = frozenset(gmap.derivative(x) for x in t)
        assert d == nxt


def test_conjugate_b_witness_independent_of_hash_seed():
    import os
    import subprocess
    import sys

    import traintracks

    code = (
        "from traintracks import corpus, rose_map\n"
        "v = rose_map(corpus.fibonacci_conjugate_b()).is_train_track()\n"
        "print([sorted(t) for t in v.witness_orbit], v.fails_at_iterate)\n"
    )
    src = os.path.dirname(os.path.dirname(traintracks.__file__))
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[['a', 'b'], ['B']] 2", seed


def test_fibonacci_verdict_details(fib_tt):
    verdict = fib_tt.verdict
    assert verdict.is_train_track
    assert verdict.checked_turns == 3
    assert verdict.witness_orbit is None and verdict.fails_at_iterate is None


# ------------------------------------------------------------- path images


@given(st.text(alphabet="abAB", max_size=15))
def test_map_path_is_reduced_substitution(w):
    gmap = rose_map(corpus.fibonacci())
    expected = reduce_word(gmap.substitute(reduce_word(w, 2)), 2)
    assert gmap.map_path(reduce_word(w, 2)) == expected


def test_iterate_path_budget(fib_tt):
    gmap = fib_tt.gmap
    with pytest.raises(BudgetExceededError) as exc:
        gmap.iterate_path("a", 30, budget=50)
    assert exc.value.m_reached > 0
    assert exc.value.partial


def test_compose_is_square(fib_tt):
    gmap = fib_tt.gmap
    sq = gmap.compose(gmap)
    for e in "ab":
        assert sq.image_of_letter(e) == gmap.iterate_path(e, 2)
    with pytest.raises(InputError):
        gmap.compose(rose_map(corpus.swap_fibonacci_rank4()))


# -------------------------------------------------- non-rose graphs, wiring


def theta():
    return Graph(2, [(0, 1), (0, 1), (0, 1)])


def test_theta_edge_rotation_is_train_track():
    gmap = GraphMap(theta(), ("b", "c", "a"))
    assert gmap.vertex_images == (0, 1)
    assert gmap.taken_turns() == frozenset()
    assert gmap.is_train_track().is_train_track
    assert np.array_equal(
        gmap.transition_matrix(), np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    )
    assert gmap.is_irreducible()


def test_graph_map_rejects_bad_images():
    with pytest.raises(InputError):
        GraphMap(theta(), ("ab", "b", "c"))  # "ab" is not a path
    with pytest.raises(InputError):
        GraphMap(theta(), ("b", "c", "a"), vertex_images=(0, 0))  # endpoint clash
    with pytest.raises(InputError):
        GraphMap(rose(2), ("aA", "b"))  # image collapses
    with pytest.raises(InputError):
        GraphMap(rose(2), ("ab",))  # wrong count


def test_to_automorphism_round_trip(fib):
    gmap = rose_map(fib)
    auto = to_automorphism(gmap)
    assert auto.images == fib.images
    with pytest.raises(InputError):
        to_automorphism(GraphMap(theta(), ("b", "c", "a")))
