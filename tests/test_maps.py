"""Graph self-maps: transition data, turns, and the train track check.

The train track verdict is produced combinatorially (derivative closure of
taken turns); the oracle here is the definition itself: iterate the raw
letter substitution on each edge and watch for the first free cancellation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from traintracks import (
    BudgetExceededError,
    Graph,
    GraphMap,
    InputError,
    analyze_train_track,
    parse_input,
    reduce_word,
    rose,
    rose_map,
    to_automorphism,
)
from traintracks import corpus
from traintracks.maps import invariant_subgraph
from traintracks.words import ALPHABET

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
    tt = analyze_train_track(rose_map(corpus.get(name)))
    assert tt.irreducible == FROZEN_IRREDUCIBLE[name]
    assert (invariant_subgraph(tt.matrix) is None) == FROZEN_IRREDUCIBLE[name]


def test_invariant_subgraph_witnesses():
    uni = analyze_train_track(rose_map(corpus.unipotent_rank2()))
    assert uni.invariant == frozenset("a")

    ident = analyze_train_track(rose_map(corpus.identity_rank2()))
    witness = ident.invariant
    assert witness is not None and 0 < len(witness) < 2

    fib = analyze_train_track(rose_map(corpus.fibonacci()))
    assert fib.invariant is None


# The first three have more than one sink component, and a search taking
# successors in ascending order would close a different one first: they pin
# the descending order, and with it which invariant subgraph reports name.
@pytest.mark.parametrize(
    "matrix, expected",
    [
        ([[0, 1, 0, 1, 0], [0, 1, 0, 0, 0], [0, 1, 1, 1, 0], [1, 1, 0, 1, 0], [1, 1, 0, 0, 1]], "e"),
        (
            [
                [0, 0, 0, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 0, 1, 0],
                [0, 0, 0, 1, 0, 1, 0, 0],
                [0, 0, 1, 0, 0, 1, 0, 0],
                [1, 0, 0, 0, 1, 0, 0, 0],
                [1, 0, 1, 0, 0, 0, 0, 1],
                [0, 1, 1, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0, 0, 0],
            ],
            "bcdfgh",
        ),
        (
            [
                [1, 0, 1, 0, 0, 0, 0, 1],
                [0, 0, 0, 0, 0, 0, 0, 0],
                [1, 0, 0, 0, 1, 0, 0, 0],
                [0, 1, 0, 0, 0, 0, 1, 0],
                [1, 0, 0, 0, 0, 0, 0, 0],
                [1, 1, 1, 0, 1, 1, 0, 0],
                [0, 0, 0, 1, 0, 0, 0, 1],
                [1, 0, 0, 0, 1, 0, 0, 0],
            ],
            "dg",
        ),
        ([[1, 0], [0, 1]], "a"),  # identity
        ([[1, 1], [0, 1]], "a"),  # unipotent
        ([[1, 0], [1, 1]], "b"),
    ],
)
def test_invariant_subgraph_cases(matrix, expected):
    assert invariant_subgraph(np.array(matrix)) == frozenset(expected)


def reaches(adj, start):
    """Edge pairs reachable from ``start`` along j -> i when adj[i, j]."""
    seen, todo = {start}, [start]
    while todo:
        j = todo.pop()
        for i in np.flatnonzero(adj[:, j]):
            if i not in seen:
                seen.add(int(i))
                todo.append(int(i))
    return seen


@st.composite
def occurrence_matrices(draw):
    """Nonnegative matrices of size 1-26 with up to 3n positive entries."""
    n = draw(st.integers(min_value=1, max_value=26))
    cells = st.tuples(st.integers(min_value=0, max_value=n - 1), st.integers(min_value=0, max_value=n - 1))
    mat = np.zeros((n, n), dtype=np.int64)
    for i, j in draw(st.lists(cells, max_size=3 * n)):
        mat[i, j] += 1
    return mat


@settings(max_examples=300, deadline=None)
@given(occurrence_matrices())
def test_invariant_subgraph_is_a_closed_strong_component(mat):
    """The returned set is closed under the map (no edge leaves it) and
    strongly connected, and it is None exactly when the whole occurrence
    digraph is strongly connected; checked by plain reachability."""
    adj = mat > 0
    n = len(mat)
    inv = invariant_subgraph(mat)
    whole = all(len(reaches(adj, j)) == n for j in range(n))
    assert (inv is None) == whole
    if inv is not None:
        members = {ALPHABET.index(c) for c in inv}
        assert 0 < len(members) < n
        for j in members:
            assert reaches(adj, j) == members


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


def test_fibonacci_illegal_pairs(fib_tt):
    """The only illegal turn is {a, b}: the letter pairs Ab and Ba."""
    pattern = fib_tt.gmap.illegal_pairs()
    pairs = [x + y for x in "abAB" for y in "abAB" if y != x.swapcase()]
    assert [p for p in pairs if pattern.match(p)] == ["Ab", "Ba"]
    assert [hit.start() for hit in pattern.finditer("aBab" + "a")] == [1]


def test_fibonacci_legal_cyclic_words(fib_tt):
    """A cyclic word is legal when no turn is, the one from its last letter
    back to its first included; the empty word is not."""
    legal = fib_tt.gmap.is_legal_cyclic
    assert legal("a") and legal("aab") and legal("ba")
    assert not legal("Ab") and not legal("")
    assert not legal("aB")  # only its wrap-around pair Ba is illegal


@st.composite
def rose_maps(draw):
    """Rose maps of rank 2-6 with short random edge images, most of them not
    train tracks, and positive maps conjugated by a letter, none of which are."""
    rank = draw(st.integers(2, 6))
    letters = "abcdef"[:rank] + "ABCDEF"[:rank]
    word = st.text(letters, min_size=1, max_size=5).map(lambda w: reduce_word(w, rank)).filter(bool)
    images = draw(st.lists(word, min_size=rank, max_size=rank))
    if draw(st.booleans()):
        h = draw(st.sampled_from(letters))
        images = [h + reduce_word(w.lower(), rank) + h.swapcase() for w in images]
    return GraphMap(rose(rank), images)


@settings(max_examples=50, deadline=None)
@given(rose_maps())
def test_legal_turns_match_turn_orbits(gmap):
    """The shared walks decide every turn as its own derivative orbit does."""
    dirs = gmap.graph.letters + gmap.graph.letters.upper()
    turns = {frozenset((x, y)) for x in dirs for y in dirs if x != y}
    assert gmap.legal_turns() == {t for t in turns if gmap.is_legal_turn(t)}


def test_legal_turns_pair_directions_at_one_vertex(subdivided_fib):
    """Off a rose, only directions with a common origin form turns."""
    gmap = parse_input(subdivided_fib).gmap
    g = gmap.graph
    dirs = g.letters + g.letters.upper()
    turns = {frozenset((x, y)) for x in dirs for y in dirs if x != y and g.origin(x) == g.origin(y)}
    assert gmap.legal_turns() == {t for t in turns if gmap.is_legal_turn(t)}
    assert len(turns) == 7 and gmap.legal_turns() == turns - {frozenset("ac")}  # a and c both map to ab


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


def test_iterate_path_rejects_non_paths():
    with pytest.raises(InputError):
        rose_map(corpus.fibonacci()).iterate_path("x", 2)
    with pytest.raises(InputError):
        GraphMap(theta(), ("b", "c", "a")).iterate_path("ab", 1)  # a and b both leave vertex 0


def test_map_path_rejects_non_paths_off_roses(subdivided_fib):
    """a ends at vertex 1 and starts at vertex 0, so aa is no path."""
    gmap = parse_input(subdivided_fib).gmap
    assert gmap.map_path("ab") == "abc"
    with pytest.raises(InputError, match="do not compose"):
        gmap.map_path("aa")


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
    assert invariant_subgraph(gmap.transition_matrix()) is None


def test_graph_map_rejects_bad_images():
    with pytest.raises(InputError):
        GraphMap(theta(), ("ab", "b", "c"))  # "ab" is not a path
    with pytest.raises(InputError, match="image of edge 'c' does not start at the image of its origin"):
        GraphMap(theta(), ("b", "c", "A"))  # endpoint clash
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
