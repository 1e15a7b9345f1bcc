"""Graphs, edge paths and metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from traintracks import (
    Graph,
    InputError,
    Metric,
    block_path_length,
    invert_word,
    path_length,
    reduce_word,
    rose,
    unit_metric,
)


def theta():
    """Two vertices joined by three parallel edges."""
    return Graph(2, [(0, 1), (0, 1), (0, 1)])


def test_graph_construction_errors():
    with pytest.raises(InputError):
        Graph(0, [(0, 0)])
    with pytest.raises(InputError):
        Graph(1, [])
    with pytest.raises(InputError):
        Graph(2, [(0, 2)])  # endpoint out of range
    with pytest.raises(InputError):
        Graph(3, [(0, 1)])  # vertex 2 disconnected


def test_rose_shape():
    g = rose(3)
    assert g.is_rose()
    assert g.letters == "abc"
    assert g.betti() == 3
    assert g.origin("a") == g.terminus("a") == 0


def test_theta_incidence():
    g = theta()
    assert not g.is_rose()
    assert g.betti() == 2
    assert g.origin("a") == 0 and g.terminus("a") == 1
    assert g.origin("A") == 1 and g.terminus("A") == 0
    assert g.check_path("aB") == "aB"
    assert g.check_path("aBcA") == "aBcA"
    with pytest.raises(InputError):
        g.check_path("ab")  # both leave vertex 0
    with pytest.raises(InputError):
        g.check_path("ax")


def test_edge_path_tightens():
    g = theta()
    assert reduce_word(g.check_path("aAbB"), g.edge_pairs) == ""
    assert reduce_word(g.check_path("aBbA"), g.edge_pairs) == ""
    r = g.check_path("aB")
    assert g.check_path(invert_word(r)) == "bA"
    assert g.origin(r[0]) == 0 and g.terminus(r[-1]) == 0
    with pytest.raises(InputError):
        g.check_path("aa")
    with pytest.raises(InputError, match="unknown edge letter"):
        g.check_path("aBz")  # an unknown letter past the first is malformed input too


def test_tighten_is_free_reduction_on_rose():
    g = rose(2)
    assert reduce_word(g.check_path("abBA"), g.edge_pairs) == ""
    assert reduce_word(g.check_path("abBa"), g.edge_pairs) == "aa"


def test_metric_validation():
    with pytest.raises(InputError):
        Metric([1.0, 0.0])
    with pytest.raises(InputError):
        Metric([])
    m = Metric([0.5, 2.0])
    assert m.of_letter("a") == m.of_letter("A") == 0.5
    assert m.of_pair(1) == 2.0
    assert m.volume() == 2.5
    assert m.scaled(2.0).volume() == 5.0
    assert len(m) == 2
    assert m.table[ord("b")] == 2.0


@given(st.text(alphabet="abAB", max_size=30))
def test_path_length_matches_letter_sum(w):
    m = Metric([0.25, 1.5])
    expected = sum(m.of_letter(c) for c in w)
    assert path_length(w, m) == pytest.approx(expected, abs=1e-12)


@given(st.text(alphabet="abcABC", max_size=30))
def test_block_lengths_partition_total(w):
    m = Metric([1.0, 2.0, 4.0])
    blocks = [frozenset("a"), frozenset("b"), frozenset("c")]
    parts = [block_path_length(w, m, b) for b in blocks]
    assert sum(parts) == pytest.approx(path_length(w, m), abs=1e-9)


def test_path_length_accepts_edge_path():
    g = rose(2)
    m = unit_metric(g)
    assert path_length(g.check_path("abA"), m) == 3.0
    assert path_length("", m) == 0.0


def test_unit_metric_from_rank_or_graph():
    assert unit_metric(4).volume() == 4.0
    assert unit_metric(rose(2)).volume() == 2.0


@pytest.mark.parametrize("lengths", [["x", "1"], [1.0, math.inf], [1.0, math.nan], [1.0, 0.0], [], [[1.0]]])
def test_metric_rejects_bad_lengths(lengths):
    with pytest.raises(InputError):
        Metric(lengths)


def test_metric_lengths_are_read_only_view():
    m = Metric([1.0, 2.0])
    np.testing.assert_allclose(m.lengths, [1.0, 2.0])
