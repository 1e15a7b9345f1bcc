"""Self-maps of graphs: edge images, transition matrices, train track checks.

A map sends vertices to vertices and each edge to a tight nonempty edge path,
with the reversed edge going to the reversed path.  The train track property
(iterated edge images stay tight) is decided combinatorially from the finite
orbit of taken turns under the derivative, never by brute-force iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import BudgetExceededError, InputError
from .graphs import Graph, rose
from .words import ALPHABET, DEFAULT_WORD_BUDGET, Automorphism, letter_index, reduce_word, signed_substitution


def _turn(d1: str, d2: str) -> frozenset:
    return frozenset((d1, d2))


def is_degenerate(turn: frozenset) -> bool:
    return len(turn) == 1


@dataclass
class TrainTrackVerdict:
    """Outcome of the train track check.

    When the map fails, ``witness_orbit`` lists a taken turn followed by its
    derivative images down to the first degenerate one, and
    ``fails_at_iterate`` is the power of the map whose edge image first
    cancels.
    """

    is_train_track: bool
    checked_turns: int
    witness_orbit: tuple | None = None
    fails_at_iterate: int | None = None

    def __bool__(self):
        return self.is_train_track


class GraphMap:
    """A self-map of a graph, described by its positive edge images."""

    def __init__(self, graph: Graph, edge_images, vertex_images=None, budget: int = DEFAULT_WORD_BUDGET):
        edge_images = tuple(edge_images)
        if len(edge_images) != graph.edge_pairs:
            raise InputError(f"expected {graph.edge_pairs} edge images, got {len(edge_images)}")
        tight = []
        for i, w in enumerate(edge_images):
            graph.check_path(w)
            t = reduce_word(w, graph.edge_pairs)
            if not t:
                raise InputError(f"image of edge {ALPHABET[i]!r} reduces to the empty path")
            tight.append(t)
        self.graph = graph
        self.edge_images = tuple(tight)
        self.budget = budget
        self._letter_images, self._subst = signed_substitution(self.edge_images)
        if vertex_images is None:
            vertex_images = self._infer_vertex_images()
        self.vertex_images = tuple(vertex_images)
        self._check_endpoints()

    def _infer_vertex_images(self):
        img = [None] * self.graph.vertex_count
        for g in self.graph.letters:
            for letter in (g, g.upper()):
                v = self.graph.origin(letter)
                if img[v] is None:
                    img[v] = self.graph.origin(self.image_of_letter(letter)[0])
        if any(v is None for v in img):
            raise InputError("cannot infer vertex images: isolated vertex")
        return img

    def _check_endpoints(self):
        g = self.graph
        for v, w in enumerate(self.vertex_images):
            if not 0 <= w < g.vertex_count:
                raise InputError(f"vertex image {w} outside 0..{g.vertex_count - 1}")
        for c, path in zip(g.letters, self.edge_images):
            if g.origin(path[0]) != self.vertex_images[g.origin(c)]:
                raise InputError(f"image of edge {c!r} does not start at the image of its origin")
            if g.terminus(path[-1]) != self.vertex_images[g.terminus(c)]:
                raise InputError(f"image of edge {c!r} does not end at the image of its terminus")

    # ------------------------------------------------------------------ paths

    def image_of_letter(self, letter: str) -> str:
        return self._letter_images[letter]

    def map_path(self, word: str, budget: int | None = None) -> str:
        """Image of a tight path, tightened again."""
        cap = self.budget if budget is None else budget
        w = self._subst(word)
        if len(w) > cap:
            raise BudgetExceededError(f"image length {len(w)} exceeds budget {cap}", m_reached=0, partial=word)
        return reduce_word(w, self.graph.edge_pairs)

    def substitute(self, word: str) -> str:
        """Image without tightening (callers must know no cancellation occurs)."""
        return self._subst(word)

    def iterate_path(self, word: str, m: int, budget: int | None = None) -> str:
        cap = self.budget if budget is None else budget
        w = reduce_word(word, self.graph.edge_pairs)
        for j in range(m):
            try:
                w = self.map_path(w, budget=cap)
            except BudgetExceededError as exc:
                raise BudgetExceededError(
                    f"{exc} at application {j + 1}", m_reached=j, partial=w
                ) from None
        return w

    def compose(self, other: "GraphMap") -> "GraphMap":
        """The composition self . other (apply ``other`` first)."""
        if other.graph is not self.graph and (
            other.graph.vertex_count != self.graph.vertex_count or other.graph.endpoints != self.graph.endpoints
        ):
            raise InputError("composition needs maps of the same graph")
        images = tuple(self.map_path(w) for w in other.edge_images)
        vimgs = tuple(self.vertex_images[v] for v in other.vertex_images)
        return GraphMap(self.graph, images, vertex_images=vimgs, budget=self.budget)

    # ------------------------------------------------------------ linear data

    def transition_matrix(self) -> np.ndarray:
        """Unsigned edge-occurrence counts.

        Entry (e, e') counts how often edge e, in either orientation, is
        crossed by the image of e'.  Column sums are the image lengths.
        """
        n = self.graph.edge_pairs
        mat = np.zeros((n, n), dtype=np.int64)
        for j, w in enumerate(self.edge_images):
            for ch in w:
                mat[letter_index(ch), j] += 1
        return mat

    def is_irreducible(self) -> bool:
        return self.find_invariant_subgraph() is None

    def find_invariant_subgraph(self):
        """A proper nonempty set of edge pairs closed under the map, or None.

        Closed means the image of every edge in the set only crosses edges of
        the set; irreducibility is exactly the absence of such a witness.
        """
        return invariant_subgraph(self.transition_matrix())

    # ----------------------------------------------------------------- turns

    def derivative(self, letter: str) -> str:
        """Direction map: the first edge crossed by the image of a direction."""
        return self._letter_images[letter][0]

    def _taken_in_order(self) -> dict:
        """Taken turns, keyed in order of first appearance in the edge images."""
        pairs = ((w[i], w[i + 1]) for w in self.edge_images for i in range(len(w) - 1))
        return dict.fromkeys(_turn(x.swapcase(), y) for x, y in pairs)

    def taken_turns(self) -> frozenset:
        """Turns crossed in the interior of some edge image."""
        return frozenset(self._taken_in_order())

    def turn_orbit(self, turn: frozenset):
        """Derivative orbit of a turn up to its first repeat or degeneracy."""
        orbit = [turn]
        seen = {turn}
        while not is_degenerate(orbit[-1]):
            d1, d2 = tuple(orbit[-1])
            nxt = _turn(self.derivative(d1), self.derivative(d2))
            orbit.append(nxt)
            if nxt in seen:
                break
            seen.add(nxt)
        return orbit

    def is_legal_turn(self, turn: frozenset) -> bool:
        return not is_degenerate(self.turn_orbit(turn)[-1])

    def is_train_track(self) -> TrainTrackVerdict:
        """Decide whether every iterated edge image stays tight.

        Closes the taken turns under the derivative map; the map is a train
        track exactly when no degenerate turn appears in the closure.  The
        search starts from the taken turns in order of first appearance, so
        the witness does not depend on string hashing.
        """
        taken = self._taken_in_order()
        closure = set(taken)
        frontier = list(taken)
        parent = {t: None for t in taken}
        while frontier:
            nxt_frontier = []
            for t in frontier:
                d1, d2 = (tuple(t) * 2)[:2]
                image = _turn(self.derivative(d1), self.derivative(d2))
                if image not in closure:
                    closure.add(image)
                    parent[image] = t
                    nxt_frontier.append(image)
                if is_degenerate(image):
                    chain = [image]
                    node = t
                    while node is not None:
                        chain.append(node)
                        node = parent[node]
                    orbit = tuple(reversed(chain))
                    return TrainTrackVerdict(
                        is_train_track=False,
                        checked_turns=len(closure),
                        witness_orbit=orbit,
                        fails_at_iterate=len(orbit),
                    )
            frontier = nxt_frontier
        return TrainTrackVerdict(is_train_track=True, checked_turns=len(closure))

    def __repr__(self):
        body = ", ".join(f"{g}->{w}" for g, w in zip(self.graph.letters, self.edge_images))
        return f"GraphMap({body})"


def invariant_subgraph(matrix):
    """A proper nonempty set of edge pairs whose images stay inside it, or None.

    The sets are read off the strongly connected components of the occurrence
    digraph (j -> i when ``matrix[i, j] > 0``): a sink component is closed,
    and a matrix of size > 1 is irreducible exactly when it is one component.
    """
    mat = np.asarray(matrix)
    if len(mat) == 1:
        return None
    reach = mat.T != 0
    adj = csr_matrix(reach.astype(np.int8))
    count, labels = connected_components(adj, directed=True, connection="strong")
    if count == 1:
        return None
    for comp in range(count):
        members = np.flatnonzero(labels == comp)
        outside = np.flatnonzero(labels != comp)
        if not reach[np.ix_(members, outside)].any():
            return frozenset(ALPHABET[i] for i in members)
    raise AssertionError("condensation of a finite digraph has a sink component")


def rose_map(auto: Automorphism, budget: int | None = None) -> GraphMap:
    """The rose self-map induced by an automorphism (edges = generators)."""
    return GraphMap(rose(auto.rank), auto.images, budget=auto.budget if budget is None else budget)


def to_automorphism(gmap: GraphMap) -> Automorphism:
    if not gmap.graph.is_rose():
        raise InputError("only rose maps translate directly to automorphisms")
    return Automorphism(gmap.edge_images, rank=gmap.graph.edge_pairs, budget=gmap.budget)
