"""Self-maps of graphs: edge images, transition matrices, train track checks.

A map sends vertices to vertices and each edge to a tight nonempty edge path,
with the reversed edge going to the reversed path.  The train track property
(iterated edge images stay tight) is decided combinatorially from the finite
orbit of taken turns under the derivative, never by brute-force iteration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InputError
from .graphs import Graph, rose
from .words import ALPHABET, DEFAULT_WORD_BUDGET, Automorphism, letter_counts, reduce_word, signed_substitution


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

    def __init__(self, graph: Graph, edge_images):
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
        self._letter_images, self._subst = signed_substitution(self.edge_images)
        self._legal_turns = self._illegal_pairs = None
        self.vertex_images = self._infer_vertex_images()
        self._check_endpoints()

    def _infer_vertex_images(self) -> tuple:
        """Each vertex goes where the image of the first edge leaving it starts
        (every vertex of a connected graph has one)."""
        img = [None] * self.graph.vertex_count
        for g in self.graph.letters:
            for letter in (g, g.upper()):
                v = self.graph.origin(letter)
                if img[v] is None:
                    img[v] = self.graph.origin(self.image_of_letter(letter)[0])
        return tuple(img)

    def _check_endpoints(self):
        g = self.graph
        for c, path in zip(g.letters, self.edge_images):
            if g.origin(path[0]) != self.vertex_images[g.origin(c)]:
                raise InputError(f"image of edge {c!r} does not start at the image of its origin")
            if g.terminus(path[-1]) != self.vertex_images[g.terminus(c)]:
                raise InputError(f"image of edge {c!r} does not end at the image of its terminus")

    # ------------------------------------------------------------------ paths

    def image_of_letter(self, letter: str) -> str:
        return self._letter_images[letter]

    def map_path(self, word: str, budget: int = DEFAULT_WORD_BUDGET) -> str:
        """Image of a tight path, tightened again."""
        if not self.graph.is_rose():
            self.graph.check_path(word)
        w = self._subst(word)
        if len(w) > budget:
            raise BudgetExceededError(f"image length {len(w)} exceeds budget {budget}", m_reached=0, partial=word)
        return reduce_word(w, self.graph.edge_pairs)

    def substitute(self, word: str) -> str:
        """Image without tightening (callers must know no cancellation occurs)."""
        return self._subst(word)

    def iterate_path(self, word: str, m: int, budget: int = DEFAULT_WORD_BUDGET) -> str:
        """m-fold image of an edge path, tightened at every step.

        Raises :class:`InputError` if ``word`` is not an edge path, and
        :class:`BudgetExceededError` carrying the number of completed
        applications and the last in-budget path.
        """
        w = reduce_word(self.graph.check_path(word), self.graph.edge_pairs)
        for j in range(m):
            try:
                w = self.map_path(w, budget=budget)
            except BudgetExceededError as exc:
                raise BudgetExceededError(f"{exc} at application {j + 1}", m_reached=j, partial=w) from None
        return w

    def compose(self, other: "GraphMap") -> "GraphMap":
        """The composition self . other (apply ``other`` first)."""
        if other.graph is not self.graph and (
            other.graph.vertex_count != self.graph.vertex_count or other.graph.endpoints != self.graph.endpoints
        ):
            raise InputError("composition needs maps of the same graph")
        return GraphMap(self.graph, tuple(self.map_path(w) for w in other.edge_images))

    # ------------------------------------------------------------ linear data

    def transition_matrix(self) -> np.ndarray:
        """Unsigned edge-occurrence counts.

        Entry (e, e') counts how often edge e, in either orientation, is
        crossed by the image of e'.  Column sums are the image lengths.
        """
        n = self.graph.edge_pairs
        return np.column_stack([letter_counts(w, n).sum(axis=0) for w in self.edge_images])

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
        while not is_degenerate(orbit[-1]):
            orbit.append(_turn(*map(self.derivative, orbit[-1])))
            if orbit[-1] in orbit[:-1]:
                break
        return orbit

    def is_legal_turn(self, turn: frozenset) -> bool:
        return not is_degenerate(self.turn_orbit(turn)[-1])

    def legal_turns(self) -> frozenset:
        """Every legal turn between two distinct directions at one vertex (computed once): each
        derivative walk stops at a degenerate (illegal), decided or repeated (legal) turn, deciding its path."""
        if self._legal_turns is None:
            g, legal = self.graph, {}
            dirs = g.letters + g.letters.upper()
            for start in [_turn(x, y) for i, x in enumerate(dirs) for y in dirs[i + 1 :] if g.origin(x) == g.origin(y)]:
                path, t = {}, start
                while not (t in legal or t in path or is_degenerate(t)):
                    path[t] = None
                    t = _turn(*map(self.derivative, t))
                legal.update(dict.fromkeys(path, legal.get(t, not is_degenerate(t))))
            self._legal_turns = frozenset(t for t, ok in legal.items() if ok)
        return self._legal_turns

    def illegal_pairs(self) -> re.Pattern:
        """Pattern matching the first letter of each letter pair xy whose
        turn {x^-1, y} is illegal, so overlapping pairs all match (compiled
        once); search ``w + w[0]`` to read the turns of a cyclic word w."""
        if self._illegal_pairs is None:
            legal = self.legal_turns()
            dirs = self.graph.letters + self.graph.letters.upper()
            followers = {x: "".join(y for y in dirs if y != x.swapcase() and _turn(x.swapcase(), y) not in legal)
                         for x in dirs}
            branches = "|".join(f"{x}(?=[{ys}])" for x, ys in followers.items() if ys)
            self._illegal_pairs = re.compile(branches or "(?!)")
        return self._illegal_pairs

    def is_legal_cyclic(self, word: str) -> bool:
        """Whether a nonempty cyclic word has no illegal turn, the turn
        from its last letter back to its first included."""
        return bool(word) and not self.illegal_pairs().search(word + word[0])

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


def tarjan_sink(matrix) -> tuple[list, np.ndarray]:
    """The first component Tarjan's search closes in the occurrence digraph
    (j -> i when ``matrix[i, j] > 0``), and each edge pair's depth in the
    search tree (-1 where not reached).  The search starts at edge 0 and takes
    successors in descending order.  Components close in reverse topological
    order, so the first is a sink; as none has left the stack yet, it is the
    tail of the visiting order.
    """
    mat = np.asarray(matrix)
    n = len(mat)
    succ = [[i for i, x in enumerate(col) if x][::-1] for col in (mat.T > 0).tolist()]
    index, low, depth = [-1] * n, [0] * n, [-1] * n
    index[0] = depth[0] = 0
    order, calls = [0], [(0, iter(succ[0]))]
    while True:
        u, todo = calls[-1]
        for v in todo:
            if index[v] < 0:
                index[v] = low[v] = len(order)
                depth[v] = len(calls)
                order.append(v)
                calls.append((v, iter(succ[v])))
                break
            low[u] = min(low[u], index[v])
        else:
            calls.pop()
            if low[u] == index[u]:
                return order[index[u] :], np.array(depth)
            parent = calls[-1][0]
            low[parent] = min(low[parent], low[u])


def invariant_subgraph(matrix):
    """A proper nonempty set of edge pairs whose images stay inside it, or None:
    the sink component of :func:`tarjan_sink`, unless that is every edge pair."""
    members, _ = tarjan_sink(matrix)
    return None if len(members) == len(matrix) else frozenset(ALPHABET[i] for i in members)


def rose_map(auto: Automorphism) -> GraphMap:
    """The rose self-map induced by an automorphism (edges = generators)."""
    return GraphMap(rose(auto.rank), auto.images)


def to_automorphism(gmap: GraphMap) -> Automorphism:
    if not gmap.graph.is_rose():
        raise InputError("only rose maps translate directly to automorphisms")
    return Automorphism(gmap.edge_images)
