"""Finite graphs with involutive oriented edges, edge paths and metrics.

Oriented edges reuse the word alphabet: the i-th edge pair is written with
the i-th lowercase letter of ``ALPHABET`` and its reversal with the matching
uppercase letter.  On a rose, edge paths and group words coincide, so the
word routines do all the heavy lifting.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .words import ALPHABET, MAX_RANK, letter_counts, letter_index


class Graph:
    """A connected graph given by a vertex count and edge-pair endpoints.

    ``endpoints[i] = (origin, terminus)`` describes the positively oriented
    i-th edge.  The reversal swaps the endpoints; the involution has no fixed
    oriented edge by construction.
    """

    def __init__(self, vertex_count: int, endpoints):
        endpoints = [tuple(pair) for pair in endpoints]
        if vertex_count < 1:
            raise InputError("graph needs at least one vertex")
        if not endpoints:
            raise InputError("graph needs at least one edge")
        if len(endpoints) > MAX_RANK:
            raise InputError(f"at most {MAX_RANK} edge pairs are supported by the letter encoding")
        for i, (o, t) in enumerate(endpoints):
            if not (0 <= o < vertex_count and 0 <= t < vertex_count):
                raise InputError(f"edge {ALPHABET[i]!r} has endpoints ({o}, {t}) outside 0..{vertex_count - 1}")
        self.vertex_count = vertex_count
        self.edge_pairs = len(endpoints)
        self.endpoints = tuple(endpoints)
        # origin of each oriented edge, indexed by letter
        self._origin = {}
        for g, (o, t) in zip(ALPHABET, endpoints):
            self._origin[g] = o
            self._origin[g.upper()] = t
        if not self._connected():
            raise InputError("graph is not connected")

    def _connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for o, t in self.endpoints:
                for u, w in ((o, t), (t, o)):
                    if u == v and w not in seen:
                        seen.add(w)
                        stack.append(w)
        return len(seen) == self.vertex_count

    @property
    def letters(self) -> str:
        return ALPHABET[: self.edge_pairs]

    def origin(self, letter: str) -> int:
        return self._origin[letter]

    def terminus(self, letter: str) -> int:
        return self._origin[letter.swapcase()]

    def check_path(self, word: str) -> str:
        """Return ``word`` if it is an edge path, else raise :class:`InputError`.

        >>> rose(2).check_path("abA")
        'abA'
        """
        for ch in word:
            if ch not in self._origin:
                raise InputError(f"unknown edge letter {ch!r}")
        for i in range(len(word) - 1):
            if self.terminus(word[i]) != self.origin(word[i + 1]):
                raise InputError(
                    f"edges {word[i]!r} and {word[i + 1]!r} do not compose at position {i}"
                )
        return word

    def is_rose(self) -> bool:
        return self.vertex_count == 1

    def __repr__(self):
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_pairs})"


def rose(rank: int) -> Graph:
    """The rose with ``rank`` loop edges at a single vertex."""
    if not 1 <= rank <= MAX_RANK:
        raise InputError(f"rank must be in 1..{MAX_RANK}, got {rank}")
    return Graph(1, [(0, 0)] * rank)


class Metric:
    """Positive edge lengths, one per edge pair, orientation independent."""

    def __init__(self, lengths):
        try:
            lengths = np.asarray(lengths, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"edge lengths must be numbers: {exc}") from None
        if lengths.ndim != 1 or len(lengths) == 0:
            raise InputError("metric needs a flat, nonempty length vector")
        if not np.all(np.isfinite(lengths) & (lengths > 0)):
            raise InputError("edge lengths must be positive and finite")
        self.lengths = lengths
        # per-letter weights indexed by character code (both orientations)
        self.table = np.zeros(128, dtype=float)
        for g, val in zip(ALPHABET, lengths):
            self.table[ord(g)] = val
            self.table[ord(g.upper())] = val

    def of_letter(self, letter: str) -> float:
        return float(self.table[ord(letter)])

    def volume(self) -> float:
        """Total length of the graph: the sum over edge pairs."""
        return float(self.lengths.sum())

    def scaled(self, factor: float) -> "Metric":
        return Metric(self.lengths * factor)

    def __len__(self):
        return len(self.lengths)

    def __repr__(self):
        return f"Metric({self.lengths.tolist()})"


def unit_metric(graph_or_rank) -> Metric:
    n = graph_or_rank.edge_pairs if isinstance(graph_or_rank, Graph) else int(graph_or_rank)
    return Metric(np.ones(n))


def path_length(word: str, metric: Metric) -> float:
    """Metric length of an edge path; for a cyclically reduced word on a rose,
    the translation length of its conjugacy class."""
    if not word:
        return 0.0
    codes = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
    return float(metric.table[codes].sum())


def block_path_length(word: str, metric: Metric, block_letters) -> float:
    """Metric length of the part of a path lying on a given set of edge pairs,
    summed in letter order, so it does not depend on string hashing."""
    idx = [letter_index(g) for g in sorted(block_letters)]
    return float(letter_counts(word, len(metric)).sum(axis=0)[idx] @ metric.lengths[idx])
