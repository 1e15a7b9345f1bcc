"""Bounded cancellation: a priori bounds and measured cancellation.

Concatenating two reduced words and tightening the image destroys at most a
bounded amount of length, uniform over all splits: the bound is the
Lipschitz constant of the map times the volume of the graph.  Dividing by
lam - 1 bounds how far iterated preimages can drift, which is the constant
that controls projections to axes in the limit forest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InputError, PreconditionError
from .graphs import Graph, Metric, path_length
from .maps import GraphMap
from .words import reduce_word


def lipschitz_constant(gmap: GraphMap, metric: Metric) -> float:
    """Largest metric stretch of a single edge under the map."""
    worst = 0.0
    for letter in gmap.graph.letters:
        worst = max(
            worst,
            path_length(gmap.image_of_letter(letter), metric) / metric.of_letter(letter),
        )
    return worst


@dataclass
class CancellationBound:
    lipschitz: float
    volume: float
    bound: float
    projection_bound: float | None

    def __str__(self):
        proj = (
            f", projection {self.projection_bound:.6g}"
            if self.projection_bound is not None
            else ""
        )
        return f"C <= Lip * vol = {self.lipschitz:.6g} * {self.volume:.6g} = {self.bound:.6g}{proj}"


def cancellation_bound(gmap: GraphMap, metric: Metric, lam: float | None = None) -> CancellationBound:
    """Bound Lip * vol on one-step cancellation; /(lam-1) bounds projections."""
    lip = lipschitz_constant(gmap, metric)
    vol = metric.volume()
    bound = lip * vol
    projection = bound / (lam - 1.0) if lam is not None and lam > 1.0 + 1e-12 else None
    return CancellationBound(lipschitz=lip, volume=vol, bound=bound, projection_bound=projection)


def measure_split(gmap: GraphMap, metric: Metric, p: str, q: str) -> float:
    """Metric length cancelled when the images of p and q are concatenated.

    Both images tp and tq are tight, so the image of pq tightens to
    tp[:len(tp) - k] + tq[k:], with k the length of the longest suffix of tp
    whose inverse is a prefix of tq.  The cancelled length is exactly the
    metric length of that suffix: 0.0 at a junction where nothing cancels,
    so legal splits read exactly 0.
    """
    if not p or not q:
        raise InputError("both sides of a split must be nonempty")
    graph = gmap.graph
    if graph.terminus(p[-1]) != graph.origin(q[0]):
        raise InputError(f"edges {p[-1]!r} and {q[0]!r} do not compose at the split")
    tp = gmap.map_path(p)
    tq = gmap.map_path(q)
    k, most = 0, min(len(tp), len(tq))
    while k < most and tp[-1 - k] == tq[k].swapcase():
        k += 1
    return path_length(tp[len(tp) - k :], metric) if k else 0.0


def sample_reduced_words(graph: Graph, count: int, rng: random.Random, legal=None):
    """Uniform-ish reduced edge paths of 2 to 14 letters: each letter leaves
    from the terminus of its predecessor and does not cancel it.

    Given a set of ``legal`` turns, each letter instead forms a legal turn
    with its predecessor, so the words are legal paths; a word ends early at
    a letter with no continuation.
    """
    alphabet = graph.letters + graph.letters.upper()
    nexts = {x: {y for y in alphabet if graph.origin(y) == graph.terminus(x)} - {x.swapcase()} for x in alphabet}
    if legal is not None:
        nexts = {x: {y for y in ys if frozenset((x.swapcase(), y)) in legal} for x, ys in nexts.items()}
    words = []
    for _ in range(count):
        n = rng.randint(2, 14)
        out = [rng.choice(alphabet)]
        while len(out) < n and nexts[out[-1]]:
            ch = rng.choice(alphabet)
            if ch in nexts[out[-1]]:
                out.append(ch)
        words.append("".join(out))
    return words


@dataclass
class CancellationSample:
    """Measured cancellation over sampled splits, against the a priori bound."""

    count: int
    max_measured: float
    mean_measured: float
    bound: float
    within_bound: bool
    worst: tuple | None
    legal_only: bool


def measure_cancellation(
    gmap: GraphMap,
    metric: Metric,
    samples: int = 200,
    seed: int = 0,
    words=None,
    legal_only: bool = False,
) -> CancellationSample:
    """Cancellation measured over random reduced splits p|q of edge paths.

    Each split is read off the junction of its two tightened images (see
    :func:`measure_split`), so every value is a sum of edge lengths, and
    exactly 0.0 where nothing cancels.

    With legal_only, only splits of legal paths p.q are kept (every turn of
    p.q legal), and sampled words are drawn as legal paths.  On a verified
    train track these read exactly 0.0: the images of p and q are legal and
    meet at the derivative image of the legal junction turn, so nothing
    cancels.  Sampled words are reduced (and legal) by construction;
    caller-supplied ``words`` are checked, reduced and filtered here.
    """
    rank = gmap.graph.edge_pairs
    rng = random.Random(seed)
    legal = gmap.legal_turns() if legal_only else None
    if words is None:
        if samples < 1:
            raise InputError(f"cancellation samples must be >= 1, got {samples}")
        words = sample_reduced_words(gmap.graph, samples, rng, legal=legal)
    else:
        words = [reduce_word(gmap.graph.check_path(w), rank) for w in words]
        if legal_only:
            words = [w for w in words if all(frozenset((x.swapcase(), y)) in legal for x, y in zip(w, w[1:]))]
    bound = cancellation_bound(gmap, metric)
    measured = []
    worst = None
    for word in words:
        if len(word) < 2:
            continue
        cut = rng.randint(1, len(word) - 1)
        lost = measure_split(gmap, metric, word[:cut], word[cut:])
        measured.append(lost)
        if worst is None or lost > worst[2]:
            worst = (word, cut, lost)
    if not measured:
        raise PreconditionError("no admissible splits were found")
    max_measured = max(measured)
    return CancellationSample(
        count=len(measured),
        max_measured=max_measured,
        mean_measured=sum(measured) / len(measured),
        bound=bound.bound,
        within_bound=max_measured <= bound.bound + 1e-9,
        worst=worst,
        legal_only=legal_only,
    )
