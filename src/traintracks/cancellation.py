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

    Both images are tightened separately first, so the measured value is
    exactly the cancellation at the junction.
    """
    if not p or not q:
        raise InputError("both sides of a split must be nonempty")
    tp = gmap.map_path(p)
    tq = gmap.map_path(q)
    whole = gmap.map_path(p + q)
    lost = path_length(tp, metric) + path_length(tq, metric) - path_length(whole, metric)
    return lost / 2.0


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

    With legal_only, only splits of legal paths p.q are kept (every turn of
    p.q legal), and sampled words are drawn as legal paths.  On a verified
    train track these must measure exactly zero: the images of p and q are
    legal and meet at the derivative image of the legal junction turn, so
    nothing cancels.
    """
    rank = gmap.graph.edge_pairs
    rng = random.Random(seed)
    legal = gmap.legal_turns() if legal_only else None
    if words is None:
        if samples < 1:
            raise InputError(f"cancellation samples must be >= 1, got {samples}")
        words = sample_reduced_words(gmap.graph, samples, rng, legal=legal)
    else:
        words = [gmap.graph.check_path(w) for w in words]
    bound = cancellation_bound(gmap, metric)
    measured = []
    worst = None
    for word in words:
        word = reduce_word(word, rank)
        if len(word) < 2:
            continue
        if legal_only and any(frozenset((x.swapcase(), y)) not in legal for x, y in zip(word, word[1:])):
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
