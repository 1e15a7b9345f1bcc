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
from .graphs import Metric, path_length
from .maps import GraphMap
from .words import ALPHABET, reduce_word


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


def sample_reduced_words(rank: int, count: int, rng: random.Random, min_len: int = 2, max_len: int = 14):
    """Uniform-ish reduced words: each letter avoids cancelling its predecessor."""
    alphabet = ALPHABET[:rank] + ALPHABET[:rank].upper()
    words = []
    for _ in range(count):
        n = rng.randint(min_len, max_len)
        out = [rng.choice(alphabet)]
        while len(out) < n:
            ch = rng.choice(alphabet)
            if ch != out[-1].swapcase():
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
    lam: float | None = None,
) -> CancellationSample:
    """Cancellation measured over random reduced splits p|q.

    With legal_only, only splits whose junction turn is legal are kept; on a
    verified train track these must measure exactly zero, because the image
    of a legal turn never degenerates.
    """
    rank = gmap.graph.edge_pairs
    rng = random.Random(seed)
    if words is None:
        words = sample_reduced_words(rank, samples, rng)
    bound = cancellation_bound(gmap, metric, lam=lam)
    measured = []
    worst = None
    tries = 0
    for word in words:
        word = reduce_word(word, rank)
        if len(word) < 2:
            continue
        for _ in range(20):
            tries += 1
            cut = rng.randint(1, len(word) - 1)
            turn = frozenset({word[cut - 1].swapcase(), word[cut]})
            if legal_only and not gmap.is_legal_turn(turn):
                continue
            lost = measure_split(gmap, metric, word[:cut], word[cut:])
            measured.append(lost)
            if worst is None or lost > worst[2]:
                worst = (word, cut, lost)
            break
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
