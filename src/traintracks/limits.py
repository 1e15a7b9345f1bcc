"""Iterated translation lengths and their normalized limits.

For an expanding irreducible train track with stretch factor lam and
eigenmetric d, the normalized lengths lam^-m * |psi^m(x)|_d are pointwise
non-increasing in m; their infimum is the translation length of x in the
limit forest.  Convergence is judged on the subsequence at stride k (the
cyclic index), because the limit splits into k factors that the map permutes
cyclically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, InternalConsistencyError, PreconditionError
from .graphs import Metric, block_path_length, path_length
from .spectral import TrainTrackData, pf_eigen
from .words import (
    DEFAULT_WORD_BUDGET, Automorphism, check_word, cyclic_reduce, letter_counts, letter_index, reduce_word,
)

MONOTONE_SLACK = 1e-9

# Certificates of limit_length that give the limit in closed form.
EXACT_CERTIFICATES = ("legal", "periodic", "splitting")

# Word budget of the orbits in conjugacy sweeps, shared by the uniform
# cross-check of the convergence constants, and the growth classifier's
# least horizon in those sweeps.
SWEEP_BUDGET = 200_000
SWEEP_M = 24

# Allowed alt-metric limit of a class whose limit length vanishes.
UNIFORM_TOL = 1e-5


class CyclicOrbit:
    """Lazily extended orbit of a conjugacy class under an automorphism.

    Stores cyclically reduced representatives of psi^m(x); stops extending
    once the next representative would exceed the length budget and records
    that fact instead of raising.  Given the map's train track ``tt``, words
    past the first legal one, ``legal_from``, are plain substitutions, as
    legal circuits map to legal ones without cancellation, and lengths step
    count vectors ``counts[m]`` (None before) by the transition matrix.
    """

    def __init__(self, auto: Automorphism, word: str, budget: int = DEFAULT_WORD_BUDGET,
                 tt: TrainTrackData | None = None):
        core, _ = cyclic_reduce(reduce_word(check_word(word, auto.rank), auto.rank))
        self.auto = auto
        self.budget = budget
        self.cut = None  # the first m over the budget, once a word or a length met it
        self.tt = tt if tt is not None and tt.verdict.is_train_track else None
        self.words, self.legal_from, self.lengths, self.counts = [], None, [], []
        self._push(core)

    @property
    def truncated(self) -> bool:
        return self.cut is not None

    def _push(self, w: str):
        if self.legal_from is None and self.tt is not None and self.tt.gmap.is_legal_cyclic(w):
            self.legal_from = len(self.words)
        self.words.append(w)

    def word_at(self, m: int):
        """The representative at time m, or None if the budget cut us off."""
        if self.cut is not None and m >= self.cut:
            return None
        subst = self.auto._subst
        while len(self.words) <= m:
            w, legal = self.words[-1], self.legal_from is not None
            # past legality nothing cancels, so the image's exact length is checked before it is built
            over = legal and len(w) * subst.max_growth > self.budget and subst.output_length(w) > self.budget
            nxt = None if over else (subst(w) if legal else self.auto.apply_cyclic(w))
            if over or len(nxt) > self.budget:
                self.cut = len(self.words)
                return None
            self._push(nxt)
        return self.words[m]

    def length_at(self, m: int):
        """|psi^m(x)|, or None if the budget cut us off."""
        if self.cut is not None and m >= self.cut:
            return None
        while len(self.lengths) <= m:
            counts = self.counts[-1] if self.counts else None
            if counts is None:
                w = self.word_at(len(self.lengths))
                if w is None:
                    return None
                n = len(w)
                if self.legal_from == len(self.lengths):
                    counts = letter_counts(w, self.auto.rank).sum(axis=0)
            else:
                counts = self.tt.matrix @ counts
                n = int(counts.sum())
                if n > self.budget:
                    self.cut = len(self.lengths)
                    return None
            self.counts.append(counts)
            self.lengths.append(n)
        return self.lengths[m]

    def metric_length_at(self, m: int, metric: Metric):
        """|psi^m(x)| in ``metric``: its dot product with the count vector once
        the orbit is legal, else the word's path length; None past the cut."""
        if self.length_at(m) is None:
            return None
        counts = self.counts[m]
        return path_length(self.word_at(m), metric) if counts is None else float(metric.lengths @ counts)


@dataclass
class GrowthClass:
    """Exponential-versus-polynomial verdict for one conjugacy class."""

    kind: str  # "exponential" or "polynomial"
    rate: float | None = None
    degree: int | None = None
    statistic: float | None = None
    escalated: bool = False
    low_confidence: bool = False

    @property
    def is_exponential(self) -> bool:
        return self.kind == "exponential"

    def label(self) -> str:
        if self.is_exponential:
            return f"Exponential({self.rate:.9g})"
        deg = "?" if self.degree is None else self.degree
        return f"Polynomial({deg})"


def _tail_is_flat(values) -> bool:
    tail = values[-10:]
    return len(tail) >= 3 and max(tail) - min(tail) <= 0.05 * max(abs(v) for v in tail)


def polynomial_degree(lengths):
    """Least d <= 6 whose d-th finite differences settle (last 10 values within 5%)."""
    vals = [float(v) for v in lengths]
    for d in range(7):
        if _tail_is_flat(vals):
            return d
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return None


def classify_growth(
    auto: Automorphism,
    word: str,
    M: int = 40,
    eps: float = 0.05,
    orbit: CyclicOrbit | None = None,
) -> GrowthClass:
    """Classify the conjugacy growth of a class from raw reduced lengths.

    The log-rate statistic is the mean of log(length at m)/m over the last
    quartile of the computed range; it reads exponential above log1p(eps)
    if that quartile reaches a new longest length, which a bounded orbit's
    never does.  A statistic in (eps/5, eps), (0.01, 0.05) at the default
    eps, escalates once from M to 2M for more data.  The finite-difference
    polynomial detector takes precedence when it certifies a settled d-th
    difference; exponential orbits have geometrically growing differences
    and are never captured by it.
    """
    if M < 1:
        raise InputError(f"iterate horizon M must be >= 1, got {M}")
    if orbit is None:
        orbit = CyclicOrbit(auto, word)
    escalated, cap = False, M
    while True:
        lengths = []
        for m in range(cap + 1):
            n = orbit.length_at(m)
            if n is None:
                break
            lengths.append(n)
        m_eff = len(lengths) - 1
        if m_eff < 1 or max(lengths) == 0:
            return GrowthClass(kind="polynomial", degree=0, statistic=0.0, low_confidence=m_eff < 1)
        quart = range(m_eff - max(1, m_eff // 4) + 1, m_eff + 1)
        statistic = float(np.mean([math.log(max(lengths[m], 1)) / m for m in quart]))
        if eps / 5 < statistic < eps and not escalated and not orbit.truncated:
            escalated = True
            cap = 2 * M
            continue
        degree = polynomial_degree(lengths)
        low_confidence = orbit.truncated and m_eff < M
        if degree is None and statistic > math.log1p(eps) and max(lengths[quart.start :]) > max(lengths[: quart.start]):
            # under 4 lengths the detector cannot rule out even degree 1
            return GrowthClass(
                kind="exponential", rate=math.exp(statistic), statistic=statistic, escalated=escalated,
                low_confidence=low_confidence or m_eff < 3,
            )
        return GrowthClass(
            kind="polynomial", degree=degree, statistic=statistic, escalated=escalated,
            low_confidence=low_confidence or degree is None,
        )


@dataclass
class LimitLengthReport:
    """Limit length of a class, in [``lower``, ``upper``].  ``certificate``
    is ``legal``, ``periodic`` or ``splitting`` for an exact closed form,
    ``interval`` for one within tol, and None if M or the budget ran out."""

    word: str
    lam: float
    stride: int
    limit: float
    converged: bool
    certificate: str | None
    lower: float
    m_stop: int
    strided: list
    classification: GrowthClass
    truncated: bool
    anchor: int | None = None  # splitting: the earlier stride whose turn clusters recur at m_stop
    skipped_reason: str | None = None

    @property
    def upper(self) -> float:
        """The limit if exact, else the last normalized length."""
        return self.limit if self.certificate in EXACT_CERTIFICATES or not self.strided else self.strided[-1][1]


def _turn_clusters(w: str, turns: list, metric: Metric, radius: float):
    """Sorted clusters of the illegal turns of a cyclic word, or None if no
    legal segment between two turns has length >= 2 radius.  ``turns`` are
    the indices i, ascending, of the turns between letters i and i+1 mod
    len(w).  A cluster runs from the shortest end of length >= radius of one
    such long segment to the shortest start of length >= radius of the next.
    """
    n, t = len(w), len(turns)
    twice = 2 * (w[turns[0] + 1 :] + w[: turns[0] + 1])  # starts right after a turn
    ends = np.array([i - turns[0] for i in turns[1:]] + [n])
    starts = np.concatenate(([0], ends[:-1]))
    cum = np.concatenate(([0.0], np.cumsum(metric.table[np.frombuffer(twice.encode("ascii"), dtype=np.uint8)])))
    long = np.flatnonzero(cum[ends] - cum[starts] >= 2 * radius)
    if not long.size:
        return None
    nexts = np.concatenate((starts, starts + n))[np.append(long[1:], long[0] + t)]
    lefts = np.searchsorted(cum, cum[ends[long]] - radius, side="right") - 1
    rights = np.searchsorted(cum, cum[nexts] + radius, side="left")
    return tuple(sorted(twice[a:b] for a, b in zip(lefts, rights)))


def limit_length(
    auto: Automorphism,
    word: str,
    tt: TrainTrackData,
    M: int = 40,
    tol: float = 1e-6,
    orbit: CyclicOrbit | None = None,
) -> LimitLengthReport:
    """Translation length of a class in the limit forest of the map.

    Walks the orbit at stride k, with w = psi^m(x), x_m = |w| / lam^m and t
    the number of illegal turns of w read cyclically, and stops at the first
    certificate (Bestvina-Handel 1992, Bestvina-Feighn-Handel 1997):

    * legal: t = 0 one stride back, so nothing cancels; the limit is x_m.
    * periodic: w is a rotation of an earlier strided word; the limit is 0.
    * splitting: some legal segment between illegal turns has length
      >= 2R, R = C / (lam - 1) with C the cancellation bound, and the turn
      clusters between such long segments (see :func:`_turn_clusters`)
      equal those of an earlier stride m0.  Long segments outgrow
      cancellation (lam l - 2C >= l), and a cluster's next clusters and
      loss depend on the cluster alone (lam R - C = R), so the loss over
      p = m - m0 steps repeats and the limit is (x_m - s x_m0) / (1 - s)
      with s = lam^-p.  With every segment long, a cluster is one turn
      with its germ pair; a short segment between turns that stays short
      is part of an indivisible Nielsen path.
    * interval: x_m - lo < tol for the lower bound lo = max(0, x_m - 2R t /
      lam^m): a step loses at most 2C per illegal turn, and t never
      increases, so the steps from m on lose at most 2C t / (lam - 1) in all.

    Legal and splitting read Exponential(lam), periodic Polynomial(0).
    Otherwise a positive lower bound reads Exponential(lam); without one the
    verdict defers to the growth classifier, flagged low-confidence.
    """
    tt.require("limit lengths", expanding=False)
    if M < 0:
        raise InputError(f"iterate horizon M must be >= 0, got {M}")
    if not tol > 0:
        raise InputError(f"tolerance must be positive, got {tol!r}")
    lam, k = tt.pf.lam, tt.pf.k
    if M < k:
        # one stride is the least horizon at which a certificate can fire
        raise InputError(f"iterate horizon M must be at least the stride k = {k}, got {M}")
    orbit = orbit or CyclicOrbit(auto, word, tt=tt)
    if orbit.tt is not tt:
        raise PreconditionError("limit lengths read legality off an orbit built with the same train track")
    if not tt.expanding:
        # lam = 1 makes the irreducible transition matrix a permutation: the
        # map permutes the edges, so every orbit is periodic.
        return LimitLengthReport(
            word=word, lam=lam, stride=k, limit=0.0, converged=True, certificate="periodic", lower=0.0,
            m_stop=0, strided=[], classification=GrowthClass(kind="polynomial", degree=0), truncated=False,
            skipped_reason="not expanding (lambda = 1)",
        )
    illegal = tt.gmap.illegal_pairs()
    strided, clusters_seen = [], {}
    legal_before = truncated = False
    certificate, anchor, lower = None, None, 0.0
    for m in range(0, M + 1, k):
        w = orbit.word_at(m)
        if w is None:
            truncated = True
            break
        x = path_length(w, tt.metric) / lam**m
        prev = strided[-1][1] if strided else x
        if x > prev + MONOTONE_SLACK or (legal_before and x < prev - MONOTONE_SLACK):
            raise InternalConsistencyError(f"normalized lengths moved at m={m}: {prev!r} -> {x!r}")
        strided.append((m, x))
        if legal_before:
            certificate, limit, lower = "legal", x, x
            break
        if orbit.legal_from is not None and orbit.legal_from <= m:
            legal_before = True
        elif any(len(v) == len(w) and w in v + v for v in orbit.words[0:m:k]):
            certificate, limit, lower = "periodic", 0.0, 0.0
            break
        elif w:
            turns = [hit.start() for hit in illegal.finditer(w + w[0])]
            radius = tt.critical_length / 2
            # a word shorter than 2R has no long segment
            clusters = _turn_clusters(w, turns, tt.metric, radius) if x * lam**m >= 2 * radius else None
            if clusters in clusters_seen:
                anchor = clusters_seen[clusters]
                s = lam ** (anchor - m)
                certificate, limit = "splitting", (x - s * strided[anchor // k][1]) / (1 - s)
                lower = limit
                break
            if clusters is not None:
                clusters_seen[clusters] = m
            lower = max(x - 2 * radius * len(turns) / lam**m, 0.0)
            if x - lower < tol:
                certificate = "interval"
                break
    if certificate in ("legal", "splitting") or lower > 0:
        cls = GrowthClass(kind="exponential", rate=lam)
    elif certificate == "periodic":
        cls = GrowthClass(kind="polynomial", degree=0)
    else:
        cls = classify_growth(auto, word, M=M, orbit=orbit)
        cls = replace(cls, rate=lam if cls.is_exponential else None, low_confidence=True)
    if certificate not in EXACT_CERTIFICATES:
        limit = strided[-1][1] if cls.is_exponential else 0.0
    return LimitLengthReport(
        word=word, lam=lam, stride=k, limit=limit, converged=certificate is not None, certificate=certificate,
        lower=lower, m_stop=strided[-1][0], strided=strided, classification=cls, truncated=truncated, anchor=anchor,
    )


@dataclass
class PerBlockReport:
    word: str
    limits: list
    total: float
    converged: bool
    m_stop: int


def per_block_lengths(tt: TrainTrackData, rep: LimitLengthReport, orbit: CyclicOrbit) -> PerBlockReport:
    """A limit length split across the k cyclic blocks.

    Splits the word at which ``rep`` stopped, read off the orbit it ran on:
    each entry is the metric length carried by one block's edges, normalized
    at the same m_stop, a multiple of k so every factor has returned to
    itself.  Under a splitting certificate each block takes the same closed
    form as the total: legal block lengths scale by exactly lam^p over the
    period p, a multiple of k, and the losses per period repeat.  The
    entries sum to the limit.
    """
    tt.require("per-block lengths")

    def split(m):
        w = orbit.word_at(m)
        return [block_path_length(w, tt.metric, b) / tt.pf.lam**m for b in tt.pf.blocks]

    limits = split(rep.m_stop)
    if rep.certificate == "splitting":
        shrink = tt.pf.lam ** (rep.anchor - rep.m_stop)
        limits = [(x - shrink * x0) / (1 - shrink) for x0, x in zip(split(rep.anchor), limits)]
    return PerBlockReport(word=rep.word, limits=limits, total=sum(limits), converged=rep.converged, m_stop=rep.m_stop)


@dataclass
class ConvergenceReport:
    constants: list
    uniform_checked: int
    uniform_max_rel_error: float | None


def convergence_constants(
    auto: Automorphism,
    tt: TrainTrackData,
    alt_metric: Metric,
    loop_words=None,
) -> ConvergenceReport:
    """Per-block comparison constants between an alternative metric and the limit.

    On block i, lam^-(m k) |tau^(m k)(sigma)|_delta / |sigma|_nu tends to
    c_i = delta_i . r_i / nu_i . r_i for every path sigma of the block, where
    r is the right Perron-Frobenius vector of the transition matrix and the
    subscript i restricts a vector to the block's edges: A^k is block
    diagonal with primitive blocks, so its power A^(m k) on block i is
    asymptotic to lam^(m k) r_i nu_i^T / nu_i . r_i.  For arbitrary loops
    the alt-metric limit equals sum_i c_i * (block-i limit length), which is
    checked on loop_words against lam^-m |psi^m(w)|_delta at the last stride
    m <= 120 within ``SWEEP_BUDGET``.  That is the error at this horizon,
    not a bound: past legality it decays like the spectral gap, on a
    Nielsen path like lam^-m.
    """
    tt.require("convergence constants")
    if len(alt_metric) != tt.gmap.graph.edge_pairs:
        raise PreconditionError("alternative metric does not match the graph")
    k, lam = tt.pf.k, tt.pf.lam
    right = pf_eigen(tt.matrix.T).nu
    constants = []
    for block in tt.pf.blocks:
        idx = [letter_index(e) for e in block]
        constants.append(float(alt_metric.lengths[idx] @ right[idx] / (tt.pf.nu[idx] @ right[idx])))
    uniform_checked, uniform_worst = 0, 0.0 if loop_words else None
    for word in loop_words or ():
        orbit = CyclicOrbit(auto, word, budget=SWEEP_BUDGET, tt=tt)
        rep = limit_length(auto, word, tt, M=80, tol=1e-8, orbit=orbit)
        m = max(m for m in range(0, 121, k) if orbit.length_at(m) is not None)
        lhs = orbit.metric_length_at(m, alt_metric) / lam**m
        if not rep.classification.is_exponential:
            if lhs > UNIFORM_TOL:
                raise InternalConsistencyError(f"bounded class {word!r} has alt-metric limit {lhs!r}")
            continue
        rhs = sum(c * b for c, b in zip(constants, per_block_lengths(tt, rep, orbit).limits))
        uniform_worst = max(uniform_worst, abs(lhs - rhs) / rhs)
        uniform_checked += 1
    return ConvergenceReport(constants=constants, uniform_checked=uniform_checked, uniform_max_rel_error=uniform_worst)
