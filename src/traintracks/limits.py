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

from .errors import InternalConsistencyError, PreconditionError
from .graphs import Metric, block_path_length, path_length
from .spectral import TrainTrackData, pf_eigen
from .words import Automorphism, check_word, cyclic_reduce, letter_index, reduce_word

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
    that fact instead of raising.  Given the map's train track ``tt``,
    lengths past the first legal word step letter counts by the transition
    matrix: legal circuits map to legal circuits without cancellation.
    """

    def __init__(self, auto: Automorphism, word: str, budget: int | None = None, tt: TrainTrackData | None = None):
        core, _ = cyclic_reduce(reduce_word(check_word(word, auto.rank), auto.rank))
        self.auto = auto
        self.words = [core]
        self.budget = auto.budget if budget is None else budget
        self.cut = None  # the first m over the budget, once a word or a length met it
        self.tt = tt if tt is not None and tt.verdict.is_train_track else None
        self.lengths, self.counts = [], None

    @property
    def truncated(self) -> bool:
        return self.cut is not None

    def word_at(self, m: int):
        """The representative at time m, or None if the budget cut us off."""
        if self.cut is not None and m >= self.cut:
            return None
        while len(self.words) <= m:
            nxt = self.auto.apply_cyclic(self.words[-1])
            if len(nxt) > self.budget:
                self.cut = len(self.words)
                return None
            self.words.append(nxt)
        return self.words[m]

    def length_at(self, m: int):
        """|psi^m(x)|, or None if the budget cut us off."""
        if self.cut is not None and m >= self.cut:
            return None
        while len(self.lengths) <= m:
            if self.counts is None:
                w = self.word_at(len(self.lengths))
                if w is None:
                    return None
                n = len(w)
                if self.tt is not None and self.tt.gmap.is_legal_cyclic(w):
                    self.counts = np.bincount([letter_index(ch) for ch in w], minlength=self.auto.rank)
            else:
                self.counts = self.tt.matrix @ self.counts
                n = int(self.counts.sum())
                if n > self.budget:
                    self.cut = len(self.lengths)
                    return None
            self.lengths.append(n)
        return self.lengths[m]

    @property
    def computed(self) -> int:
        return len(self.words) - 1


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


def _tail_is_flat(values, window: int = 10, rel: float = 0.05) -> bool:
    tail = values[-window:]
    return len(tail) >= 3 and max(tail) - min(tail) <= rel * max(abs(v) for v in tail)


def polynomial_degree(lengths, cap: int = 6):
    """Least d whose d-th finite differences settle (last 10 values within 5%)."""
    vals = [float(v) for v in lengths]
    for d in range(cap + 1):
        if _tail_is_flat(vals):
            return d
        vals = list(np.diff(vals))
    return None


def classify_growth(
    auto: Automorphism,
    word: str,
    M: int = 40,
    eps: float = 0.05,
    budget: int | None = None,
    orbit: CyclicOrbit | None = None,
) -> GrowthClass:
    """Classify the conjugacy growth of a class from raw reduced lengths.

    The log-rate statistic is the mean of log(length at m)/m over the last
    quartile of the computed range; it reads exponential above log1p(eps).
    A statistic in (eps/5, eps), (0.01, 0.05) at the default eps, escalates
    once from M to 2M for more data.  The finite-difference polynomial
    detector takes precedence when it certifies a settled d-th difference;
    exponential orbits have geometrically growing differences and are never
    captured by it.
    """
    if orbit is None:
        orbit = CyclicOrbit(auto, word, budget=budget)
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
        if degree is None and statistic > math.log1p(eps):
            return GrowthClass(
                kind="exponential", rate=math.exp(statistic), statistic=statistic, escalated=escalated,
                low_confidence=low_confidence,
            )
        return GrowthClass(
            kind="polynomial", degree=degree, statistic=statistic, escalated=escalated,
            low_confidence=low_confidence or degree is None,
        )


def _require_spectral(tt: TrainTrackData):
    if not tt.verdict.is_train_track:
        raise PreconditionError("limit lengths need a verified train track")
    if tt.pf is None or tt.metric is None:
        raise PreconditionError("limit lengths need an irreducible transition matrix")


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
    budget: int | None = None,
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
    _require_spectral(tt)
    if orbit is None:
        orbit = CyclicOrbit(auto, word, budget=budget, tt=tt)
    lam, k = tt.pf.lam, tt.pf.k
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
        if tt.gmap.is_legal_cyclic(w):
            legal_before = True
        elif any(len(v) == len(w) and w in v + v for v in orbit.words[0:m:k]):
            certificate, limit, lower = "periodic", 0.0, 0.0
            break
        elif w:
            turns = [hit.start() for hit in illegal.finditer(w + w[0])]
            # R = C / (lam - 1), with a margin for rounding in lam, nu and the sums
            radius = (1 + 1e-9) * tt.cancellation_constant / (lam - 1)
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
    _require_spectral(tt)
    if not tt.expanding:
        raise PreconditionError("per-block lengths need an expanding stretch factor")
    blocks = [frozenset(b) for b in tt.pf.blocks]

    def split(m):
        w = orbit.word_at(m)
        return [block_path_length(w, tt.metric, b) / tt.pf.lam**m for b in blocks]

    limits = split(rep.m_stop)
    if rep.certificate == "splitting":
        shrink = tt.pf.lam ** (rep.anchor - rep.m_stop)
        limits = [(x - shrink * x0) / (1 - shrink) for x0, x in zip(split(rep.anchor), limits)]
    return PerBlockReport(word=rep.word, limits=limits, total=sum(limits), converged=rep.converged, m_stop=rep.m_stop)


@dataclass
class HomothetyReport:
    max_rel_error: float
    checked: list
    skipped: list


def homothety_check(
    auto: Automorphism,
    tt: TrainTrackData,
    words,
    M: int = 80,
    tol: float = 1e-7,
) -> HomothetyReport:
    """Verify |psi(x)| = lam * |x| on limit lengths over the given words.

    Words not classified Exponential are skipped (their limit is zero on
    both sides).  For a non-expanding map the eigenmetric lengths themselves
    must match exactly.
    """
    _require_spectral(tt)
    checked, skipped, worst = [], [], 0.0
    for word in words:
        orbit = CyclicOrbit(auto, word, tt=tt)
        if not tt.expanding:
            a = path_length(orbit.word_at(0), tt.metric)
            b = path_length(orbit.word_at(1), tt.metric)
            err = abs(b - a) / a if a else 0.0
            checked.append((word, err))
            worst = max(worst, err)
            continue
        rep = limit_length(auto, word, tt, M=M, tol=tol, orbit=orbit)
        if not rep.classification.is_exponential:
            skipped.append(word)
            continue
        image_word = orbit.word_at(1)
        rep_img = limit_length(auto, image_word, tt, M=M, tol=tol)
        target = tt.pf.lam * rep.limit
        err = abs(rep_img.limit - target) / target
        checked.append((word, err))
        worst = max(worst, err)
    return HomothetyReport(max_rel_error=worst, checked=checked, skipped=skipped)


@dataclass
class ConvergenceReport:
    constants: list
    uniform_checked: int
    uniform_max_rel_error: float | None


def _alt_limit(orbit, alt_metric, lam, k, M, tol):
    """Cauchy estimate of lim lam^-m |psi^m(x)|_delta along the stride."""
    prev = None
    for m in range(0, M + 1, k):
        w = orbit.word_at(m)
        if w is None:
            break
        t = path_length(w, alt_metric) / lam**m
        if prev is not None and abs(prev - t) < tol and not (1e-7 <= t <= 1e-3):
            return t
        prev = t
    return prev


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
    checked by iteration on loop_words.
    """
    _require_spectral(tt)
    if not tt.expanding:
        raise PreconditionError("convergence constants need an expanding stretch factor")
    if len(alt_metric) != tt.gmap.graph.edge_pairs:
        raise PreconditionError("alternative metric does not match the graph")
    k, lam = tt.pf.k, tt.pf.lam
    right = pf_eigen(tt.matrix.T).nu
    constants = []
    for block in tt.pf.blocks:
        idx = [letter_index(e) for e in block]
        constants.append(float(alt_metric.lengths[idx] @ right[idx] / (tt.pf.nu[idx] @ right[idx])))
    uniform_checked, uniform_worst = 0, None
    if loop_words:
        uniform_worst = 0.0
        for word in loop_words:
            orbit = CyclicOrbit(auto, word, budget=SWEEP_BUDGET, tt=tt)
            rep = limit_length(auto, word, tt, M=80, tol=1e-8, orbit=orbit)
            lhs = _alt_limit(orbit, alt_metric, lam, k, M=120, tol=1e-8)
            if not rep.classification.is_exponential:
                if lhs is not None and lhs > UNIFORM_TOL:
                    raise InternalConsistencyError(f"bounded class {word!r} has alt-metric limit {lhs!r}")
                continue
            rhs = sum(c * b for c, b in zip(constants, per_block_lengths(tt, rep, orbit).limits))
            err = abs(lhs - rhs) / rhs
            uniform_worst = max(uniform_worst, err)
            uniform_checked += 1
    return ConvergenceReport(constants=constants, uniform_checked=uniform_checked, uniform_max_rel_error=uniform_worst)
