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
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalConsistencyError, PreconditionError
from .graphs import Metric, block_path_length, path_length
from .spectral import TrainTrackData
from .words import Automorphism, check_word, cyclic_reduce, reduce_word

MONOTONE_SLACK = 1e-9

# A normalized limit below this is treated as zero (the class is not
# loxodromic in the limit forest).
LOXODROMIC_THRESHOLD = 1e-6

_POLY_DEGREE_CAP = 6


class CyclicOrbit:
    """Lazily extended orbit of a conjugacy class under an automorphism.

    Stores cyclically reduced representatives of psi^m(x); stops extending
    once the next representative would exceed the length budget and records
    that fact instead of raising.
    """

    def __init__(self, auto: Automorphism, word: str, budget: int | None = None):
        core, _ = cyclic_reduce(reduce_word(check_word(word, auto.rank), auto.rank))
        self.auto = auto
        self.words = [core]
        self.budget = auto.budget if budget is None else budget
        self.truncated = False

    def word_at(self, m: int):
        """The representative at time m, or None if the budget cut us off."""
        while len(self.words) <= m:
            if self.truncated:
                return None
            nxt = self.auto.apply_cyclic(self.words[-1])
            if len(nxt) > self.budget:
                self.truncated = True
                return None
            self.words.append(nxt)
        return self.words[m]

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
    if len(tail) < 3:
        return False
    hi = max(tail)
    lo = min(tail)
    scale = max(abs(hi), abs(lo))
    if scale == 0:
        return True
    return (hi - lo) <= rel * scale


def polynomial_degree(lengths, cap: int = _POLY_DEGREE_CAP):
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
    quartile of the computed range.  A statistic in (0.01, 0.05) escalates
    once from M to 2M for more data.  The finite-difference polynomial
    detector takes precedence when it certifies a settled d-th difference;
    exponential orbits have geometrically growing differences and are never
    captured by it.
    """
    if orbit is None:
        orbit = CyclicOrbit(auto, word, budget=budget)
    escalated = False
    cap = M
    while True:
        lengths = []
        for m in range(cap + 1):
            w = orbit.word_at(m)
            if w is None:
                break
            lengths.append(len(w))
        m_eff = len(lengths) - 1
        if m_eff < 1 or max(lengths) == 0:
            return GrowthClass(kind="polynomial", degree=0, statistic=0.0, low_confidence=m_eff < 1)
        ms = [m for m in range(1, m_eff + 1)]
        quart = ms[-max(1, len(ms) // 4):]
        statistic = float(np.mean([math.log(max(lengths[m], 1)) / m for m in quart]))
        if 0.01 < statistic < 0.05 and not escalated and not orbit.truncated:
            escalated = True
            cap = 2 * M
            continue
        degree = polynomial_degree(lengths)
        low_confidence = orbit.truncated and m_eff < M
        if degree is not None:
            return GrowthClass(
                kind="polynomial",
                degree=degree,
                statistic=statistic,
                escalated=escalated,
                low_confidence=low_confidence,
            )
        if statistic > math.log1p(eps):
            return GrowthClass(
                kind="exponential",
                rate=float(math.exp(statistic)),
                statistic=statistic,
                escalated=escalated,
                low_confidence=low_confidence,
            )
        return GrowthClass(
            kind="polynomial",
            degree=None,
            statistic=statistic,
            escalated=escalated,
            low_confidence=True,
        )


@dataclass
class LengthSequence:
    word: str
    lam: float
    raw: list
    normalized: list
    truncated: bool


def normalized_sequence(
    auto: Automorphism,
    word: str,
    metric: Metric,
    lam: float,
    M: int = 40,
    budget: int | None = None,
    orbit: CyclicOrbit | None = None,
) -> LengthSequence:
    """Raw and lam-normalized translation lengths for m = 0..M.

    The orbit is iterated on conjugacy representatives, reusing the previous
    step; a budget cut truncates the sequence and flags it.
    """
    if orbit is None:
        orbit = CyclicOrbit(auto, word, budget=budget)
    raw = []
    for m in range(M + 1):
        w = orbit.word_at(m)
        if w is None:
            break
        raw.append(path_length(w, metric))
    normalized = [r / lam**m for m, r in enumerate(raw)]
    return LengthSequence(
        word=word, lam=lam, raw=raw, normalized=normalized, truncated=len(raw) < M + 1
    )


def _require_spectral(tt: TrainTrackData):
    if not tt.verdict.is_train_track:
        raise PreconditionError("limit lengths need a verified train track")
    if tt.pf is None or tt.metric is None:
        raise PreconditionError("limit lengths need an irreducible transition matrix")


@dataclass
class LimitLengthReport:
    word: str
    lam: float
    stride: int
    limit: float
    converged: bool
    gap: float
    m_stop: int
    strided: list
    classification: GrowthClass
    truncated: bool
    skipped_reason: str | None = None


def _strided_values(orbit, metric, lam, k, M, tol):
    """Strided normalized translation lengths with the early-stop rule.

    Stops once consecutive strided terms differ by less than tol, unless the
    current value sits in the ambiguous band where a decaying class has not
    yet revealed itself; then it keeps going (cheap: such orbits shrink).
    """
    vals = []
    s = 0
    truncated = False
    while True:
        m = s * k
        if m > M:
            break
        w = orbit.word_at(m)
        if w is None:
            truncated = True
            break
        t = path_length(w, metric) / lam**m
        if vals and t > vals[-1][1] + MONOTONE_SLACK:
            raise InternalConsistencyError(
                f"normalized lengths increased at m={m}: {vals[-1][1]!r} -> {t!r}"
            )
        vals.append((m, t))
        if len(vals) >= 2:
            gap = vals[-2][1] - vals[-1][1]
            ambiguous = LOXODROMIC_THRESHOLD / 10 <= t <= 1e-3
            if gap < tol and not ambiguous:
                break
        s += 1
    return vals, truncated


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

    The limit is the infimum of the non-increasing strided subsequence;
    convergence means the last two strided terms differ by less than tol.
    A converged positive limit (above the loxodromic threshold) is
    Exponential with rate exactly lam; a converged vanishing limit is
    polynomial with the degree read off finite differences of the raw
    lengths.  An unconverged run escalates once to 2M (bounded orbits are
    cheap to extend); if still unconverged the threshold would be
    meaningless, so the verdict defers to the growth classifier and is
    flagged low-confidence.
    """
    _require_spectral(tt)
    if orbit is None:
        orbit = CyclicOrbit(auto, word, budget=budget)
    if not tt.expanding:
        return LimitLengthReport(
            word=word,
            lam=tt.pf.lam,
            stride=tt.pf.k,
            limit=0.0,
            converged=True,
            gap=0.0,
            m_stop=0,
            strided=[],
            classification=classify_growth(auto, word, M=M, orbit=orbit),
            truncated=False,
            skipped_reason="not expanding (lambda = 1)",
        )
    k = tt.pf.k
    lam = tt.pf.lam
    escalated = False
    cap = M
    while True:
        vals, truncated = _strided_values(orbit, tt.metric, lam, k, cap, tol)
        gap = vals[-2][1] - vals[-1][1] if len(vals) >= 2 else float("inf")
        converged = gap < tol
        if converged or truncated or escalated:
            break
        escalated = True
        cap = 2 * M
    limit = vals[-1][1]
    if converged and limit > LOXODROMIC_THRESHOLD:
        cls = GrowthClass(kind="exponential", rate=lam, escalated=escalated)
    elif limit <= LOXODROMIC_THRESHOLD:
        limit = 0.0
        lengths = []
        for m in range(min(cap, 3 * len(vals) * k) + 1):
            w = orbit.word_at(m)
            if w is None:
                break
            lengths.append(len(w))
        degree = polynomial_degree(lengths)
        cls = GrowthClass(
            kind="polynomial",
            degree=degree,
            escalated=escalated,
            low_confidence=degree is None or not converged,
        )
    else:
        # Unconverged with the value still above threshold: let the raw
        # combinatorial lengths decide instead of the stale threshold.
        cls = classify_growth(auto, word, M=cap, orbit=orbit)
        cls = GrowthClass(
            kind=cls.kind,
            rate=lam if cls.is_exponential else None,
            degree=cls.degree,
            statistic=cls.statistic,
            escalated=True,
            low_confidence=True,
        )
        if not cls.is_exponential:
            limit = 0.0
    return LimitLengthReport(
        word=word,
        lam=lam,
        stride=k,
        limit=limit,
        converged=converged,
        gap=gap,
        m_stop=vals[-1][0],
        strided=vals,
        classification=cls,
        truncated=truncated,
    )


@dataclass
class PerBlockReport:
    word: str
    limits: list
    total: float
    converged: bool
    m_stop: int


def per_block_lengths(
    auto: Automorphism,
    word: str,
    tt: TrainTrackData,
    M: int = 80,
    tol: float = 1e-7,
    budget: int | None = None,
    orbit: CyclicOrbit | None = None,
) -> PerBlockReport:
    """Limit translation length split across the k cyclic blocks.

    Counts only the metric length carried by each block's edges, sampled at
    stride k so every factor returns to itself.  The entries sum to the
    plain limit length.
    """
    _require_spectral(tt)
    if not tt.expanding:
        raise PreconditionError("per-block lengths need an expanding stretch factor")
    if orbit is None:
        orbit = CyclicOrbit(auto, word, budget=budget)
    k = tt.pf.k
    lam = tt.pf.lam
    blocks = [frozenset(b) for b in tt.pf.blocks]
    prev = None
    m_stop = 0
    s = 0
    converged = False
    while True:
        m = s * k
        if m > M:
            break
        w = orbit.word_at(m)
        if w is None:
            break
        scale = lam**m
        cur = [block_path_length(w, tt.metric, b) / scale for b in blocks]
        total = sum(cur)
        if prev is not None:
            gaps = max(abs(p - c) for p, c in zip(prev, cur))
            ambiguous = LOXODROMIC_THRESHOLD / 10 <= total <= 1e-3
            if gaps < tol and not ambiguous:
                prev = cur
                m_stop = m
                converged = True
                break
        prev = cur
        m_stop = m
        s += 1
    total = sum(prev)
    report = PerBlockReport(word=word, limits=prev, total=total, converged=converged, m_stop=m_stop)
    check = limit_length(auto, word, tt, M=M, tol=tol, orbit=orbit)
    if abs(total - check.limit) > 1e-6:
        raise InternalConsistencyError(
            f"block lengths sum to {total!r} but the limit is {check.limit!r}"
        )
    return report


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
    checked = []
    skipped = []
    worst = 0.0
    for word in words:
        orbit = CyclicOrbit(auto, word)
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
    spreads: list
    depth: int
    segments_per_block: int
    uniform_checked: int
    uniform_max_rel_error: float | None


def _alt_limit(orbit, alt_metric, lam, k, M, tol):
    """Cauchy estimate of lim lam^-m |psi^m(x)|_delta along the stride."""
    prev = None
    s = 0
    while True:
        m = s * k
        w = orbit.word_at(m)
        if m > M or w is None:
            return prev
        t = path_length(w, alt_metric) / lam**m
        if prev is not None and abs(prev - t) < tol and not (1e-7 <= t <= 1e-3):
            return t
        prev = t
        s += 1


def convergence_constants(
    auto: Automorphism,
    tt: TrainTrackData,
    alt_metric: Metric,
    corpus=None,
    depth: int = 14,
    segments_per_block: int = 5,
    loop_words=None,
    spread_tol: float = 1e-4,
    uniform_tol: float = 1e-5,
) -> ConvergenceReport:
    """Per-block comparison constants between an alternative metric and the limit.

    For leaf segments of block i, lam^-(m k) * (alt length of the m k-fold
    image) divided by the eigenmetric length of the segment converges to a
    constant c_i independent of the segment.  The constants are measured by
    iteration at the given stride depth; excessive spread across segments
    signals broken train-track data.  For arbitrary loops the alt-metric
    limit equals sum_i c_i * (block-i limit length), which is spot-checked
    on loop_words.
    """
    from .laminations import build_leaf_corpus

    _require_spectral(tt)
    if not tt.expanding:
        raise PreconditionError("convergence constants need an expanding stretch factor")
    if len(alt_metric) != tt.gmap.graph.edge_pairs:
        raise PreconditionError("alternative metric does not match the graph")
    if corpus is None:
        corpus = build_leaf_corpus(tt, depth=8, budget=200_000)
    k = tt.pf.k
    lam = tt.pf.lam
    power = k * depth
    constants = []
    spreads = []
    for block in range(k):
        prefix = corpus.prefixes[block]
        segs = _sample_segments(prefix, segments_per_block)
        ests = []
        for seg in segs:
            img = seg
            for _ in range(power):
                img = tt.gmap.substitute(img)
            est = path_length(img, alt_metric) / (lam**power * path_length(seg, tt.metric))
            ests.append(est)
        center = float(np.mean(ests))
        spread = float(max(abs(e - center) for e in ests))
        if spread > spread_tol:
            raise InternalConsistencyError(
                f"segment constants for block {block} spread by {spread!r}"
            )
        constants.append(center)
        spreads.append(spread)
    uniform_checked = 0
    uniform_worst = None
    if loop_words:
        uniform_worst = 0.0
        for word in loop_words:
            orbit = CyclicOrbit(auto, word)
            blocks_rep = per_block_lengths(auto, word, tt, tol=1e-8, orbit=orbit)
            rhs = sum(c * b for c, b in zip(constants, blocks_rep.limits))
            lhs = _alt_limit(orbit, alt_metric, lam, k, M=120, tol=1e-8)
            if rhs < LOXODROMIC_THRESHOLD:
                if lhs is not None and abs(lhs - rhs) > uniform_tol:
                    raise InternalConsistencyError(
                        f"bounded class {word!r} has alt-metric limit {lhs!r}"
                    )
                continue
            err = abs(lhs - rhs) / rhs
            uniform_worst = max(uniform_worst, err)
            uniform_checked += 1
    return ConvergenceReport(
        constants=constants,
        spreads=spreads,
        depth=depth,
        segments_per_block=segments_per_block,
        uniform_checked=uniform_checked,
        uniform_max_rel_error=uniform_worst,
    )


def _sample_segments(prefix, count: int):
    """Deterministic spread of subpaths around the prefix center."""
    word = prefix.word
    segs = []
    sizes = (1, 2, 3, 5, 8, 13, 21)
    for j in range(count):
        size = sizes[j % len(sizes)]
        start = prefix.center - size // 2 + 3 * j
        start = max(0, min(start, len(word) - size))
        seg = word[start : start + size]
        if seg:
            segs.append(seg)
    return segs
