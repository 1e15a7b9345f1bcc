"""End-to-end analysis: parse a description, run every applicable stage,
emit a JSON-ready report.

``STAGES`` lists the report's sections in order, each with the domain it
needs (a rose, an irreducible matrix, an expanding train track, a sweep);
a section off its domain is skipped with its row's reason, not failed.
"""

from __future__ import annotations

import datetime
import math
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .cancellation import cancellation_bound, measure_cancellation
from .errors import InputError, NotALeafSegmentError, NotIrreducibleError, ParseError, PreconditionError
from .graphs import Graph, Metric, rose, unit_metric
from .laminations import LEAF_BUDGET, LEAF_DEPTH, build_leaf_corpus, quasiperiodicity_window, weak_limit_probe
from .limits import (
    SWEEP_BUDGET,
    SWEEP_M,
    CyclicOrbit,
    classify_growth,
    convergence_constants,
    limit_length,
    per_block_lengths,
)
from .maps import GraphMap, rose_map, to_automorphism
from .spectral import TrainTrackData, analyze_train_track, is_simplicial, train_track_twist
from .words import (
    ALPHABET,
    DEFAULT_WORD_BUDGET,
    Automorphism,
    canonical_rotation,
    check_word,
    enumerate_cyclic_words,
    invert_word,
    parse_word,
)


@dataclass
class AnalysisConfig:
    """Knobs for the full pipeline.

    Sweeps sample the growth classifier at a reduced depth and budget
    (``limits.SWEEP_M``, ``limits.SWEEP_BUDGET``) to stay interactive;
    single-word queries use the full M and ``DEFAULT_WORD_BUDGET``.
    """

    M: int = 40
    tol: float = 1e-9
    max_word_len: int = 5
    leaf_depth: int = LEAF_DEPTH
    leaf_budget: int = LEAF_BUDGET
    samples: int = 200
    seed: int = 0

    def __post_init__(self):
        if not self.tol > 0:
            raise InputError(f"tolerance must be positive, got {self.tol!r}")
        rules = (("iterate horizon M", self.M, 1), ("sweep length", self.max_word_len, 0))
        rules += (("leaf depth", self.leaf_depth, 0), ("leaf budget", self.leaf_budget, 1))
        rules += (("cancellation samples", self.samples, 1),)
        for name, value, least in rules:
            if value < least:
                raise InputError(f"{name} must be >= {least}, got {value}")


@dataclass
class ParsedInput:
    gmap: GraphMap
    auto: Automorphism | None


def _parse_arrow(line: str, lineno: int):
    if "->" not in line:
        raise ParseError(f"expected 'letter -> word', got {line!r}", line=lineno)
    lhs, rhs = line.split("->", 1)
    lhs = lhs.strip()
    if len(lhs) != 1 or not lhs.isalpha():
        raise ParseError(f"left side must be a single letter, got {lhs!r}", line=lineno)
    try:
        return lhs, parse_word(rhs.strip())
    except InputError as exc:
        raise ParseError(str(exc), line=lineno) from None


def _check_letters(found: dict, graph: Graph, what: str, scope: str):
    missing = [c for c in graph.letters if c not in found]
    if missing:
        raise ParseError(f"missing {what} for {missing}")
    extra = sorted(set(found) - set(graph.letters))
    if extra:
        raise ParseError(f"{what} given for letters outside {scope}: {extra}")


def parse_input(text: str) -> ParsedInput:
    """Read a self-map of a marked graph from its text description.

    One item per line, '#' comments.  ``rank: n`` names the rose on n
    edges; its edge images may be followed by inverse images, which
    certify invertibility::

        rank: 2
        a -> ab
        b -> a
        inverse:
        a -> b
        b -> Ba

    Any other marked graph is given by its vertices and edges::

        graph:
        vertices: 2
        edge a: 0 1
        edge b: 1 1
        map:
        a -> ab
        b -> b

    Both spellings are read alike: each header comes at most once, the
    images (and inverse images, only with ``rank:``) name exactly the
    graph's edges, and a one-vertex graph gives an :class:`Automorphism`.
    """
    headers: dict = {}
    edges: dict = {}
    images: dict = {"images": {}, "inverse": {}, "map": {}}
    section = "images"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        if low in ("inverse:", "graph:", "map:"):
            if low == "map:" and section != "graph":
                raise ParseError("'map:' must follow a 'graph:' section", line=lineno)
            section = low[:-1]
            continue
        key, _, value = low.partition(":")
        if key in ("rank", "vertices"):
            if key in headers:
                raise ParseError(f"second '{key}:' line", line=lineno)
            try:
                headers[key] = int(value)
            except ValueError:
                raise ParseError(f"{key} is not an integer: {line!r}", line=lineno) from None
            continue
        if section == "graph":
            if not low.startswith("edge "):
                raise ParseError(f"unexpected line in graph section: {line!r}", line=lineno)
            name, _, ends = line[5:].partition(":")
            name = name.strip()
            parts = ends.split()
            if len(name) != 1 or not name.islower() or len(parts) != 2:
                raise ParseError(f"expected 'edge x: u v', got {line!r}", line=lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"edge endpoints must be integers: {line!r}", line=lineno) from None
            if name in edges:
                raise ParseError(f"duplicate edge {name!r}", line=lineno)
            edges[name] = (u, v)
            continue
        target = images[section]
        lhs, rhs = _parse_arrow(line, lineno)
        if lhs in target:
            raise ParseError(f"duplicate image for {lhs!r}", line=lineno)
        target[lhs] = rhs

    rank, vertices, inverse = headers.get("rank"), headers.get("vertices"), images["inverse"]
    if vertices is None and not edges and not images["map"]:
        if rank is None:
            raise ParseError("missing 'rank:' line")
        graph, given = rose(rank), images["images"]
        scope = f"rank {rank}"
    else:
        if rank is not None or images["images"] or inverse:
            raise ParseError("cannot mix 'rank:', generator images or inverse images with a graph/map description")
        if vertices is None:
            raise ParseError("graph section needs a 'vertices:' line")
        letters = ALPHABET[: len(edges)]
        if sorted(edges) != list(letters):
            raise ParseError(f"edges must be named consecutively a..{letters[-1]}")
        graph, given = Graph(vertices, [edges[c] for c in letters]), images["map"]
        scope = f"edges a..{letters[-1]}"
    _check_letters(given, graph, "images", scope)
    if inverse:
        _check_letters(inverse, graph, "inverse images", scope)
    if not graph.is_rose():
        return _coerce(GraphMap(graph, [given[c] for c in graph.letters]))
    return _coerce(Automorphism(given, inverse_images=inverse or None))


@dataclass
class EquivalenceReport:
    """Agreement of the three loxodromic-growth detectors over a word sweep."""

    checked: int
    exponential: int
    polynomial: int
    discrepancies: list = field(default_factory=list)
    labels: dict = field(default_factory=dict)
    limits: dict = field(default_factory=dict)  # limit length of every word
    images: dict = field(default_factory=dict)  # psi(w), its orbit's word at m = 1, of each class read


def _once_per_inverse_pair(words, verdict):
    """Yield ``(word, verdict(word))`` in order, with ``verdict`` called once
    per conjugacy class up to inversion: a word whose inverse's canonical
    rotation came earlier reuses that word's verdict.  The limit tree is an
    isometric F_n-tree, so w and w^-1 have the same translation length, and
    a leaf is a leaf in both orientations."""
    seen: dict = {}
    for word in words:
        inverse = canonical_rotation(invert_word(word))
        seen[word] = seen[inverse] if inverse in seen else verdict(word)
        yield word, seen[word]


def equivalence_sweep(
    auto: Automorphism,
    tt: TrainTrackData,
    corpus,
    words,
    config: AnalysisConfig | None = None,
) -> EquivalenceReport:
    """Run limit-length, growth, and leaf-probe verdicts on every word.

    The verdicts are read once per class up to inversion and counted for
    both orientations (see :func:`_once_per_inverse_pair`).  The growth
    verdict is :func:`limit_length`'s unless low-confidence, and only then
    the classifier's on the shared orbit, which the leaf probe walks too
    until it certifies or stops (see :func:`weak_limit_probe`).  A word
    counts as a discrepancy when the verdicts do not agree, and its entry
    records where the probe stopped; the limit-length verdict decides the
    reported label.
    """
    config = config or AnalysisConfig()
    # Exponential classes grow like lam^m, so the growth statistic tends to
    # log(lam): the threshold log1p(eps) is at most half of that, and the
    # horizon's last quartile spans a growth factor of 3 or more.  For lam
    # above 3^(1/6), about 1.2, these are SWEEP_M and the default eps.
    lam = tt.pf.lam
    growth_M = max(SWEEP_M, 4 * math.ceil(math.log(3) / math.log(lam)))
    growth_eps = min(0.05, math.sqrt(lam) - 1)
    report = EquivalenceReport(checked=0, exponential=0, polynomial=0)

    def verdicts(word):
        orbit = CyclicOrbit(auto, word, budget=SWEEP_BUDGET, tt=tt)
        rep = limit_length(auto, word, tt, M=config.M, tol=config.tol, orbit=orbit)
        a, low = rep.classification.is_exponential, rep.classification.low_confidence
        b = classify_growth(auto, word, M=growth_M, eps=growth_eps, orbit=orbit).is_exponential if low else a
        probe = weak_limit_probe(auto, word, corpus, orbit=orbit)
        report.images[word] = orbit.word_at(1)
        return rep.classification.label(), rep.limit, a, rep.certificate, b, probe

    for word, (label, limit, a, certificate, b, probe) in _once_per_inverse_pair(words, verdicts):
        report.checked += 1
        report.labels[word] = label
        report.limits[word] = limit
        report.exponential += a
        report.polynomial += not a
        if not (a == b == probe.verdict):
            report.discrepancies.append(
                {"word": word, "limit_length": a, "certificate": certificate, "growth": b,
                 "leaf_probe": probe.verdict, "leaf_probe_stop": probe.stop}
            )
    return report


def _coerce(source):
    if isinstance(source, str):
        return parse_input(source)
    if isinstance(source, Automorphism):
        return ParsedInput(gmap=rose_map(source), auto=source)
    if isinstance(source, GraphMap):
        auto = to_automorphism(source) if source.graph.is_rose() else None
        return ParsedInput(gmap=source, auto=auto)
    raise InputError(f"cannot analyze {type(source).__name__}")


# The report's sections.  ``STAGES`` below runs them in report order; the
# CLI subcommands call the same functions for their JSON output.


def input_section(gmap: GraphMap) -> dict:
    return {
        "rank": gmap.graph.edge_pairs,
        "vertices": gmap.graph.vertex_count,
        "is_rose": gmap.graph.is_rose(),
        "images": {letter: gmap.image_of_letter(letter) for letter in gmap.graph.letters},
    }


def train_track_section(tt: TrainTrackData) -> dict:
    orbit = tt.verdict.witness_orbit
    return {**asdict(tt.verdict), "witness_orbit": [sorted(t) for t in orbit] if orbit else None}


def transition_section(tt: TrainTrackData) -> dict:
    return {
        "matrix": tt.matrix.tolist(),
        "irreducible": tt.irreducible,
        "invariant_subgraph": sorted(tt.invariant) if tt.invariant else None,
    }


def spectral_section(tt: TrainTrackData) -> dict:
    """Perron-Frobenius data; raises :class:`NotIrreducibleError` with the
    section's skip reason for a reducible transition matrix."""
    if not tt.irreducible:
        raise NotIrreducibleError(STAGES["spectral"][0]["irreducible"])
    pf = tt.pf
    return {
        "lambda": pf.lam,
        "lambda_is_stretch_factor": tt.verdict.is_train_track,
        "nu": [float(x) for x in pf.nu],
        "k": pf.k,
        "blocks": [list(b) for b in pf.blocks],
        "residual": pf.residual,
        "iterations": pf.iterations,
        "expanding": pf.expanding,
        "simplicial": is_simplicial(tt.matrix),
    }


def homothety_section(tt: TrainTrackData, eq: EquivalenceReport) -> dict:
    """The paper's dilation, L(psi(w)) = lam L(w) on limit lengths, checked
    on the sweep's pairs: a class read and its image psi(w), where the
    image's canonical rotation is a sweep word too.  ``pairs`` counts the
    pairs with both sides nonzero; ``mismatched`` lists the classes where
    exactly one side is 0, which no dilation allows."""
    longest = max(map(len, eq.limits), default=0)
    pairs, worst, worst_pair, mismatched = 0, None, None, []
    for word, image in eq.images.items():
        if image is None or len(image) > longest or (target := canonical_rotation(image)) not in eq.limits:
            continue
        scaled, after = tt.pf.lam * eq.limits[word], eq.limits[target]
        if (scaled == 0) != (after == 0):
            mismatched.append(word)
        elif scaled:
            pairs += 1
            defect = abs(after - scaled) / scaled
            if worst is None or defect > worst:
                worst, worst_pair = defect, [word, target]
    return {"pairs": pairs, "max_rel_defect": worst, "worst_pair": worst_pair, "mismatched": mismatched}


def growth_classes(auto: Automorphism, tt: TrainTrackData, words, M: int, budget: int = DEFAULT_WORD_BUDGET) -> dict:
    """Verdict per class on :func:`train_track_twist`'s representative: the
    limit's certificate on an expanding train track, else the classifier's.
    Read once per class up to inversion, as in :func:`equivalence_sweep`."""
    phi, phi_tt = train_track_twist(auto, tt)
    certified = phi_tt.verdict.is_train_track and phi_tt.expanding

    def verdict(w):
        orbit = CyclicOrbit(phi, w, budget=budget, tt=phi_tt)
        if certified:
            return limit_length(phi, w, phi_tt, M=M, orbit=orbit).classification
        return classify_growth(phi, w, M=M, orbit=orbit)

    return dict(_once_per_inverse_pair(words, verdict))


def growth_section(auto: Automorphism, tt: TrainTrackData, sweep, eq, config: AnalysisConfig) -> dict:
    """Exponential and polynomial counts over the sweep: the equivalence sweep's
    verdicts if any, else those of :func:`growth_classes` at the sweep's depth."""
    growth: dict = {"sweep_len": config.max_word_len, "classes": len(sweep)}
    if eq is not None:
        growth.update(exponential=eq.exponential, polynomial=eq.polynomial, rate=tt.pf.lam)
        return growth
    n_exp = sum(cls.is_exponential for cls in growth_classes(auto, tt, sweep, SWEEP_M, SWEEP_BUDGET).values())
    growth.update(exponential=n_exp, polynomial=len(sweep) - n_exp)
    return growth


def equivalence_section(eq: EquivalenceReport) -> dict:
    return {
        "checked": eq.checked,
        "discrepancies": len(eq.discrepancies),
        "details": eq.discrepancies[:10],
    }


def lengths_section(auto: Automorphism, tt: TrainTrackData, words, M: int, tol: float) -> dict:
    """Limit length of each class with the certificate that gave it and the
    interval it lies in, split by block for exponential classes."""
    lengths: dict = {}
    for word in words:
        orbit = CyclicOrbit(auto, word, tt=tt)
        rep = limit_length(auto, word, tt, M=M, tol=tol, orbit=orbit)
        entry = {
            "limit": rep.limit,
            "converged": rep.converged,
            "certificate": rep.certificate,
            "interval": [rep.lower, rep.upper],
            "m_stop": rep.m_stop,
            "classification": rep.classification.label(),
        }
        if rep.classification.is_exponential:
            entry["per_block"] = per_block_lengths(tt, rep, orbit).limits
        lengths[word] = entry
    return lengths


def lamination_section(corpus, segment: str | None = None) -> dict:
    """Leaf prefixes with a window per block for ``segment`` (each prefix's
    center by default), which reads ``absent`` in a prefix that lacks it."""
    windows = []
    for p in corpus.prefixes:
        seg = segment or p.centered_slice(3)
        try:
            cert = quasiperiodicity_window(p, seg)
            windows.append({"segment": seg, "window": cert.window, "status": cert.status})
        except NotALeafSegmentError:
            windows.append({"segment": seg, "window": None, "status": "absent"})
    if all(w["status"] == "absent" for w in windows):
        raise NotALeafSegmentError(f"segment {segment!r} does not occur in any depth-{corpus.depth} leaf prefix")
    return {
        "k": corpus.k,
        "depth": corpus.depth,
        "seeds": [{"edge": p.seed.edge, "power": p.seed.power, "anchor": p.seed.anchor} for p in corpus.prefixes],
        "prefix_lengths": [len(p.word) for p in corpus.prefixes],
        "truncated": [p.truncated for p in corpus.prefixes],
        "previews": [p.spelled(radius=15) for p in corpus.prefixes],
        "windows": windows,
    }


def cancellation_section(tt: TrainTrackData, samples: int, seed: int) -> dict:
    """Cancellation bound in the eigenmetric (unit metric without one) and
    its measured values over random and, on train tracks, legal splits."""
    gmap = tt.gmap
    metric = tt.metric if tt.metric is not None else unit_metric(gmap.graph)
    lam = tt.pf.lam if tt.expanding else None
    bound = cancellation_bound(gmap, metric, lam=lam)
    sample = measure_cancellation(gmap, metric, samples=samples, seed=seed)
    cancel = {
        "metric": "eigenmetric" if tt.metric is not None else "unit",
        **asdict(bound),
        "random_splits": {
            "count": sample.count,
            "max_measured": sample.max_measured,
            "mean_measured": sample.mean_measured,
            "within_bound": sample.within_bound,
        },
    }
    if tt.verdict.is_train_track:
        try:
            legal = measure_cancellation(gmap, metric, samples=samples, seed=seed, legal_only=True)
            cancel["legal_splits"] = {
                "count": legal.count,
                "max_measured": legal.max_measured,
            }
        except PreconditionError as exc:
            cancel["legal_splits"] = {"skipped": str(exc)}
    return cancel


def convergence_section(
    auto: Automorphism,
    tt: TrainTrackData,
    alt_metric: Metric | None = None,
    loop_words=None,
) -> dict:
    """Per-block comparison constants against ``alt_metric`` (unit if None)."""
    alt = unit_metric(tt.gmap.graph) if alt_metric is None else alt_metric
    conv = convergence_constants(auto, tt, alt, loop_words=loop_words)
    return {
        "alt_metric": "unit" if alt_metric is None else alt_metric.lengths.tolist(),
        "constants": conv.constants,
        "uniform_checked": conv.uniform_checked,
        "uniform_max_rel_error": conv.uniform_max_rel_error,
    }


class _Run:
    """One analysis: its input, the requirements it meets (``tree``, the
    domain of ``TrainTrackData.require``, and ``swept``, that on a rose), and
    the intermediates the sections share, each built once, on first use."""

    def __init__(self, source, config: AnalysisConfig, words):
        parsed = _coerce(source)
        self.gmap, self.auto, self.config = parsed.gmap, parsed.auto, config
        edges = self.gmap.graph.edge_pairs  # lengths reads ``words``, else a..d at most
        self.words = [check_word(word, edges) for word in words or ()] or list(ALPHABET[: min(edges, 4)])
        tt = self.tt = analyze_train_track(self.gmap)
        rose, tree = self.auto is not None, tt.verdict.is_train_track and tt.expanding
        self.meets = {"rose": rose, "irreducible": tt.irreducible, "tree": tree, "swept": rose and tree}

    @cached_property
    def corpus(self):
        return build_leaf_corpus(self.tt, depth=self.config.leaf_depth, budget=self.config.leaf_budget)

    @cached_property
    def sweep(self) -> list:
        return enumerate_cyclic_words(self.auto.rank, self.config.max_word_len)

    @cached_property
    def eq(self) -> EquivalenceReport | None:
        """The equivalence sweep; None off its domain, where growth classifies alone."""
        swept = self.meets["swept"]
        return equivalence_sweep(self.auto, self.tt, self.corpus, self.sweep, self.config) if swept else None

    @property
    def loop_words(self) -> list:
        return [w for w in self.sweep if len(w) <= 2 and self.eq.labels[w].startswith("Exponential")][:6]


# Report key -> (requirements, section).  Requirements, keys of _Run.meets,
# are checked in order; the first one unmet puts its reason in ``skipped``.
# Lambdas call the sections, so that a name patched later is seen.
STAGES = {
    "input": ({}, lambda run: input_section(run.gmap)),
    "validation": ({"rose": "not a rose map; no group automorphism to validate"},
                   lambda run: asdict(run.auto.validate())),
    "train_track": ({}, lambda run: train_track_section(run.tt)),
    "transition": ({}, lambda run: transition_section(run.tt)),
    "spectral": ({"irreducible": "transition matrix is reducible; no positive eigendata"},
                 lambda run: spectral_section(run.tt)),
    "homothety": ({"swept": "checked on the equivalence sweep, which needs an expanding train track on a rose"},
                  lambda run: homothety_section(run.tt, run.eq)),
    "growth": ({"rose": "conjugacy sweeps need a rose map"},
               lambda run: growth_section(run.auto, run.tt, run.sweep, run.eq, run.config)),
    "equivalence": ({"rose": "conjugacy sweeps need a rose map",
                     "tree": "verdict comparison needs an expanding train track"},
                    lambda run: equivalence_section(run.eq)),
    "lengths": ({"rose": "limit lengths need a rose map",
                 "tree": "limit lengths need an expanding irreducible train track"},
                lambda run: lengths_section(run.auto, run.tt, run.words, run.config.M, run.config.tol)),
    "lamination": ({"tree": "leaves need an expanding irreducible train track"},
                   lambda run: lamination_section(run.corpus)),
    "cancellation": ({}, lambda run: cancellation_section(run.tt, run.config.samples, run.config.seed)),
    "convergence": ({"rose": "comparison constants need a rose map",
                     "tree": "comparison constants need an expanding train track"},
                    lambda run: convergence_section(run.auto, run.tt, loop_words=run.loop_words)),
}


def analyze(source, config: AnalysisConfig | None = None, words=None) -> dict:
    """Full analysis of an automorphism or marked graph map: each of
    :data:`STAGES` in turn, in the report or, with its reason, in ``skipped``.

    ``source`` is input text, an :class:`Automorphism` or a :class:`GraphMap`.
    ``words``, checked up front against the input's edges, adds conjugacy
    classes to the limit-length section.  Apart from the timestamp the
    report is deterministic for a fixed input and config.
    """
    t0 = time.perf_counter()
    run = _Run(source, config or AnalysisConfig(), words)
    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    report: dict = {"meta": {"tool": "traintracks", "timestamp": now, "config": asdict(run.config)}}
    skipped: dict = {}
    for key, (needs, section) in STAGES.items():
        reason = next((reason for need, reason in needs.items() if not run.meets[need]), None)
        if reason is None:
            report[key] = section(run)
        else:
            skipped[key] = reason
    report["skipped"] = skipped
    report["meta"]["elapsed_seconds"] = time.perf_counter() - t0
    return report


def round_floats(obj):
    """Copy a JSON-ready structure with floats at 9 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(f"{obj:.9g}")
        return obj
    if isinstance(obj, np.floating):
        return round_floats(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def report_json(report: dict) -> str:
    import json

    return json.dumps(round_floats(report), indent=2)
