"""End-to-end analysis: parse a description, run every applicable stage,
emit a JSON-ready report.

Stages that do not apply to the input (spectral data for a reducible
matrix, laminations for a non-expanding map, ...) are skipped with a
recorded reason instead of failing, so the report shape is stable.
"""

from __future__ import annotations

import datetime
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .cancellation import cancellation_bound, measure_cancellation
from .errors import InputError, NotALeafSegmentError, NotIrreducibleError, ParseError, PreconditionError
from .graphs import Graph, Metric, unit_metric
from .laminations import (
    PROBE_M,
    build_leaf_corpus,
    quasiperiodicity_window,
    weak_limit_probe,
)
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
from .words import ALPHABET, DEFAULT_WORD_BUDGET, Automorphism, enumerate_cyclic_words, parse_word


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
    leaf_depth: int = 12
    leaf_budget: int = 500_000
    samples: int = 200
    seed: int = 0


@dataclass
class ParsedInput:
    gmap: GraphMap
    auto: Automorphism | None


def _parse_arrow(line: str, lineno: int):
    if "->" not in line:
        raise ParseError(f"expected 'letter -> word', got {line!r}", line=lineno)
    lhs, rhs = line.split("->", 1)
    lhs = lhs.strip()
    rhs = rhs.strip()
    if len(lhs) != 1 or not lhs.isalpha():
        raise ParseError(f"left side must be a single letter, got {lhs!r}", line=lineno)
    try:
        return lhs, parse_word(rhs)
    except InputError as exc:
        raise ParseError(str(exc), line=lineno) from None


def parse_input(text: str) -> ParsedInput:
    """Read an automorphism (rank + generator images) or a marked graph map.

    Grammar, one item per line, '#' comments::

        rank: 2          # rose on two edges
        a -> ab
        b -> a
        inverse:         # optional block certifying invertibility
        a -> b
        b -> Ba

    or, for a map on an arbitrary graph::

        graph:
        vertices: 2
        edge a: 0 1
        edge b: 1 1
        map:
        a -> ab
        b -> b
    """
    rank = None
    images: dict = {}
    inverses: dict = {}
    vertices = None
    endpoints: list = []
    edge_letters: list = []
    edge_images: dict = {}
    section = "images"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        if low == "inverse:":
            section = "inverse"
            continue
        if low == "graph:":
            section = "graph"
            continue
        if low == "map:":
            section = "map"
            continue
        if low.startswith("rank:"):
            try:
                rank = int(line.split(":", 1)[1])
            except ValueError:
                raise ParseError(f"rank is not an integer: {line!r}", line=lineno) from None
            continue
        if section == "graph":
            if low.startswith("vertices:"):
                try:
                    vertices = int(line.split(":", 1)[1])
                except ValueError:
                    raise ParseError(f"vertex count is not an integer: {line!r}", line=lineno) from None
                continue
            if low.startswith("edge "):
                body = line[5:]
                if ":" not in body:
                    raise ParseError(f"expected 'edge x: u v', got {line!r}", line=lineno)
                name, ends = body.split(":", 1)
                name = name.strip()
                parts = ends.split()
                if len(name) != 1 or not name.islower() or len(parts) != 2:
                    raise ParseError(f"expected 'edge x: u v', got {line!r}", line=lineno)
                try:
                    u, v = int(parts[0]), int(parts[1])
                except ValueError:
                    raise ParseError(f"edge endpoints must be integers: {line!r}", line=lineno) from None
                if name in edge_letters:
                    raise ParseError(f"duplicate edge {name!r}", line=lineno)
                edge_letters.append(name)
                endpoints.append((u, v))
                continue
            raise ParseError(f"unexpected line in graph section: {line!r}", line=lineno)
        target = {"images": images, "inverse": inverses, "map": edge_images}[section]
        lhs, rhs = _parse_arrow(line, lineno)
        if lhs in target:
            raise ParseError(f"duplicate image for {lhs!r}", line=lineno)
        target[lhs] = rhs

    if edge_letters:
        if images or inverses:
            raise ParseError("cannot mix generator images with a graph/map description")
        if vertices is None:
            raise ParseError("graph section needs a 'vertices:' line")
        expected = list(ALPHABET[: len(edge_letters)])
        if sorted(edge_letters) != expected:
            raise ParseError(f"edges must be named consecutively a..{expected[-1]}")
        order = {c: i for i, c in enumerate(edge_letters)}
        ordered = [endpoints[order[c]] for c in expected]
        graph = Graph(vertices, ordered)
        missing = [c for c in expected if c not in edge_images]
        if missing:
            raise ParseError(f"map section is missing images for {missing}")
        gmap = GraphMap(graph, [edge_images[c] for c in expected])
        auto = to_automorphism(gmap) if graph.is_rose() else None
        return ParsedInput(gmap=gmap, auto=auto)

    if rank is None:
        raise ParseError("missing 'rank:' line")
    expected = list(ALPHABET[:rank])
    missing = [c for c in expected if c not in images]
    if missing:
        raise ParseError(f"missing images for generators {missing}")
    extra = sorted(set(images) - set(expected))
    if extra:
        raise ParseError(f"images given for letters outside rank {rank}: {extra}")
    inv = None
    if inverses:
        missing = [c for c in expected if c not in inverses]
        if missing:
            raise ParseError(f"missing inverse images for generators {missing}")
        inv = [inverses[c] for c in expected]
    auto = Automorphism([images[c] for c in expected], inverse_images=inv, rank=rank)
    return ParsedInput(gmap=rose_map(auto), auto=auto)


@dataclass
class EquivalenceReport:
    """Agreement of the three loxodromic-growth detectors over a word sweep."""

    checked: int
    exponential: int
    polynomial: int
    discrepancies: list = field(default_factory=list)
    labels: dict = field(default_factory=dict)


def equivalence_sweep(
    auto: Automorphism,
    tt: TrainTrackData,
    corpus,
    words,
    config: AnalysisConfig | None = None,
) -> EquivalenceReport:
    """Run limit-length, growth, and leaf-probe verdicts on every word.

    All three operations share one cached orbit per word, whose growth
    lengths come from count vectors once it is legal; leaf matches are
    shared per class, up to rotation and inversion, through the corpus.  A
    word counts as a discrepancy when the verdicts do not agree; the
    limit-length verdict decides the reported label.  When only the probe
    dissents it is retried with a longer window before the disagreement is
    recorded: orbits that dip through short words need a few extra strides
    to reveal their leaf segments, and bounded orbits stay cheap to extend.
    """
    config = config or AnalysisConfig()
    # Exponential classes grow like lam^m, so the growth statistic tends to
    # log(lam): the threshold log1p(eps) is at most half of that, and the
    # horizon's last quartile spans a growth factor of 3 or more.  For lam
    # above 3^(1/6), about 1.2, these are SWEEP_M and the default eps.
    lam = tt.pf.lam
    growth_M = max(SWEEP_M, 4 * math.ceil(math.log(3) / math.log(lam)))
    growth_eps = min(0.05, math.sqrt(lam) - 1)
    checked = 0
    n_exp = 0
    n_poly = 0
    discrepancies = []
    labels = {}
    for word in words:
        orbit = CyclicOrbit(auto, word, budget=SWEEP_BUDGET, tt=tt)
        rep = limit_length(auto, word, tt, M=config.M, tol=config.tol, orbit=orbit)
        cls = classify_growth(auto, word, M=growth_M, eps=growth_eps, orbit=orbit)
        probe = weak_limit_probe(auto, word, corpus, orbit=orbit)
        a = rep.classification.is_exponential
        b = cls.is_exponential
        c = probe.verdict
        if a and b and not c:
            for factor in (2, 4):
                probe = weak_limit_probe(auto, word, corpus, M=factor * PROBE_M, orbit=orbit)
                if probe.verdict:
                    break
            c = probe.verdict
        checked += 1
        labels[word] = rep.classification.label()
        if a:
            n_exp += 1
        else:
            n_poly += 1
        if not (a == b == c):
            discrepancies.append(
                {"word": word, "limit_length": a, "certificate": rep.certificate, "growth": b, "leaf_probe": c}
            )
    return EquivalenceReport(checked, n_exp, n_poly, discrepancies, labels)


def _coerce(source):
    if isinstance(source, str):
        return parse_input(source)
    if isinstance(source, Automorphism):
        return ParsedInput(gmap=rose_map(source), auto=source)
    if isinstance(source, GraphMap):
        auto = to_automorphism(source) if source.graph.is_rose() else None
        return ParsedInput(gmap=source, auto=auto)
    raise InputError(f"cannot analyze {type(source).__name__}")


# One function per report section.  ``analyze`` calls them in report order;
# the CLI subcommands call the same functions for their JSON output.


def input_section(gmap: GraphMap) -> dict:
    return {
        "rank": gmap.graph.edge_pairs,
        "vertices": gmap.graph.vertex_count,
        "is_rose": gmap.graph.is_rose(),
        "images": {letter: gmap.image_of_letter(letter) for letter in gmap.graph.letters},
    }


def validation_section(auto: Automorphism) -> dict:
    return asdict(auto.validate())


def train_track_section(tt: TrainTrackData) -> dict:
    orbit = tt.verdict.witness_orbit
    return {**asdict(tt.verdict), "witness_orbit": [sorted(t) for t in orbit] if orbit else None}


def transition_section(tt: TrainTrackData) -> dict:
    invariant = tt.gmap.find_invariant_subgraph()
    return {
        "matrix": tt.matrix.tolist(),
        "irreducible": tt.irreducible,
        "invariant_subgraph": sorted(invariant) if invariant else None,
    }


def spectral_section(tt: TrainTrackData) -> dict:
    """Perron-Frobenius data; raises :class:`NotIrreducibleError` (the
    section's skip reason) for a reducible transition matrix."""
    if not tt.irreducible:
        raise NotIrreducibleError("transition matrix is reducible; no positive eigendata")
    pf = tt.pf
    return {
        "lambda": pf.lam,
        "nu": [float(x) for x in pf.nu],
        "k": pf.k,
        "blocks": [list(b) for b in pf.blocks],
        "residual": pf.residual,
        "primitive_first_return": list(pf.primitive_first_return),
        "iterations": pf.iterations,
        "expanding": pf.expanding,
        "simplicial": is_simplicial(tt.matrix),
    }


def homothety_section(tt: TrainTrackData) -> dict:
    return {"max_rel_defect": tt.homothety_defect()}


def growth_classes(auto: Automorphism, tt: TrainTrackData, words, M: int, budget: int | None = None) -> dict:
    """Growth verdict per class: the limit length's certificate on an expanding
    train track, else the classifier's, on a train-track twist if one exists."""
    if tt.verdict.is_train_track and tt.expanding:
        return {w: limit_length(auto, w, tt, M=M, budget=budget).classification for w in words}
    phi, phi_tt = train_track_twist(auto, tt)
    return {w: classify_growth(phi, w, M=M, orbit=CyclicOrbit(phi, w, budget=budget, tt=phi_tt)) for w in words}


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


def lengths_section(
    auto: Automorphism, tt: TrainTrackData, words, M: int = 40, tol: float = 1e-6, budget: int | None = None
) -> dict:
    """Limit length of each class with the certificate that gave it and the
    interval it lies in, split by block for exponential classes."""
    lengths: dict = {}
    for word in words:
        orbit = CyclicOrbit(auto, word, budget=budget, tt=tt)
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
    sample = measure_cancellation(gmap, metric, samples=samples, seed=seed, lam=lam)
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
            legal = measure_cancellation(gmap, metric, samples=samples, seed=seed, lam=lam, legal_only=True)
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


def analyze(source, config: AnalysisConfig | None = None, words=None) -> dict:
    """Full analysis of an automorphism or marked graph map.

    ``source`` may be input text, an :class:`Automorphism`, or a
    :class:`GraphMap`.  ``words`` adds explicit conjugacy classes to the
    limit-length section.  Returns a JSON-ready dict; apart from the
    timestamp the output is deterministic for a fixed input and config.
    """
    t0 = time.perf_counter()
    config = config or AnalysisConfig()
    parsed = _coerce(source)
    gmap, auto = parsed.gmap, parsed.auto
    skipped: dict = {}
    report: dict = {
        "meta": {
            "tool": "traintracks",
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config": asdict(config),
        },
        "input": input_section(gmap),
    }

    if auto is not None:
        report["validation"] = validation_section(auto)
    else:
        skipped["validation"] = "not a rose map; no group automorphism to validate"

    tt = analyze_train_track(gmap, tol=min(1e-12, config.tol))
    report["train_track"] = train_track_section(tt)
    report["transition"] = transition_section(tt)
    try:
        report["spectral"] = spectral_section(tt)
    except NotIrreducibleError as exc:
        skipped["spectral"] = str(exc)

    structured = tt.verdict.is_train_track and tt.irreducible
    if structured:
        report["homothety"] = homothety_section(tt)
    else:
        skipped["homothety"] = "needs a verified irreducible train track"

    leafy = structured and tt.expanding
    corpus = build_leaf_corpus(tt, depth=config.leaf_depth, budget=config.leaf_budget) if leafy else None
    eq = None
    if auto is not None:
        sweep = enumerate_cyclic_words(auto.rank, config.max_word_len)
        if leafy:
            eq = equivalence_sweep(auto, tt, corpus, sweep, config)
        report["growth"] = growth_section(auto, tt, sweep, eq, config)
        if eq is not None:
            report["equivalence"] = equivalence_section(eq)
        else:
            skipped["equivalence"] = "verdict comparison needs an expanding train track"
    else:
        skipped["growth"] = "conjugacy sweeps need a rose map"
        skipped["equivalence"] = "conjugacy sweeps need a rose map"

    if leafy and auto is not None:
        probe_words = list(words) if words else list(ALPHABET[: min(auto.rank, 4)])
        report["lengths"] = lengths_section(
            auto, tt, probe_words, M=config.M, tol=config.tol, budget=DEFAULT_WORD_BUDGET
        )
    else:
        skipped["lengths"] = "limit lengths need an expanding irreducible train track"

    if leafy:
        report["lamination"] = lamination_section(corpus)
    else:
        skipped["lamination"] = "leaves need an expanding irreducible train track"

    report["cancellation"] = cancellation_section(tt, config.samples, config.seed)

    if leafy and auto is not None:
        loop_words = [w for w in sweep if len(w) <= 2 and eq.labels[w].startswith("Exponential")][:6]
        report["convergence"] = convergence_section(auto, tt, loop_words=loop_words)
    else:
        skipped["convergence"] = "comparison constants need an expanding train track"

    report["skipped"] = skipped
    report["meta"]["elapsed_seconds"] = time.perf_counter() - t0
    return report


def round_floats(obj, sig: int = 9):
    """Copy a JSON-ready structure with floats at ``sig`` significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(f"{obj:.{sig}g}")
        return obj
    if isinstance(obj, np.floating):
        return round_floats(float(obj), sig)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {k: round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, sig) for v in obj]
    return obj


def report_json(report: dict, sig: int = 9) -> str:
    import json

    return json.dumps(round_floats(report, sig), indent=2)
