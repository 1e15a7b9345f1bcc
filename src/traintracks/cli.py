"""Command-line interface.

Inputs are description files (see :func:`traintracks.pipeline.parse_input`),
``-`` for stdin, or ``example:NAME`` for a bundled example.  Exit codes:
0 success (including a failing train-track verdict, which is a successful
analysis), 1 I/O problems, 2 malformed or out-of-domain input, 3 an internal
consistency failure.
"""

from __future__ import annotations

import argparse
import sys

from . import corpus
from .cancellation import CancellationBound
from .errors import (
    BudgetExceededError,
    InputError,
    InternalConsistencyError,
    NotALeafSegmentError,
    NotIrreducibleError,
    PreconditionError,
)
from .graphs import Metric
from .laminations import build_leaf_corpus
from .pipeline import (
    NEEDS_ROSE,
    AnalysisConfig,
    analyze,
    cancellation_section,
    convergence_section,
    growth_classes,
    lamination_section,
    lengths_section,
    parse_input,
    report_json,
    round_floats,
    spectral_section,
    train_track_section,
    transition_section,
)
from .spectral import analyze_train_track
from .words import enumerate_cyclic_words, parse_word

_PERRON_ROOT = " (the Perron root of this map's transition matrix, an upper bound on the stretch factor)"


def _read_source(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    if source.startswith("example:"):
        return corpus.input_text(source.split(":", 1)[1])
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(args, stage: str | None = None):
    """The parsed input, which ``stage`` refuses off a rose with the reason ``analyze`` skips it for."""
    parsed = parse_input(_read_source(args.input))
    if stage is not None and parsed.auto is None:
        raise PreconditionError(f"the {stage} stage {NEEDS_ROSE}")
    return parsed


def _emit_json(args, payload) -> None:
    if not getattr(args, "json", None):
        return
    text = report_json(payload)
    if args.json == "-":
        print(text)
    else:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _word_list(args, rank: int | None = None, sweep_len: int | None = None):
    """The ``--words`` classes, which must name one, else every class up to ``sweep_len`` if given."""
    if args.words is None:
        return None if sweep_len is None else enumerate_cyclic_words(rank, sweep_len)
    words = [parse_word(w, rank) for chunk in args.words.split(",") for w in chunk.split() if w]
    if not words:
        raise InputError(f"--words names no class: {args.words!r}")
    return words


def _g(x: float) -> str:
    return f"{x:.9g}"


def _cmd_verify_tt(args) -> int:
    parsed = _load(args)
    tt = analyze_train_track(parsed.gmap)
    verdict = train_track_section(tt)
    transition = transition_section(tt)
    if verdict["is_train_track"]:
        print(f"train track: yes ({verdict['checked_turns']} taken turns, all orbits nondegenerate)")
    else:
        orbit = " -> ".join("{" + ",".join(t) + "}" for t in verdict["witness_orbit"])
        print(f"train track: NO (degenerate at iterate {verdict['fails_at_iterate']}: {orbit})")
    inv = transition["invariant_subgraph"]
    print(f"irreducible: {'yes' if tt.irreducible else 'no'}", end="")
    print(f" (invariant subgraph: {{{','.join(inv)}}})" if inv else "")
    _emit_json(args, {**verdict, **transition})
    return 0


def _cmd_spectral(args) -> int:
    parsed = _load(args)
    tt = analyze_train_track(parsed.gmap)
    sp = spectral_section(tt)
    bound = "" if sp["lambda_is_stretch_factor"] else _PERRON_ROOT
    print(f"lambda = {_g(sp['lambda'])}{bound}  (k = {sp['k']}, residual {_g(sp['residual'])})")
    print(f"nu = ({', '.join(_g(x) for x in sp['nu'])})")
    print("blocks: " + "  ".join("{" + ",".join(b) + "}" for b in sp["blocks"]))
    _emit_json(args, sp)
    return 0


def _cmd_growth(args) -> int:
    parsed = _load(args, "growth")
    words = _word_list(args, parsed.auto.rank, args.sweep_len)
    classes = growth_classes(parsed.auto, analyze_train_track(parsed.gmap), words, args.max_m)
    for word, cls in classes.items():
        print(f"{word}: {cls.label()}{' (low confidence)' if cls.low_confidence else ''}")
    keys = ("kind", "rate", "degree", "statistic")
    _emit_json(args, {word: {key: getattr(cls, key) for key in keys} for word, cls in classes.items()})
    return 0


def _cmd_lengths(args) -> int:
    parsed = _load(args, "limit lengths")
    auto = parsed.auto
    tt = analyze_train_track(parsed.gmap)
    words = _word_list(args, auto.rank, args.sweep_len)
    lengths = lengths_section(auto, tt, words, M=args.max_m, tol=args.tol)
    for word in words:
        entry = lengths[word]
        how = entry["certificate"] or "uncertified, in [" + ", ".join(_g(x) for x in entry["interval"]) + "]"
        line = f"{word}: limit {_g(entry['limit'])} at m={entry['m_stop']} [{entry['classification']}] {how}"
        if "per_block" in entry and tt.pf.k > 1:
            line += "  blocks (" + ", ".join(_g(x) for x in entry["per_block"]) + ")"
        print(line)
    _emit_json(args, lengths)
    return 0


def _cmd_leaf(args) -> int:
    parsed = _load(args)
    segment = args.segment and parse_word(args.segment, parsed.gmap.graph.edge_pairs)
    tt = analyze_train_track(parsed.gmap)
    lam = lamination_section(build_leaf_corpus(tt, depth=args.depth, budget=args.budget), segment=segment)
    rows = zip(lam["seeds"], lam["prefix_lengths"], lam["truncated"], lam["previews"], lam["windows"])
    for block, (seed, length, truncated, preview, window) in enumerate(rows):
        print(
            f"block {block}: seed {seed['edge']} (power {seed['power']}, anchor {seed['anchor']}), "
            f"prefix {length} edges" + (" [truncated]" if truncated else "")
        )
        print(f"  ...{preview}...")
        print(f"  window({window['segment']!r}) = {window['window']} [{window['status']}]")
    _emit_json(args, lam)
    return 0


def _cmd_cancellation(args) -> int:
    parsed = _load(args)
    c = cancellation_section(analyze_train_track(parsed.gmap), args.samples, args.seed)
    print(CancellationBound(c["lipschitz"], c["volume"], c["bound"], c["projection_bound"]))
    r = c["random_splits"]
    print(
        f"measured over {r['count']} random splits: max {_g(r['max_measured'])}, "
        f"mean {_g(r['mean_measured'])} (bound {'holds' if r['within_bound'] else 'FAILS'})"
    )
    legal = c.get("legal_splits", {})
    if "skipped" in legal:
        print(f"legal splits skipped: {legal['skipped']}")
    elif legal:
        print(f"measured over {legal['count']} legal splits: max {_g(legal['max_measured'])}")
    _emit_json(args, c)
    return 0


def _cmd_convergence(args) -> int:
    parsed = _load(args, "convergence constants")
    tt = analyze_train_track(parsed.gmap)
    alt = Metric(args.metric.split(",")) if args.metric else None
    words = _word_list(args, parsed.auto.rank)
    conv = convergence_section(parsed.auto, tt, alt, loop_words=words)
    for i, c in enumerate(conv["constants"]):
        print(f"c_{i} = {_g(c)}")
    if conv["uniform_checked"]:
        print(
            f"uniform check on {conv['uniform_checked']} loops: "
            f"max relative error {_g(conv['uniform_max_rel_error'])}"
        )
    _emit_json(args, conv)
    return 0


def _cmd_analyze(args) -> int:
    config = AnalysisConfig(
        M=args.max_m,
        tol=args.tol,
        max_word_len=args.sweep_len,
        leaf_depth=args.depth,
        samples=args.samples,
        seed=args.seed,
    )
    report = analyze(_read_source(args.input), config=config, words=_word_list(args))
    _print_summary(report)
    _emit_json(args, report)
    return 0


def _print_summary(report: dict) -> None:
    rounded = round_floats(report)
    tt = rounded["train_track"]
    print(f"rank {rounded['input']['rank']}, images " + str(rounded["input"]["images"]))
    if "validation" in rounded:
        val = rounded["validation"]
        print(f"validation: {'ok' if val['ok'] else 'PROBLEMS: ' + '; '.join(val['problems'])}")
    print("train track: " + ("yes" if tt["is_train_track"] else f"NO (iterate {tt['fails_at_iterate']})"))
    if "spectral" in rounded:
        sp = rounded["spectral"]
        print(f"lambda = {sp['lambda']}{'' if tt['is_train_track'] else _PERRON_ROOT}, k = {sp['k']}, nu = {sp['nu']}")
    if "homothety" in rounded:
        h = rounded["homothety"]
        print(f"homothety over {h['pairs']} sweep pairs: max defect {h['max_rel_defect']}, mismatched {h['mismatched']}")
    if "growth" in rounded:
        g = rounded["growth"]
        print(
            f"growth over {g['classes']} classes (len <= {g['sweep_len']}): "
            f"{g.get('exponential', 0)} exponential, {g.get('polynomial', 0)} polynomial"
        )
    if "equivalence" in rounded:
        eq = rounded["equivalence"]
        print(f"verdict agreement: {eq['checked']} checked, {eq['discrepancies']} discrepancies")
    if "lamination" in rounded:
        lam = rounded["lamination"]
        print(f"leaves: {lam['k']} block(s), prefix lengths {lam['prefix_lengths']}")
    c = rounded["cancellation"]
    print(f"cancellation: bound {c['bound']}, measured max {c['random_splits']['max_measured']}")
    if "convergence" in rounded:
        conv = rounded["convergence"]
        print(f"convergence constants: {conv['constants']}")
    for stage, reason in rounded["skipped"].items():
        print(f"skipped {stage}: {reason}")


def _add_common(sub):
    sub.add_argument("input", help="description file, '-' for stdin, or example:NAME")
    sub.add_argument("--json", help="write a JSON report to this path ('-' for stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traintracks",
        description="Train-track maps of free group automorphisms: verification, "
        "spectral data, limit lengths, laminations, cancellation bounds.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    defaults = AnalysisConfig()

    p = subs.add_parser("verify-tt", help="check the train-track property")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_tt)

    p = subs.add_parser("spectral", help="stretch factor and eigenmetric")
    _add_common(p)
    p.set_defaults(func=_cmd_spectral)

    p = subs.add_parser("growth", help="exponential/polynomial classification")
    _add_common(p)
    p.add_argument("--words", help="comma-separated conjugacy classes")
    p.add_argument("--sweep-len", type=int, default=3, help="sweep all classes up to this length")
    p.add_argument("--max-m", type=int, default=40)
    p.set_defaults(func=_cmd_growth)

    p = subs.add_parser("lengths", help="limit translation lengths")
    _add_common(p)
    p.add_argument("--words", help="comma-separated conjugacy classes")
    p.add_argument("--sweep-len", type=int, default=2)
    p.add_argument("--max-m", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_lengths)

    p = subs.add_parser("leaf", help="lamination leaf prefixes and windows")
    _add_common(p)
    p.add_argument("--depth", type=int, default=defaults.leaf_depth)
    p.add_argument("--budget", type=int, default=defaults.leaf_budget)
    p.add_argument("--segment", help="certify this segment instead of the center")
    p.set_defaults(func=_cmd_leaf)

    p = subs.add_parser("cancellation", help="bounded cancellation: bound and measurements")
    _add_common(p)
    p.add_argument("--samples", type=int, default=defaults.samples)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.set_defaults(func=_cmd_cancellation)

    p = subs.add_parser("convergence", help="per-block metric comparison constants")
    _add_common(p)
    p.add_argument("--metric", help="comma-separated edge lengths (default: unit)")
    p.add_argument("--words", help="loops for the uniform cross-check")
    p.set_defaults(func=_cmd_convergence)

    p = subs.add_parser("analyze", help="full pipeline")
    _add_common(p)
    p.add_argument("--max-m", type=int, default=defaults.M)
    p.add_argument("--tol", type=float, default=defaults.tol)
    p.add_argument("--sweep-len", type=int, default=defaults.max_word_len)
    p.add_argument("--depth", type=int, default=defaults.leaf_depth)
    p.add_argument("--samples", type=int, default=defaults.samples)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--words", help="extra classes for the lengths section")
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        InputError,
        PreconditionError,
        NotALeafSegmentError,
        NotIrreducibleError,
        BudgetExceededError,
    ) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
