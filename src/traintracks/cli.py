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
from dataclasses import asdict

from . import corpus
from .cancellation import cancellation_bound, measure_cancellation
from .errors import (
    BudgetExceededError,
    InputError,
    InternalConsistencyError,
    NotALeafSegmentError,
    NotIrreducibleError,
    PowerIterationError,
    PreconditionError,
)
from .graphs import Metric, unit_metric
from .laminations import build_leaf_corpus, quasiperiodicity_window
from .limits import classify_growth
from .pipeline import (
    AnalysisConfig,
    analyze,
    convergence_section,
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


def _read_source(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    if source.startswith("example:"):
        return corpus.input_text(source.split(":", 1)[1])
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(args):
    return parse_input(_read_source(args.input))


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
    """The ``--words`` classes, else every class up to ``sweep_len`` if given."""
    if args.words:
        return [parse_word(w, rank) for chunk in args.words.split(",") for w in chunk.split() if w]
    return None if sweep_len is None else enumerate_cyclic_words(rank, sweep_len)


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
    tt = analyze_train_track(parsed.gmap, tol=args.tol)
    sp = spectral_section(tt)
    print(f"lambda = {_g(sp['lambda'])}  (k = {sp['k']}, residual {_g(sp['residual'])})")
    print(f"nu = ({', '.join(_g(x) for x in sp['nu'])})")
    print("blocks: " + "  ".join("{" + ",".join(b) + "}" for b in sp["blocks"]))
    if tt.verdict.is_train_track:
        print(f"homothety defect: {_g(tt.homothety_defect())}")
    _emit_json(args, sp)
    return 0


def _cmd_growth(args) -> int:
    parsed = _load(args)
    if parsed.auto is None:
        raise PreconditionError("growth classification needs a rose map")
    auto = parsed.auto
    words = _word_list(args, auto.rank, args.sweep_len)
    out = {}
    for word in words:
        cls = classify_growth(auto, word, M=args.max_m)
        flag = " (low confidence)" if cls.low_confidence else ""
        print(f"{word}: {cls.label()}{flag}")
        out[word] = {
            "kind": cls.kind,
            "rate": cls.rate,
            "degree": cls.degree,
            "statistic": cls.statistic,
        }
    _emit_json(args, out)
    return 0


def _cmd_lengths(args) -> int:
    parsed = _load(args)
    if parsed.auto is None:
        raise PreconditionError("limit lengths need a rose map")
    auto = parsed.auto
    tt = analyze_train_track(parsed.gmap, tol=args.tol)
    k = spectral_section(tt)["k"]  # on a reducible map, exits 2 with the section's skip reason
    words = _word_list(args, auto.rank, args.sweep_len)
    lengths = lengths_section(auto, tt, words, M=args.max_m)
    for word in words:
        entry = lengths[word]
        line = f"{word}: limit {_g(entry['limit'])} at m={entry['m_stop']} [{entry['classification']}]"
        if "per_block" in entry and k > 1:
            line += "  blocks (" + ", ".join(_g(x) for x in entry["per_block"]) + ")"
        print(line)
    _emit_json(args, lengths)
    return 0


def _cmd_leaf(args) -> int:
    parsed = _load(args)
    tt = analyze_train_track(parsed.gmap)
    lam_corpus = build_leaf_corpus(tt, depth=args.depth, budget=args.budget)
    out = []
    for prefix in lam_corpus.prefixes:
        seed = prefix.seed
        print(
            f"block {seed.block}: seed {seed.edge} (power {seed.power}, anchor {seed.anchor}), "
            f"prefix {len(prefix.word)} edges" + (" [truncated]" if prefix.truncated else "")
        )
        print(f"  ...{prefix.spelled(radius=args.radius)}...")
        segment = args.segment or prefix.centered_slice(3)
        cert = quasiperiodicity_window(prefix, segment)
        print(
            f"  window({segment!r}) = {cert.window} [{cert.status}, {cert.occurrences} occurrences]"
        )
        out.append(
            {
                "block": seed.block,
                "edge": seed.edge,
                "power": seed.power,
                "anchor": seed.anchor,
                "prefix_length": len(prefix.word),
                "truncated": prefix.truncated,
                "segment": segment,
                "window": cert.window,
                "status": cert.status,
            }
        )
    _emit_json(args, out)
    return 0


def _cmd_cancellation(args) -> int:
    parsed = _load(args)
    tt = analyze_train_track(parsed.gmap)
    metric = tt.metric if tt.metric is not None else unit_metric(parsed.gmap.graph)
    lam = tt.pf.lam if tt.expanding else None
    bound = cancellation_bound(parsed.gmap, metric, lam=lam)
    print(str(bound))
    sample = measure_cancellation(
        parsed.gmap,
        metric,
        samples=args.samples,
        seed=args.seed,
        lam=lam,
        legal_only=args.legal_only,
    )
    kind = "legal splits" if args.legal_only else "random splits"
    print(
        f"measured over {sample.count} {kind}: max {_g(sample.max_measured)}, "
        f"mean {_g(sample.mean_measured)} (bound {'holds' if sample.within_bound else 'FAILS'})"
    )
    _emit_json(
        args,
        {
            **asdict(bound),
            "count": sample.count,
            "max_measured": sample.max_measured,
            "mean_measured": sample.mean_measured,
            "within_bound": sample.within_bound,
            "legal_only": sample.legal_only,
        },
    )
    return 0


def _cmd_convergence(args) -> int:
    parsed = _load(args)
    if parsed.auto is None:
        raise PreconditionError("convergence constants need a rose map")
    tt = analyze_train_track(parsed.gmap)
    alt = Metric([float(x) for x in args.metric.split(",")]) if args.metric else None
    words = _word_list(args, parsed.auto.rank)
    conv = convergence_section(parsed.auto, tt, alt, depth=args.depth, loop_words=words)
    for i, (c, s) in enumerate(zip(conv["constants"], conv["spreads"])):
        print(f"c_{i} = {_g(c)} (spread {_g(s)})")
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
        print(f"lambda = {sp['lambda']}, k = {sp['k']}, nu = {sp['nu']}")
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
    if "cancellation" in rounded:
        c = rounded["cancellation"]
        print(
            f"cancellation: bound {c['bound']}, measured max {c['random_splits']['max_measured']}"
        )
    if "convergence" in rounded:
        conv = rounded["convergence"]
        print(f"convergence constants: {conv['constants']}")
    if rounded.get("skipped"):
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

    p = subs.add_parser("verify-tt", help="check the train-track property")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_tt)

    p = subs.add_parser("spectral", help="stretch factor and eigenmetric")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-12)
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
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_lengths)

    p = subs.add_parser("leaf", help="lamination leaf prefixes and windows")
    _add_common(p)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--budget", type=int, default=500_000)
    p.add_argument("--radius", type=int, default=20)
    p.add_argument("--segment", help="certify this segment instead of the center")
    p.set_defaults(func=_cmd_leaf)

    p = subs.add_parser("cancellation", help="bounded cancellation: bound and measurements")
    _add_common(p)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--legal-only", action="store_true")
    p.set_defaults(func=_cmd_cancellation)

    p = subs.add_parser("convergence", help="per-block metric comparison constants")
    _add_common(p)
    p.add_argument("--depth", type=int, default=14)
    p.add_argument("--metric", help="comma-separated edge lengths (default: unit)")
    p.add_argument("--words", help="loops for the uniform cross-check")
    p.set_defaults(func=_cmd_convergence)

    p = subs.add_parser("analyze", help="full pipeline")
    _add_common(p)
    p.add_argument("--max-m", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--sweep-len", type=int, default=5)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
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
    except (InternalConsistencyError, PowerIterationError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
