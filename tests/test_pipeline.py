"""Input parsing, the full analyze report, JSON shaping, and the CLI."""

import hashlib
import json
import math
import re

import pytest

from traintracks import (
    AnalysisConfig,
    ParseError,
    analyze,
    build_leaf_corpus,
    equivalence_sweep,
    parse_input,
    report_json,
    round_floats,
)
from traintracks import corpus
from traintracks.cli import main

PHI = (1.0 + math.sqrt(5.0)) / 2.0

FAST = AnalysisConfig(max_word_len=3, leaf_depth=8, leaf_budget=100_000, samples=50, convergence_depth=10)


# ----------------------------------------------------------------- parsing


@pytest.mark.parametrize("name", sorted(corpus.REGISTRY))
def test_parse_round_trips_bundled_examples(name):
    parsed = parse_input(corpus.input_text(name))
    expected = corpus.get(name)
    assert parsed.auto is not None
    assert parsed.auto.images == expected.images
    assert parsed.auto.inverse_images == expected.inverse_images


def test_parse_plain_rose():
    parsed = parse_input("rank: 2\na -> ab\nb -> a\n")
    assert parsed.auto.images == ("ab", "a")
    assert parsed.auto.inverse_images is None
    assert parsed.gmap.graph.is_rose()


def test_parse_comments_and_spacing():
    text = "# leading comment\nrank: 2\n\na -> a b   # spaced word\nb -> a\n"
    assert parse_input(text).auto.images == ("ab", "a")


def test_parse_graph_section():
    text = (
        "graph:\n"
        "vertices: 2\n"
        "edge a: 0 1\n"
        "edge b: 0 1\n"
        "edge c: 0 1\n"
        "map:\n"
        "a -> b\n"
        "b -> c\n"
        "c -> a\n"
    )
    parsed = parse_input(text)
    assert parsed.auto is None
    assert parsed.gmap.graph.vertex_count == 2
    assert parsed.gmap.edge_images == ("b", "c", "a")


def test_parse_graph_rose_recovers_automorphism():
    text = "graph:\nvertices: 1\nedge a: 0 0\nedge b: 0 0\nmap:\na -> ab\nb -> a\n"
    parsed = parse_input(text)
    assert parsed.auto is not None
    assert parsed.auto.images == ("ab", "a")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("a -> ab\nb -> a\n", "missing 'rank:'"),
        ("rank: two\na -> ab\nb -> a\n", "not an integer"),
        ("rank: 2\na -> ab\n", "missing images"),
        ("rank: 2\na -> ab\nb -> a\na -> b\n", "duplicate image"),
        ("rank: 2\na -> ab\nb -> a\nc -> a\n", "outside rank"),
        ("rank: 2\nab -> ab\nb -> a\n", "single letter"),
        ("rank: 2\na = ab\nb -> a\n", "expected 'letter -> word'"),
        ("rank: 2\na -> a2\nb -> a\n", "unexpected character"),
        ("graph:\nedge a: 0 0\nmap:\na -> a\n", "vertices"),
        ("graph:\nvertices: 1\nedge a: 0 0\nedge a: 0 0\nmap:\na -> a\n", "duplicate edge"),
        ("graph:\nvertices: 1\nedge a: 0 0\nwhat\nmap:\na -> a\n", "unexpected line"),
        ("graph:\nvertices: 1\nedge b: 0 0\nmap:\nb -> b\n", "consecutively"),
        ("graph:\nvertices: 1\nedge a: 0 0\nmap:\n", "missing images"),
        ("rank: 2\na -> ab\nb -> a\ngraph:\nvertices: 1\nedge a: 0 0\nmap:\na -> a\n", "cannot mix"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_input(text)
    assert fragment in str(exc.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_input("rank: 2\na -> ab\nb => a\n")
    assert exc.value.line == 3
    assert "(line 3)" in str(exc.value)


# ------------------------------------------------------------- equivalence


def test_equivalence_sweep_no_discrepancies(fib, fib_tt):
    from traintracks import enumerate_cyclic_words

    leaf_corpus = build_leaf_corpus(fib_tt, depth=8, budget=100_000)
    words = enumerate_cyclic_words(2, 4)
    rep = equivalence_sweep(fib, fib_tt, leaf_corpus, words)
    assert rep.checked == len(words)
    assert rep.discrepancies == []
    assert rep.exponential + rep.polynomial == rep.checked
    assert rep.labels["a"].startswith("Exponential")
    assert rep.labels["abAB"] == "Polynomial(0)"


# ----------------------------------------------------------------- analyze


@pytest.fixture(scope="module")
def fib_report():
    return analyze(corpus.fibonacci(), config=FAST)


def test_analyze_report_sections(fib_report):
    expected = {
        "meta",
        "input",
        "validation",
        "train_track",
        "transition",
        "spectral",
        "homothety",
        "growth",
        "equivalence",
        "lengths",
        "lamination",
        "cancellation",
        "convergence",
        "skipped",
    }
    assert set(fib_report) == expected
    assert fib_report["skipped"] == {}
    assert fib_report["train_track"]["is_train_track"] is True
    assert fib_report["spectral"]["lambda"] == pytest.approx(PHI, abs=1e-9)
    assert fib_report["equivalence"]["discrepancies"] == 0
    assert fib_report["lengths"]["a"]["limit"] == pytest.approx(1 / PHI, abs=1e-6)
    assert fib_report["cancellation"]["legal_splits"]["max_measured"] <= 1e-12
    assert fib_report["convergence"]["constants"][0] == pytest.approx(PHI**3 / math.sqrt(5), abs=1e-4)


def test_analyze_skips_structured_stages_for_reducible():
    report = analyze(corpus.unipotent_rank2(), config=FAST)
    skipped = report["skipped"]
    for stage in ("spectral", "homothety", "equivalence", "lengths", "lamination", "convergence"):
        assert stage in skipped
    assert report["transition"]["irreducible"] is False
    assert report["transition"]["invariant_subgraph"] == ["a"]
    assert report["growth"]["polynomial"] == report["growth"]["classes"]
    assert report["cancellation"]["metric"] == "unit"


def test_analyze_non_train_track_still_reports():
    report = analyze(corpus.fibonacci_conjugate_b(), config=FAST)
    assert report["train_track"]["is_train_track"] is False
    assert report["train_track"]["fails_at_iterate"] == 2
    assert "spectral" in report  # irreducible even though not a train track
    assert "lengths" in report["skipped"]
    assert "legal_splits" not in report["cancellation"]


def test_analyze_accepts_text_and_words():
    report = analyze("rank: 2\na -> ab\nb -> a\n", config=FAST, words=["ab", "aB"])
    assert set(report["lengths"]) == {"ab", "aB"}
    assert report["lengths"]["ab"]["limit"] == pytest.approx(1.0, abs=1e-6)
    assert report["validation"]["warnings"]  # no inverse block given


def test_analyze_deterministic_modulo_meta():
    a = analyze(corpus.fibonacci(), config=FAST)
    b = analyze(corpus.fibonacci(), config=FAST)
    for r in (a, b):
        r["meta"].pop("timestamp")
        r["meta"].pop("elapsed_seconds")
    assert report_json(a) == report_json(b)


def test_analyze_rejects_unknown_source():
    from traintracks import InputError

    with pytest.raises(InputError):
        analyze(42)


# -------------------------------------------------------------- json utils


def test_round_floats_shapes():
    import numpy as np

    data = {
        "x": 0.12345678912345,
        "flag": True,
        "n": np.int64(7),
        "arr": [np.float64(1.0) / 3.0, (2.0 / 3.0,)],
        "inf": float("inf"),
        "s": "word",
    }
    out = round_floats(data)
    assert out["x"] == 0.123456789
    assert out["flag"] is True and isinstance(out["n"], int)
    assert out["arr"][0] == 0.333333333
    assert out["arr"][1] == [0.666666667]
    assert math.isinf(out["inf"])
    assert out["s"] == "word"


# SHA-256 of report_json(report) without "meta", at FAST, recorded before the
# report sections were shared with the CLI; the report must not drift.
GOLDEN_FAST_DIGESTS = {
    "fibonacci": "4d5c35b475814a77c8acde5cf3ee857c4ccf905f53910c2cdbcfde23aee6de87",
    "fibonacci-conj-a": "c94022e298b1317c3d4b06bb759f20d8570415e8f707976e3c92d384adcb048c",
    "fibonacci-conj-b": "246a66f3350c9e8dd3dec2aeac3e3a7a2c095d4a28fd36ca12298b604a04fa02",
    "identity": "f633099568ee25752582ad95aaefcea41ca2d59078ea93041e9e4fe84958717c",
    "swap": "40e7ca3dd20d3e5f64d921ec6f19daec5f5088e070999830e7717bf77e96cc53",
    "swap-fibonacci": "b17b6c279f755c24334665238147d9856499f3ddac5ef1540a4da93523cc4e77",
    "unipotent": "a9fa063a1c874636dcd36318792b6d092ea4b4c48ab72a4df42183fecc83f50a",
}


def test_report_json_serializes_all_examples():
    for name in sorted(corpus.REGISTRY):
        report = analyze(corpus.get(name), config=FAST)
        parsed = json.loads(report_json(report))
        assert parsed["input"]["rank"] == corpus.get(name).rank
        report.pop("meta")
        assert hashlib.sha256(report_json(report).encode()).hexdigest() == GOLDEN_FAST_DIGESTS[name], name


# --------------------------------------------------------------------- cli


def _json_tail(out: str):
    return json.loads(out[out.index("\n{") :])


def test_cli_verify_tt(capsys, fib_report):
    assert main(["verify-tt", "example:fibonacci", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert "train track: yes" in out
    assert "irreducible: yes" in out
    assert _json_tail(out) == {**fib_report["train_track"], **fib_report["transition"]}


def test_cli_verify_tt_failure_is_exit_zero(capsys):
    assert main(["verify-tt", "example:fibonacci-conj-b"]) == 0
    out = capsys.readouterr().out
    assert "train track: NO (degenerate at iterate 2" in out


def test_cli_spectral_json(capsys):
    assert main(["spectral", "example:fibonacci", "--json", "-"]) == 0
    payload = _json_tail(capsys.readouterr().out)
    assert payload["lambda"] == pytest.approx(PHI, abs=1e-8)
    assert payload["k"] == 1
    assert payload["expanding"] is True and payload["simplicial"] is False


def test_cli_growth(capsys):
    assert main(["growth", "example:unipotent", "--words", "b"]) == 0
    assert "b: Polynomial(1)" in capsys.readouterr().out


def test_cli_lengths(capsys):
    assert main(["lengths", "example:fibonacci", "--words", "a", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert "a: limit 0.618" in out
    assert "blocks (" not in out  # one block: the text shows no split
    assert _json_tail(out)["a"]["per_block"] == [pytest.approx(0.618034, abs=1e-6)]


def test_cli_lengths_answers_on_non_expanding_train_track(capsys):
    assert main(["lengths", "example:swap", "--words", "a", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert "a: limit 0 at m=0 [Polynomial(0)]" in out
    assert "per_block" not in _json_tail(out)["a"]


def test_cli_lengths_per_block(capsys):
    assert main(["lengths", "example:swap-fibonacci", "--words", "a"]) == 0
    assert "blocks (" in capsys.readouterr().out


def test_cli_leaf(capsys):
    assert main(["leaf", "example:fibonacci", "--depth", "6"]) == 0
    out = capsys.readouterr().out
    assert "block 0: seed a (power 3, anchor 2)" in out
    assert "window(" in out


def test_cli_cancellation(capsys):
    assert main(["cancellation", "example:fibonacci", "--samples", "50"]) == 0
    out = capsys.readouterr().out
    assert "C <= Lip * vol" in out
    assert "bound holds" in out


def test_cli_cancellation_legal(capsys):
    assert main(["cancellation", "example:fibonacci", "--legal-only"]) == 0
    out = capsys.readouterr().out
    assert "legal splits" in out and "bound holds" in out
    measured = float(re.search(r"max ([0-9.e+-]+)", out).group(1))
    assert measured <= 1e-12


def test_cli_convergence(capsys):
    assert main(["convergence", "example:fibonacci", "--depth", "12", "--json", "-"]) == 0
    out = capsys.readouterr().out
    c0 = float(re.search(r"c_0 = ([0-9.e+-]+)", out).group(1))
    assert c0 == pytest.approx(PHI**3 / math.sqrt(5), abs=1e-6)
    assert _json_tail(out)["alt_metric"] == "unit"


def test_cli_analyze_json_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["analyze", "example:fibonacci", "--sweep-len", "3", "--depth", "8", "--json", str(target)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "train track: yes" in out
    assert "verdict agreement" in out
    payload = json.loads(target.read_text())
    assert payload["spectral"]["lambda"] == pytest.approx(PHI, abs=1e-8)
    assert payload["equivalence"]["discrepancies"] == 0


def test_cli_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("rank: 2\na -> ab\nb -> a\n"))
    assert main(["verify-tt", "-"]) == 0
    assert "train track: yes" in capsys.readouterr().out


def test_cli_file_input(tmp_path, capsys):
    src = tmp_path / "map.txt"
    src.write_text("rank: 2\na -> ab\nb -> a\n")
    assert main(["verify-tt", str(src)]) == 0
    assert "train track: yes" in capsys.readouterr().out


# ----------------------------------------------------------- cli exit codes


def test_cli_missing_file_is_io_error(capsys):
    assert main(["verify-tt", "/no/such/file.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_bad_syntax_is_input_error(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("rank: 2\na -> ab\n")
    assert main(["verify-tt", str(src)]) == 2
    assert "missing images" in capsys.readouterr().err


def test_cli_unknown_example_is_input_error(capsys):
    assert main(["spectral", "example:nonsense"]) == 2
    assert "nonsense" in capsys.readouterr().err


def test_corpus_get_unknown_is_input_error():
    from traintracks import InputError

    with pytest.raises(InputError, match="nonsense"):
        corpus.get("nonsense")


def test_cli_internal_key_error_is_not_input_error(monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr("traintracks.cli.analyze_train_track", broken)
    with pytest.raises(KeyError):
        main(["verify-tt", "example:fibonacci"])


def test_cli_reducible_spectral_is_domain_error(capsys):
    assert main(["spectral", "example:unipotent"]) == 2
    err = capsys.readouterr().err
    assert "reducible" in err
    assert analyze(corpus.unipotent_rank2(), config=FAST)["skipped"]["spectral"] in err


def test_cli_leaf_on_non_expanding_is_domain_error(capsys):
    assert main(["leaf", "example:identity"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_leaf_bad_segment_is_domain_error(capsys):
    assert main(["leaf", "example:fibonacci", "--depth", "6", "--segment", "bb"]) == 2
    assert "does not occur" in capsys.readouterr().err
