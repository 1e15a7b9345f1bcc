"""Word layer: free reduction, cyclic words, automorphisms.

Oracles used here are deliberately different algorithms from the library:
a stack reducer instead of replace passes, end-stripping recursion for
cyclic reduction, and an explicit min-over-rotations for the canonical
form.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from traintracks import (
    Automorphism,
    BudgetExceededError,
    CyclicWord,
    InputError,
    canonical_rotation,
    cyclic_reduce,
    enumerate_cyclic_words,
    format_word,
    invert_word,
    is_cyclically_reduced,
    is_reduced,
    parse_word,
    reduce_word,
)
from traintracks import corpus


# ---------------------------------------------------------------- oracles


def stack_reduce(word):
    out = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def strip_cyclic(word):
    """End-stripping cyclic reduction of an already reduced word."""
    conj = []
    while len(word) >= 2 and word[0] == word[-1].swapcase():
        conj.append(word[0])
        word = word[1:-1]
    return word, "".join(conj)


def rotation_key(word):
    # index-then-orientation order: a < A < b < B < ...
    return [(ord(c.lower()), 0 if c.islower() else 1) for c in word]


def min_rotation(word):
    rots = [word[i:] + word[:i] for i in range(len(word))] or [word]
    return min(rots, key=rotation_key)


def words_st(rank=2, max_size=40):
    alphabet = "".join(
        c for i in range(rank) for c in (chr(97 + i), chr(65 + i))
    )
    return st.text(alphabet=alphabet, max_size=max_size)


# ----------------------------------------------------------- reduction


def test_reduce_frozen_cases():
    assert reduce_word("") == ""
    assert reduce_word("aA") == ""
    assert reduce_word("abBA") == ""
    assert reduce_word("abBa") == "aa"
    assert reduce_word("BaAb") == ""
    assert reduce_word("aabAA") == "aabAA"


@given(words_st(rank=3))
def test_reduce_matches_stack_oracle(w):
    assert reduce_word(w) == stack_reduce(w)


@given(words_st())
def test_reduce_idempotent_and_reduced(w):
    r = reduce_word(w)
    assert reduce_word(r) == r
    assert is_reduced(r)
    assert (len(w) - len(r)) % 2 == 0


@given(words_st())
def test_inverse_cancels(w):
    assert reduce_word(w + invert_word(w)) == ""
    assert invert_word(invert_word(w)) == w


# ------------------------------------------------------ cyclic reduction


def test_cyclic_reduce_frozen_cases():
    assert cyclic_reduce("abA") == ("b", "a")
    assert cyclic_reduce("ab") == ("ab", "")
    assert cyclic_reduce("abaBA") == ("a", "ab")
    assert cyclic_reduce("") == ("", "")
    assert cyclic_reduce("aa") == ("aa", "")


@given(words_st())
def test_cyclic_reduce_matches_oracle(w):
    r = reduce_word(w)
    core, conj = cyclic_reduce(r)
    ocore, oconj = strip_cyclic(r)
    assert (core, conj) == (ocore, oconj)
    assert is_cyclically_reduced(core)
    assert reduce_word(conj + core + invert_word(conj)) == r


# ------------------------------------------------------ canonical rotation


def test_canonical_rotation_frozen():
    assert canonical_rotation("ba") == "ab"
    assert canonical_rotation("bA") == "Ab"
    assert canonical_rotation("a") == "a"
    assert canonical_rotation("") == ""
    # orientation sorts after index: aB before Ab
    assert rotation_key("aB") < rotation_key("Ab")


@given(words_st(), st.integers(min_value=0, max_value=39))
def test_canonical_rotation_invariant(w, shift):
    core, _ = cyclic_reduce(reduce_word(w))
    if not core:
        return
    s = shift % len(core)
    rotated = core[s:] + core[:s]
    assert canonical_rotation(core) == min_rotation(core)
    assert canonical_rotation(rotated) == canonical_rotation(core)


def test_cyclic_word_equality():
    assert CyclicWord("abA") == CyclicWord("b")
    assert CyclicWord("ab") == CyclicWord("ba")
    assert CyclicWord("ab") != CyclicWord("aB")
    assert CyclicWord("ab").inverse() == CyclicWord("BA")
    assert len({CyclicWord("ab"), CyclicWord("ba")}) == 1


def test_enumerate_cyclic_words_frozen_rank2():
    got = enumerate_cyclic_words(2, 2)
    assert got == ["a", "A", "b", "B", "aa", "ab", "aB", "AA", "Ab", "AB", "bb", "BB"]


def test_enumerate_cyclic_words_properties():
    ws = enumerate_cyclic_words(2, 4)
    assert len(ws) == len(set(ws))
    for w in ws:
        assert is_cyclically_reduced(w)
        assert canonical_rotation(w) == w
    # closed under inversion (classes come in orientation pairs)
    classes = set(ws)
    for w in ws:
        assert canonical_rotation(cyclic_reduce(invert_word(w))[0]) in classes


def test_enumerate_rejects_bad_rank():
    with pytest.raises(InputError):
        enumerate_cyclic_words(0, 3)
    with pytest.raises(InputError):
        enumerate_cyclic_words(27, 1)


# ----------------------------------------------------------- parsing


def test_parse_and_format():
    assert parse_word("a b A") == "abA"
    assert parse_word("abA") == "abA"
    assert format_word("") == "1"
    assert format_word("abA", spaced=True) == "a b A"
    with pytest.raises(InputError):
        parse_word("a2b")
    with pytest.raises(InputError):
        parse_word("c", rank=2)


# ------------------------------------------------------- automorphisms


def test_fibonacci_images(fib):
    assert fib.images == ("ab", "a")
    assert fib.inverse_images == ("b", "Ba")


def test_automorphism_accepts_mapping():
    auto = Automorphism({"a": "ab", "b": "a"})
    assert auto.images == ("ab", "a")
    with pytest.raises(InputError):
        Automorphism({"a": "ab", "c": "a"})


def test_automorphism_rejects_bad_images():
    with pytest.raises(InputError):
        Automorphism(("ab", "c"))  # letter outside rank 2
    with pytest.raises(InputError):
        Automorphism(("aA", "b"))  # image collapses to identity
    with pytest.raises(InputError):
        Automorphism(("a",), rank=2)


@given(words_st(max_size=20), words_st(max_size=20))
def test_apply_is_homomorphism(u, v):
    fib = corpus.fibonacci()
    assert fib.apply(u + v) == reduce_word(fib.apply(u) + fib.apply(v))


@given(words_st(max_size=20))
def test_apply_matches_substitute_oracle(w):
    fib = corpus.fibonacci()
    assert fib.apply(w) == stack_reduce(fib.substitute(w))


@given(words_st(max_size=12))
def test_inverse_round_trip(w):
    fib = corpus.fibonacci()
    inv = Automorphism(fib.inverse_images)
    assert inv.apply(fib.apply(w)) == reduce_word(w)
    assert fib.apply(inv.apply(w)) == reduce_word(w)


def test_iterate_matches_repeated_apply(fib):
    w = "aB"
    expected = w
    for _ in range(6):
        expected = fib.apply(expected)
    assert fib.iterate(w, 6) == expected


def test_iterate_budget_error(fib):
    with pytest.raises(BudgetExceededError) as exc:
        fib.iterate("a", 10, budget=4)
    assert exc.value.m_reached == 2
    assert exc.value.partial == "aba"


def test_apply_cyclic_conjugation_invariant(fib):
    # conjugate representatives of one class map to one class
    a = fib.apply_cyclic("ab")
    b = fib.apply_cyclic("ba")
    assert CyclicWord(a) == CyclicWord(b)


def test_compose_matches_sequential(fib):
    sq = fib.compose(fib)
    for w in ("a", "b", "aB", "abAB"):
        assert sq.apply(w) == fib.apply(fib.apply(w))
    assert sq.inverse_images is not None
    assert sq.validate().ok


def test_abelianization_frozen(fib):
    assert np.array_equal(fib.abelianization(), np.array([[1, 1], [1, 0]]))


def test_validate_reports():
    good = corpus.fibonacci().validate()
    assert good.ok and good.inverse_checked and good.abelianization_det == -1

    broken = Automorphism(("ab", "a"), inverse_images=("b", "ab")).validate()
    assert not broken.ok
    assert any("round-trip" in p for p in broken.problems)

    no_inv = Automorphism(("ab", "a")).validate()
    assert no_inv.ok and not no_inv.inverse_checked and no_inv.warnings

    not_auto = Automorphism(("ab", "ba")).validate()  # det 0 endomorphism
    assert not not_auto.ok


def test_identity_automorphism():
    ident = corpus.identity_rank2()
    assert ident.apply("abAB") == "abAB"
    assert ident.validate().ok and ident.validate().inverse_checked
