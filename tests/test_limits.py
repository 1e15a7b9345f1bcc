"""Normalized length sequences, limit lengths, growth classification.

Closed-form oracles for the Fibonacci map: positive words never cancel, so
their normalized lengths are exactly constant and the limit equals the
eigenmetric length (Binet: raw lengths are Fibonacci numbers).  The word
a b^-1 drops once and is then constant at 1/phi^3.
"""

import dataclasses
import math

import pytest

from traintracks import (
    CyclicOrbit,
    InternalConsistencyError,
    PreconditionError,
    classify_growth,
    convergence_constants,
    homothety_check,
    limit_length,
    normalized_sequence,
    path_length,
    per_block_lengths,
    polynomial_degree,
    unit_metric,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


# ------------------------------------------------------------- orbits


def test_cyclic_orbit_basic(fib):
    orbit = CyclicOrbit(fib, "a")
    assert orbit.word_at(0) == "a"
    assert orbit.word_at(3) == "abaab"
    assert orbit.computed == 3
    # raw lengths are Fibonacci numbers: |psi^m(a)| = F_{m+2}
    fibs = [1, 1, 2, 3, 5, 8, 13, 21, 34]
    for m in range(1, 8):
        assert len(orbit.word_at(m)) == fibs[m + 1]


def test_cyclic_orbit_reduces_input(fib):
    orbit = CyclicOrbit(fib, "baB")  # conjugate of a
    assert orbit.word_at(0) == "a"


def test_cyclic_orbit_budget(fib):
    orbit = CyclicOrbit(fib, "a", budget=10)
    assert orbit.word_at(4) == "abaababa"
    assert orbit.word_at(5) is None  # next length 13 exceeds the budget
    assert orbit.truncated
    assert orbit.word_at(6) is None  # stays truncated


# ------------------------------------------------- normalized sequences


def test_fibonacci_positive_words_are_constant(fib, fib_tt):
    """No cancellation on positive words: the normalized sequence is flat."""
    lam, metric = fib_tt.pf.lam, fib_tt.metric
    for word in ("a", "b", "ab", "aab"):
        seq = normalized_sequence(fib, word, metric, lam, M=25)
        first = seq.normalized[0]
        assert first == pytest.approx(path_length(word, metric), abs=1e-12)
        for t in seq.normalized:
            assert t == pytest.approx(first, abs=1e-10)
        assert not seq.truncated


def test_sequence_truncates_on_budget(fib, fib_tt):
    seq = normalized_sequence(fib, "a", fib_tt.metric, fib_tt.pf.lam, M=40, budget=50)
    assert seq.truncated
    assert len(seq.raw) < 41


def test_normalized_sequences_non_increasing(rank4, rank4_tt):
    lam, metric, k = rank4_tt.pf.lam, rank4_tt.metric, rank4_tt.pf.k
    for word in ("a", "ac", "aB", "abc", "aBcD"):
        seq = normalized_sequence(rank4, word, metric, lam, M=30)
        strided = seq.normalized[::k]
        for x, y in zip(strided, strided[1:]):
            assert y <= x + 1e-9


# ----------------------------------------------------------- limit length


def test_fibonacci_limit_of_a_is_inverse_phi(fib, fib_tt):
    rep = limit_length(fib, "a", fib_tt)
    assert rep.limit == pytest.approx(1 / PHI, abs=1e-9)
    assert rep.converged
    assert rep.stride == 1
    assert rep.classification.is_exponential
    assert rep.classification.rate == pytest.approx(PHI, abs=1e-12)


def test_fibonacci_limit_closed_forms(fib, fib_tt):
    # positive words: limit equals the eigenmetric length
    for word in ("b", "ab", "aab"):
        rep = limit_length(fib, word, fib_tt)
        assert rep.limit == pytest.approx(path_length(word, fib_tt.metric), abs=1e-9)
    # a b^-1 drops to the class of b at m = 1, then is constant:
    # limit = nu_b / phi = 1 / phi^3
    rep = limit_length(fib, "aB", fib_tt)
    assert rep.limit == pytest.approx(PHI**-3, abs=1e-9)
    assert rep.m_stop == 2
    assert rep.strided[0][1] == pytest.approx(1.0, abs=1e-9)


def test_commutator_is_bounded(fib, fib_tt):
    rep = limit_length(fib, "abAB", fib_tt)
    assert rep.limit == 0.0
    assert not rep.classification.is_exponential
    assert rep.classification.degree == 0
    assert rep.classification.label() == "Polynomial(0)"


def test_rank4_commutator_needs_escalation(rank4, rank4_tt):
    # at tol 1e-9 the strided tail decays only by 1/phi per step, so the
    # verdict comes from the growth classifier and is flagged
    rep = limit_length(rank4, "abAB", rank4_tt, M=40, tol=1e-9)
    assert rep.limit == 0.0
    assert rep.classification.kind == "polynomial"
    assert rep.classification.degree == 0
    assert rep.classification.low_confidence
    assert rep.m_stop == 80  # escalated once

    # at the default tolerance the strided gap converges on its own
    rep = limit_length(rank4, "abAB", rank4_tt, M=40, tol=1e-6)
    assert rep.converged
    assert rep.limit == 0.0


def test_limit_length_monotone_guard(fib, fib_tt):
    """A stretch factor below the true one makes the sequence increase."""
    fake_pf = dataclasses.replace(fib_tt.pf, lam=1.2)
    fake = dataclasses.replace(fib_tt, pf=fake_pf, metric=unit_metric(2))
    with pytest.raises(InternalConsistencyError):
        limit_length(fib, "a", fake)


def test_limit_length_preconditions(conj_b, conj_b_tt, unipotent, unipotent_tt):
    with pytest.raises(PreconditionError):
        limit_length(conj_b, "a", conj_b_tt)  # not a train track
    with pytest.raises(PreconditionError):
        limit_length(unipotent, "a", unipotent_tt)  # reducible


def test_non_expanding_map_reports_zero(swap, swap_tt):
    rep = limit_length(swap, "a", swap_tt)
    assert rep.limit == 0.0
    assert rep.skipped_reason is not None
    assert rep.classification.kind == "polynomial"
    assert rep.classification.degree == 0


def test_strided_values_non_increasing(rank4, rank4_tt):
    rep = limit_length(rank4, "ac", rank4_tt)
    values = [t for _, t in rep.strided]
    for x, y in zip(values, values[1:]):
        assert y <= x + 1e-9
    assert rep.m_stop == rep.strided[-1][0]


# ------------------------------------------------------ growth classes


def test_growth_fibonacci_exponential(fib):
    cls = classify_growth(fib, "a")
    assert cls.is_exponential
    assert cls.rate == pytest.approx(PHI, rel=0.05)
    assert cls.label().startswith("Exponential")


def test_growth_unipotent_polynomial(unipotent):
    cls = classify_growth(unipotent, "b")
    assert cls.kind == "polynomial"
    assert cls.degree == 1
    assert cls.label() == "Polynomial(1)"
    # the detector takes precedence even though log(m)/m is above the
    # exponential cutoff at small m
    assert not cls.is_exponential

    assert classify_growth(unipotent, "a").degree == 0


def test_growth_escalates_in_ambiguous_band(rank4):
    cls = classify_growth(rank4, "abAB", M=40)
    assert cls.kind == "polynomial"
    assert cls.degree == 0
    assert cls.escalated


def test_polynomial_degree_detector():
    assert polynomial_degree([3.0] * 15) == 0
    assert polynomial_degree(list(range(30))) == 1
    assert polynomial_degree([m * m for m in range(30)]) == 2
    fibs = [1, 1]
    while len(fibs) < 40:
        fibs.append(fibs[-1] + fibs[-2])
    assert polynomial_degree(fibs) is None
    assert polynomial_degree([1.0, 2.0]) is None


# ------------------------------------------------------- block splitting


def test_per_block_rank4_single_letter(rank4, rank4_tt):
    rep = per_block_lengths(rank4, "a", rank4_tt)
    lam = math.sqrt(PHI)
    nu_a = 1.0 / (1.0 + 1.0 / PHI + lam + 1.0 / lam)
    assert rep.limits[0] == pytest.approx(nu_a, abs=1e-7)
    assert rep.limits[1] == pytest.approx(0.0, abs=1e-9)
    assert rep.total == pytest.approx(sum(rep.limits), abs=1e-12)
    assert rep.converged


def test_per_block_mixed_word_sums_to_limit(rank4, rank4_tt):
    rep = per_block_lengths(rank4, "ac", rank4_tt)
    assert all(x > 0 for x in rep.limits)
    check = limit_length(rank4, "ac", rank4_tt, M=80, tol=1e-7)
    assert rep.total == pytest.approx(check.limit, abs=1e-6)


def test_per_block_fibonacci_is_whole_limit(fib, fib_tt):
    rep = per_block_lengths(fib, "ab", fib_tt)
    assert len(rep.limits) == 1
    assert rep.total == pytest.approx(1.0, abs=1e-9)


def test_per_block_needs_expansion(swap, swap_tt):
    with pytest.raises(PreconditionError):
        per_block_lengths(swap, "a", swap_tt)


# ---------------------------------------------------------- homothety


def test_homothety_fibonacci(fib, fib_tt):
    rep = homothety_check(fib, fib_tt, ["a", "b", "ab", "aB", "abAB"])
    assert rep.max_rel_error < 1e-9
    assert rep.skipped == ["abAB"]
    assert len(rep.checked) == 4


def test_homothety_non_expanding_exact(swap, swap_tt):
    rep = homothety_check(swap, swap_tt, ["a", "b", "ab"])
    assert rep.max_rel_error == 0.0
    assert not rep.skipped


# ------------------------------------------------- convergence constants


def test_convergence_constant_fibonacci_unit(fib, fib_tt):
    """Binet: the unit-metric constant is phi^3 / sqrt(5) for every segment."""
    rep = convergence_constants(fib, fib_tt, unit_metric(2), depth=14)
    expected = PHI**3 / math.sqrt(5.0)
    assert len(rep.constants) == 1
    assert rep.constants[0] == pytest.approx(expected, abs=1e-6)
    assert rep.spreads[0] < 1e-4


def test_convergence_constant_eigenmetric_is_one(fib, fib_tt):
    rep = convergence_constants(fib, fib_tt, fib_tt.metric, depth=12)
    assert rep.constants[0] == pytest.approx(1.0, abs=1e-9)


def test_convergence_constant_scales_linearly(fib, fib_tt):
    base = convergence_constants(fib, fib_tt, unit_metric(2), depth=10)
    scaled = convergence_constants(fib, fib_tt, unit_metric(2).scaled(3.5), depth=10)
    assert scaled.constants[0] == pytest.approx(3.5 * base.constants[0], rel=1e-9)


def test_convergence_uniform_cross_check(fib, fib_tt):
    rep = convergence_constants(
        fib, fib_tt, unit_metric(2), depth=12, loop_words=["a", "b", "ab", "aB", "aab"]
    )
    assert rep.uniform_checked == 5
    assert rep.uniform_max_rel_error < 1e-5


def test_convergence_spread_guard(fib, fib_tt):
    with pytest.raises(InternalConsistencyError):
        convergence_constants(fib, fib_tt, unit_metric(2), depth=8, spread_tol=1e-14)


def test_convergence_needs_expansion(swap, swap_tt):
    with pytest.raises(PreconditionError):
        convergence_constants(swap, swap_tt, unit_metric(2))


def test_translation_length_is_metric_length(fib_tt):
    assert path_length("ab", fib_tt.metric) == pytest.approx(1.0, abs=1e-12)
