"""Iterated translation lengths: who grows, how fast, and what the limit is.

For a cyclic word w and an expanding train track map, the normalized
lengths  lambda^-m * |psi^m(w)|  form a non-increasing sequence.  The limit
is positive exactly for the exponentially growing conjugacy classes, and
the map acts on these limit lengths as multiplication by lambda.
"""

import math

from traintracks import (
    CyclicOrbit,
    analyze_train_track,
    classify_growth,
    corpus,
    enumerate_cyclic_words,
    homothety_check,
    limit_length,
    path_length,
    per_block_lengths,
    rose_map,
)

PHI = (1 + math.sqrt(5)) / 2

fib_auto = corpus.get("fibonacci")
fib = analyze_train_track(rose_map(fib_auto))

# -- watch the sequence converge -------------------------------------------
print("== normalized lengths of psi^m(a), Fibonacci map, eigenmetric ==")
orbit = CyclicOrbit(fib_auto, "a")
for m in (0, 1, 2, 3, 6, 9, 12):
    raw = path_length(orbit.word_at(m), fib.metric)
    print(f"  m={m:2d}  raw |psi^m(a)| = {raw:10.6f}   normalized = {raw / fib.pf.lam**m:.12f}")
print(f"  (raw lengths are Fibonacci numbers scaled by nu; limit is 1/phi = {1 / PHI:.12f})")
print()

# -- limits for a few representative classes -------------------------------
print("== limit lengths ==")
for word in ("a", "b", "aB", "abAB"):
    rep = limit_length(fib_auto, word, fib)
    print(
        f"  ||{word}|| = {rep.limit:.9f}   certificate={rep.certificate} "
        f"m_stop={rep.m_stop}  class={rep.classification.label()}"
    )
print(f"  closed forms: ||a|| = 1/phi = {1 / PHI:.9f},  ||aB|| = 1/phi^3 = {1 / PHI**3:.9f},")
print("  and the commutator abAB is conjugacy-periodic, so its limit is 0.")
print()

# -- growth classification without a train track structure ------------------
print("== growth classes under the unipotent map a->a, b->ba ==")
uni = corpus.get("unipotent")
for word in ("a", "b", "ab", "aBab"):
    g = classify_growth(uni, word)
    print(f"  {word:5s} -> {g.label()}")
print("  (b picks up one 'a' per iterate: linear growth, degree 1.)")
print()

# -- the homothety property, checked in bulk --------------------------------
words = enumerate_cyclic_words(2, 4)
rep = homothety_check(fib_auto, fib, words)
print(
    f"== homothety: ||psi(w)|| = lambda * ||w|| on {len(rep.checked)} exponential "
    f"classes of length <= 4 =="
)
print(f"  max relative error {rep.max_rel_error:.3e}, skipped {len(rep.skipped)} bounded classes")
print()

# -- per-block limits on the rank-4 example ---------------------------------
r4_auto = corpus.get("swap-fibonacci")
r4 = analyze_train_track(rose_map(r4_auto))
print("== per-block limit lengths, swap-fibonacci (blocks {a,b} and {c,d}) ==")
for word in ("a", "c", "ac"):
    orbit = CyclicOrbit(r4_auto, word)
    rep = per_block_lengths(r4, limit_length(r4_auto, word, r4, orbit=orbit), orbit)
    parts = " + ".join(f"{x:.9f}" for x in rep.limits)
    print(f"  ||{word}|| = {rep.total:.9f} = {parts}")
print("  (the two block components are swapped by the map, so iterates")
print("   alternate between them; the total is what limit_length reports.)")
