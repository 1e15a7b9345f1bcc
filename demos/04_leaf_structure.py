"""Grow leaves of the attracting lamination and certify their structure.

Iterating the map on a well-chosen edge produces nested words that converge
to a bi-infinite leaf.  The leaf is quasiperiodic: every factor recurs with
a bounded gap (its "window"), which is what makes membership checks and
weak-limit probes effective.
"""

from traintracks import (
    analyze_train_track,
    build_leaf_corpus,
    corpus,
    expand_leaf,
    find_eigen_seed,
    leaf_contains,
    longest_leaf_segment,
    quasiperiodicity_window,
    rose_map,
    weak_limit_probe,
)

fib = analyze_train_track(rose_map(corpus.get("fibonacci")))

# -- the seed and the first few expansions ----------------------------------
seed = find_eigen_seed(fib)
print(f"seed: edge '{seed.edge}', power {seed.power}, anchor {seed.anchor}")
print("(tau^power fixes the edge and extends it on both sides; the anchor")
print(" marks where the original edge sits inside its image)\n")

prev = None
for depth in range(1, 6):
    leaf = expand_leaf(fib, seed, depth=depth)
    mark = leaf.spelled(radius=24)
    print(f"  depth {depth}: {len(leaf.word):4d} edges   ...{mark}...")
    if prev is not None:
        lo = leaf.center - prev.center
        assert leaf.word[lo : lo + len(prev.word)] == prev.word, "prefixes must nest"
    prev = leaf
print("  (each word extends the previous one on both sides: the leaf is their union)\n")

leaves = build_leaf_corpus(fib, depth=12)
deep = leaves.prefixes[0]  # the seed above, grown 12 times
print(f"depth-12 prefix: {len(deep.word)} edges, 'bb' occurs: {'bb' in deep.word}")
print()

# -- quasiperiodicity certificates ------------------------------------------
print("window W(s): every window of W(s) consecutive edges contains s")
for segment in ("a", "b", "ab", "aba", "abaab"):
    cert = quasiperiodicity_window(deep, segment)
    print(
        f"  s = {segment:6s} window = {cert.window:3d}   "
        f"({cert.occurrences} occurrences in the prefix)"
    )
print()

# -- membership and the heaviest leaf segment in a loop ----------------------
for w in ("abaab", "abAB"):
    match = longest_leaf_segment(w, leaves, fib.metric)
    inside = leaf_contains(deep, w)
    print(
        f"loop {w:6s} occurs in leaf: {str(inside):5s}  heaviest leaf segment "
        f"'{match.segment}' ({match.edge_count} edges, length {match.length:.6f})"
    )
print()

# -- the probe: leaf segments grow inside exponential classes ---------------
print("weak-limit probe (does the heaviest leaf segment in psi^m(w) grow?)")
for w in ("ab", "abAB"):
    probe = weak_limit_probe(corpus.get("fibonacci"), w, leaves)
    head = ", ".join(f"{v:.3f}" for v in probe.values[:6])
    print(f"  {w:5s} values [{head}, ...]  verdict: {'grows' if probe.verdict else 'bounded'}")
print()

# -- two leaves swapped by the rank-4 map ------------------------------------
r4 = analyze_train_track(rose_map(corpus.get("swap-fibonacci")))
r4_leaves = build_leaf_corpus(r4, depth=12)
print(f"swap-fibonacci has k = {r4_leaves.k} leaves, one per block:")
for i, prefix in enumerate(r4_leaves.prefixes):
    window = prefix.centered_slice(30)
    print(f"  block {i}: seed '{prefix.seed.edge}', prefix ...{window}...")
    image = r4.gmap.substitute(window)
    print(f"           tau(prefix slice) lives in block {r4_leaves.contains(image)}")
print("(tau shuttles segments of one leaf into the other: sigma = transposition)")
