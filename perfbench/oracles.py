"""Oracles that check the program's answers without using its code.

Words, substitution, free reduction and transition matrices are
re-implemented here on plain strings, and eigen data comes from
``numpy.linalg``, so a defect in the package cannot hide in its own check.
Each check returns ``None`` when the answer is right, otherwise a reason of
the form ``"kind: detail"``.
"""

from __future__ import annotations

import numpy as np

LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Brute-force train-track check: iterate every edge to this depth, or until
# the unreduced image would pass this many letters.
TT_DEPTH = 8
TT_LETTER_CAP = 100_000


def invert(word: str) -> str:
    return word[::-1].swapcase()


def parse_images(text: str) -> tuple:
    """Generator images from the ``rank:`` / ``x -> word`` input format."""
    images = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.lower() == "inverse:":
            break
        if "->" in line:
            lhs, rhs = line.split("->", 1)
            images[lhs.strip()] = "".join(rhs.split())
    return tuple(images[g] for g in LETTERS[: len(images)])


def letter_table(images) -> dict:
    table = {}
    for g, w in zip(LETTERS, images):
        table[ord(g)] = w
        table[ord(g.upper())] = invert(w)
    return table


def has_cancellation(word: str, rank: int) -> bool:
    return any(g + g.upper() in word or g.upper() + g in word for g in LETTERS[:rank])


def free_reduce(word: str) -> str:
    out = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def cyclic_core(word: str) -> str:
    lo, hi = 0, len(word)
    while hi - lo >= 2 and word[lo] == word[hi - 1].swapcase():
        lo += 1
        hi -= 1
    return word[lo:hi]


def transition_matrix(images) -> np.ndarray:
    n = len(images)
    mat = np.zeros((n, n))
    for j, w in enumerate(images):
        for ch in w.lower():
            mat[LETTERS.index(ch), j] += 1
    return mat


def stretch_factor(images) -> float:
    """Largest real eigenvalue of the transition matrix."""
    vals = np.linalg.eigvals(transition_matrix(images))
    real = vals[np.abs(vals.imag) <= 1e-9 * max(1.0, np.abs(vals).max())].real
    return float(real.max())


def first_cancellation(images, depth: int = TT_DEPTH, cap: int = TT_LETTER_CAP):
    """Criterion 2's iterate-and-reduce oracle, as ``(first, horizon)``.

    ``first`` is the least m at which some unreduced tau^m(edge) has a
    cancelling pair, or None.  An edge stops early once its next image would
    pass ``cap`` letters; ``horizon`` is the depth through which every edge
    was checked, so the true first failure lies in (horizon, first].
    """
    table = letter_table(images)
    grow = max(len(w) for w in images)
    first = None
    horizon = depth
    for g in LETTERS[: len(images)]:
        w = g
        for m in range(1, depth + 1):
            if len(w) * grow > cap:
                horizon = min(horizon, m - 1)
                break
            w = w.translate(table)
            if has_cancellation(w, len(images)):
                first = m if first is None else min(first, m)
                horizon = min(horizon, m - 1)
                break
    return first, horizon


def check_report(images, report: dict):
    """Oracle for one ``analyze`` report of the rose map with these images."""
    if not report.get("validation", {}).get("ok"):
        return "validation: not ok"
    verdict = report["train_track"]
    claimed = None if verdict["is_train_track"] else verdict["fails_at_iterate"]
    first, horizon = first_cancellation(images)
    if claimed is None:
        wrong = first is not None
    else:
        wrong = claimed <= horizon or (first is not None and claimed > first)
    if wrong:
        return f"train_track: verdict fails at {claimed}, brute force at {first} (clean through {horizon})"
    spectral = report.get("spectral")
    if spectral is not None:
        lam = stretch_factor(images)
        if abs(spectral["lambda"] - lam) > 1e-9 * lam:
            return f"lambda: {spectral['lambda']!r} but eigvals give {lam!r}"
        nu = spectral["nu"]
        if min(nu) <= 0 or abs(sum(nu) - 1.0) > 1e-9:
            return "eigenmetric: not positive with sum 1"
    equivalence = report.get("equivalence")
    if equivalence is not None and equivalence["discrepancies"] != 0:
        return f"equivalence: {equivalence['discrepancies']} detector discrepancies"
    cancel = report["cancellation"]
    if not cancel["random_splits"]["within_bound"]:
        return "cancellation: exceeds Lip * vol"
    legal = cancel.get("legal_splits", {})
    if "max_measured" in legal and legal["max_measured"] > 1e-12:
        return f"legal_split: legal splits lose {legal['max_measured']!r}"
    return None


def check_limit(limit: float, ref: float, tol: float):
    if abs(limit - ref) <= tol:
        return None
    return f"limit: {limit!r} is {abs(limit - ref):.3g} from {ref!r} (tol {tol:g})"


def check_leaf(images, prefix, budget: int):
    """Oracle for one leaf prefix: its seed edge must recur at least three
    times in the image of the seed's power, anchored at the middle
    occurrence, and its word must be what re-substituting the edge ``depth``
    times around that anchor gives, trimmed symmetrically around the centre
    whenever the next image would pass ``budget`` letters."""
    seed = prefix.seed
    table = letter_table(images)
    step = {}
    for g in LETTERS[: len(images)]:
        w = g
        for _ in range(seed.power):
            w = w.translate(table)
        step[ord(g)] = free_reduce(w)
        step[ord(g.upper())] = invert(step[ord(g)])
    image = step[ord(seed.edge)]
    occs = [i for i, ch in enumerate(image) if ch == seed.edge]
    if len(occs) < 3 or seed.anchor != occs[len(occs) // 2]:
        return f"leaf: {seed.edge!r} is not anchored at its middle recurrence in tau^{seed.power}"
    growth = max(len(w) for w in step.values())
    word, center, truncated = seed.edge, 0, False
    for _ in range(prefix.depth):
        if len(word) * growth > budget:
            half = max(1, budget // (2 * growth))
            lo = max(0, center - half)
            word = word[lo : center + half + 1]
            center -= lo
            truncated = True
        center = len(word[:center].translate(step)) + seed.anchor
        word = word.translate(step)
    if (prefix.word, prefix.center, prefix.truncated) != (word, center, truncated):
        return f"leaf: block {seed.block} prefix differs from re-substitution ({len(prefix.word)} vs {len(word)} letters)"
    if has_cancellation(word, len(images)):
        return f"leaf: block {seed.block} prefix is not reduced"
    return None


def occurrence_starts(text: str, segment: str) -> np.ndarray:
    """Start positions of the segment or its inverse in the text."""
    t = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    w = len(segment)
    n = len(t) - w + 1
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    hits = np.zeros(n, dtype=bool)
    for pattern in {segment, invert(segment)}:
        match = np.ones(n, dtype=bool)
        for j, ch in enumerate(pattern.encode("ascii")):
            match &= t[j : j + n] == ch
        hits |= match
    return np.flatnonzero(hits)


def least_window(text: str, segment: str):
    """Least L such that a window of L letters, slid across the text, always
    holds a whole occurrence of the segment (either orientation); None if it
    never occurs.

    A window misses the segment exactly when it fits in a stretch that holds
    no whole occurrence: before the end of the first one, between the
    starts of consecutive ones (plus w - 1 letters), or after the start of
    the last one.  The least L is one letter longer than the longest such
    stretch.
    """
    starts = occurrence_starts(text, segment)
    if starts.size == 0:
        return None
    w = len(segment)
    between = int(np.diff(starts).max()) + w - 1 if starts.size > 1 else 0
    return max(int(starts[0]) + w, between, len(text) - int(starts[-1]))


def check_window(prefix_word: str, segment: str, window: int, status: str):
    """The certified window must be the least window of the sliding check."""
    least = least_window(prefix_word, segment)
    if least is None:
        return f"window: {segment!r} does not occur"
    if window != least:
        return f"window: certified {window} for {segment!r}, sliding check gives {least}"
    if (status == "certified") != (least < len(prefix_word)):
        return f"window: status {status!r} for window {window} of {len(prefix_word)}"
    return None
