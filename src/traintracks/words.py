"""Words in a finitely generated free group.

A word is a plain Python string.  Lowercase letters ``a``..``z`` are the
generators in order, uppercase letters are their inverses, and the empty
string is the identity.  Everything downstream (edge paths on a rose,
lamination leaves) reuses this encoding, which keeps the hot operations
(substitution, free reduction) inside CPython's C string routines.

>>> reduce_word("abBA")
''
>>> invert_word("aB")
'bA'
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._subst import SubstTable
from .errors import BudgetExceededError, InputError

# The generators in order; every module spells letters and edges with it.
ALPHABET = "abcdefghijklmnopqrstuvwxyz"

MAX_RANK = len(ALPHABET)

DEFAULT_WORD_BUDGET = 10**7

# Cancelling two-letter blocks, most common letters first.
_CANCEL_PAIRS = tuple(p for g in ALPHABET for p in (g + g.upper(), g.upper() + g))

# Alphabet reordering used for canonical rotations: the letter order is
# generator index first, then orientation (a < A < b < B < ...), which is
# not the ASCII order.
_CANON_IN = "".join(c + c.upper() for c in ALPHABET)
_CANON_TABLE = str.maketrans(_CANON_IN, "".join(map(chr, range(33, 33 + 52))))
_CANON_BACK = str.maketrans("".join(map(chr, range(33, 33 + 52))), _CANON_IN)


def letter_index(letter: str) -> int:
    """0-based generator index of a letter, ignoring orientation."""
    return ord(letter.lower()) - 97


def invert_word(word: str) -> str:
    """Formal inverse: reverse and swap case.

    >>> invert_word("abA")
    'aBA'
    """
    return word[::-1].swapcase()


def check_word(word: str, rank: int) -> str:
    """Validate that every letter of ``word`` lies in the first ``rank`` generators."""
    if not 1 <= rank <= MAX_RANK:
        raise InputError(f"rank must be in 1..{MAX_RANK}, got {rank}")
    for pos, ch in enumerate(word):
        if not ch.isalpha() or not ch.isascii() or letter_index(ch) >= rank:
            raise InputError(f"letter {ch!r} at position {pos} is not valid for rank {rank}")
    return word


def reduce_word(word: str, rank: int | None = None) -> str:
    """Freely reduce a word by cancelling adjacent inverse pairs.

    The package's one reduction: automorphism images and graph-map path
    images are reduced here.  Runs replace passes until a fixed point; each
    pass is a C-level scan, and the number of passes is bounded by the
    nesting depth of cancellations.  ``rank`` limits the pairs tried.

    >>> reduce_word("aA")
    ''
    >>> reduce_word("abBa")
    'aa'
    >>> reduce_word("BaAb")
    ''
    """
    pairs = _CANCEL_PAIRS[: 2 * (rank or MAX_RANK)]
    w = word
    while True:
        n = len(w)
        for p in pairs:
            w = w.replace(p, "")
        if len(w) == n:
            return w


def is_reduced(word: str) -> bool:
    return all(word[i] != word[i + 1].swapcase() for i in range(len(word) - 1))


def cyclic_reduce(word: str) -> tuple[str, str]:
    """Split a freely reduced word as ``conj * core * conj^-1``.

    The core is cyclically reduced (its first letter is not the inverse of
    its last).  Returns ``(core, conj)``.

    >>> cyclic_reduce("abA")
    ('b', 'a')
    >>> cyclic_reduce("ab")
    ('ab', '')
    >>> cyclic_reduce("abaBA")
    ('a', 'ab')
    """
    lo, hi = 0, len(word)
    while hi - lo >= 2 and word[lo] == word[hi - 1].swapcase():
        lo += 1
        hi -= 1
    return word[lo:hi], word[:lo]


def is_cyclically_reduced(word: str) -> bool:
    if not is_reduced(word):
        return False
    return len(word) < 2 or word[0] != word[-1].swapcase()


def canonical_rotation(word: str) -> str:
    """Lexicographically least rotation under the index-then-orientation order.

    The input must be cyclically reduced; rotation preserves that.
    """
    if len(word) < 2:
        return word
    t = word.translate(_CANON_TABLE)
    doubled = t + t
    best = min(doubled[i : i + len(t)] for i in range(len(t)))
    return best.translate(_CANON_BACK)


class CyclicWord:
    """A conjugacy class, stored as the canonical rotation of its cyclic reduction.

    Equality and hashing are rotation invariant; a class and its inverse are
    distinct.
    """

    __slots__ = ("word",)

    def __init__(self, word: str, rank: int | None = None):
        if rank is not None:
            check_word(word, rank)
        core, _ = cyclic_reduce(reduce_word(word))
        self.word = canonical_rotation(core)

    def __len__(self):
        return len(self.word)

    def __eq__(self, other):
        if isinstance(other, CyclicWord):
            return self.word == other.word
        return NotImplemented

    def __hash__(self):
        return hash((CyclicWord, self.word))

    def inverse(self) -> "CyclicWord":
        return CyclicWord(invert_word(self.word))

    def __repr__(self):
        return f"CyclicWord({self.word!r})"


def enumerate_cyclic_words(rank: int, max_len: int):
    """All canonical cyclically reduced words of length 1..max_len, sorted.

    One representative per conjugacy class per orientation (a class and its
    inverse both appear).  The count grows like (2 rank - 1)^max_len, so keep
    max_len small for higher ranks.
    """
    if not 1 <= rank <= MAX_RANK:
        raise InputError(f"rank must be in 1..{MAX_RANK}, got {rank}")
    alphabet = [c for g in ALPHABET[:rank] for c in (g, g.upper())]
    seen = set()
    stack = [""]
    while stack:
        w = stack.pop()
        if w and w[0] != w[-1].swapcase():
            seen.add(canonical_rotation(w))
        if len(w) < max_len:
            for ch in alphabet:
                if not w or ch != w[-1].swapcase():
                    stack.append(w + ch)
    return sorted(seen, key=lambda w: (len(w), w.translate(_CANON_TABLE)))


def parse_word(text: str, rank: int | None = None) -> str:
    """Read a word from user text.  Letters may be spaced or packed.

    >>> parse_word("a b A")
    'abA'
    >>> parse_word("abA")
    'abA'
    """
    word = "".join(text.split())
    for pos, ch in enumerate(word):
        if not (ch.isalpha() and ch.isascii()):
            raise InputError(f"unexpected character {ch!r} at position {pos} in word {text!r}")
    if rank is not None:
        check_word(word, rank)
    return word


def format_word(word: str, spaced: bool = False) -> str:
    if not word:
        return "1"
    return " ".join(word) if spaced else word


def signed_substitution(images) -> tuple[dict, SubstTable]:
    """Letter table sending the i-th generator to ``images[i]`` and its
    inverse to the inverse word, with the :class:`SubstTable` that applies it."""
    table = {}
    for g, w in zip(ALPHABET, images):
        table[g] = w
        table[g.upper()] = invert_word(w)
    return table, SubstTable(table)


def _image_tuple(images):
    """Accept generator images as a sequence or as a letter-keyed mapping."""
    if isinstance(images, dict):
        letters = sorted(images)
        if letters != list(ALPHABET[: len(letters)]):
            raise InputError(
                f"image mapping must use consecutive generators a..{ALPHABET[max(len(letters) - 1, 0)]}, got {letters}"
            )
        return tuple(images[g] for g in letters)
    return tuple(images)


@dataclass
class ValidationReport:
    ok: bool
    abelianization_det: int
    inverse_checked: bool
    problems: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


class Automorphism:
    """An endomorphism of the free group, given by generator images.

    Instances only certify the automorphism property when inverse images are
    supplied and round-trip; the abelianization determinant check is a cheap
    necessary condition run by :meth:`validate`.
    """

    def __init__(self, images, inverse_images=None, rank: int | None = None, budget: int = DEFAULT_WORD_BUDGET):
        images = _image_tuple(images)
        if inverse_images is not None:
            inverse_images = _image_tuple(inverse_images)
        if rank is None:
            rank = len(images)
        if len(images) != rank:
            raise InputError(f"expected {rank} generator images, got {len(images)}")
        if not 1 <= rank <= MAX_RANK:
            raise InputError(f"rank must be in 1..{MAX_RANK}, got {rank}")
        self.rank = rank
        self.images = tuple(reduce_word(check_word(w, rank), rank) for w in images)
        if any(not w for w in self.images):
            raise InputError("a generator image reduces to the empty word")
        self.inverse_images = None
        if inverse_images is not None:
            if len(inverse_images) != rank:
                raise InputError(f"expected {rank} inverse images, got {len(inverse_images)}")
            self.inverse_images = tuple(reduce_word(check_word(w, rank), rank) for w in inverse_images)
        self.budget = budget
        _, self._subst = signed_substitution(self.images)

    def substitute(self, word: str) -> str:
        """Letterwise substitution without reduction."""
        return self._subst(word)

    def apply(self, word: str) -> str:
        """Image of a reduced word, freely reduced."""
        return reduce_word(self._subst(word), self.rank)

    def apply_cyclic(self, word: str) -> str:
        """Image of a cyclically reduced word, cyclically reduced again.

        Conjugacy classes only: the stripped conjugator is discarded, which
        keeps orbit words as short as possible.
        """
        core, _ = cyclic_reduce(self.apply(word))
        return core

    def iterate(self, word: str, m: int, budget: int | None = None) -> str:
        """m-fold image of a word, reduced at every step.

        Raises :class:`BudgetExceededError` carrying the number of completed
        applications and the last in-budget word.
        """
        cap = self.budget if budget is None else budget
        w = reduce_word(check_word(word, self.rank), self.rank)
        for j in range(m):
            nxt = self.apply(w)
            if len(nxt) > cap:
                raise BudgetExceededError(
                    f"length {len(nxt)} exceeds budget {cap} at application {j + 1}",
                    m_reached=j,
                    partial=w,
                )
            w = nxt
        return w

    def compose(self, other: "Automorphism") -> "Automorphism":
        """The composition self . other (apply ``other`` first)."""
        if other.rank != self.rank:
            raise InputError("rank mismatch in composition")
        images = tuple(self.apply(w) for w in other.images)
        inv = None
        if self.inverse_images is not None and other.inverse_images is not None:
            other_inv = Automorphism(other.inverse_images, rank=self.rank)
            inv = tuple(other_inv.apply(w) for w in self.inverse_images)
        return Automorphism(images, inverse_images=inv, rank=self.rank, budget=self.budget)

    def abelianization(self) -> np.ndarray:
        """Exponent-sum matrix; column j is the image of generator j."""
        mat = np.zeros((self.rank, self.rank), dtype=np.int64)
        for j, w in enumerate(self.images):
            for ch in w:
                mat[letter_index(ch), j] += 1 if ch.islower() else -1
        return mat

    def validate(self) -> ValidationReport:
        problems = []
        warnings = []
        det = int(round(float(np.linalg.det(self.abelianization().astype(float)))))
        if abs(det) != 1:
            problems.append(f"abelianization determinant is {det}, not +-1")
        inverse_checked = False
        if self.inverse_images is not None:
            inv = Automorphism(self.inverse_images, rank=self.rank)
            for i in range(self.rank):
                g = ALPHABET[i]
                if self.apply(inv.images[i]) != g or inv.apply(self.images[i]) != g:
                    problems.append(f"inverse images do not round-trip on generator {g!r}")
                    break
            else:
                inverse_checked = True
        else:
            warnings.append("no inverse images supplied; automorphism property not certified")
        return ValidationReport(
            ok=not problems,
            abelianization_det=det,
            inverse_checked=inverse_checked,
            problems=problems,
            warnings=warnings,
        )

    def __repr__(self):
        body = ", ".join(f"{g}->{w}" for g, w in zip(ALPHABET, self.images))
        return f"Automorphism({body})"
