"""Letterwise substitution engine.

Small words go through ``str.translate``; long words take a vectorized
gather over a flattened image table, which keeps leaf expansion and deep
iteration at C speed.  Per-letter image lengths let a caller place a window
of the image on its source letters and substitute only those (leaf
expansion keeps a window around its center at each step).
"""

from __future__ import annotations

import numpy as np

_NUMPY_THRESHOLD = 4096


class SubstTable:
    """Maps each letter to an image word, applied to whole strings at once."""

    def __init__(self, images: dict):
        self._dict = {ord(k): v for k, v in images.items()}
        flat = []
        starts = np.zeros(128, dtype=np.int64)
        lens = np.zeros(128, dtype=np.int64)
        offset = 0
        for k, v in images.items():
            starts[ord(k)] = offset
            lens[ord(k)] = len(v)
            flat.append(v)
            offset += len(v)
        self._flat = np.frombuffer("".join(flat).encode("ascii"), dtype=np.uint8)
        self._starts = starts
        self._lens = lens
        self.max_growth = max((len(v) for v in images.values()), default=1)

    def __call__(self, word: str) -> str:
        if not word:
            return ""
        if len(word) < _NUMPY_THRESHOLD:
            return word.translate(self._dict)
        codes = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
        lens = self._lens[codes]
        total = int(lens.sum())
        if total == 0:
            return ""
        block_ends = np.cumsum(lens)
        block_starts = np.repeat(block_ends - lens, lens)
        src = np.repeat(self._starts[codes], lens) + (np.arange(total, dtype=np.int64) - block_starts)
        return self._flat[src].tobytes().decode("ascii")

    def letter_lengths(self, word: str) -> np.ndarray:
        """Image length of each letter of the word."""
        return self._lens[np.frombuffer(word.encode("ascii"), dtype=np.uint8)]

    def output_length(self, word: str) -> int:
        """Length of the image without building it."""
        return int(self.letter_lengths(word).sum())
