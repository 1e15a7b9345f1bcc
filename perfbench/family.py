"""Seeded family of rank 2-26 automorphisms for the ``family`` workload.

Each map starts from the generator rotation a -> b -> ... -> a and composes
random positive Nielsen moves x_i -> x_i x_j into it with
``Automorphism.compose``, which carries the inverse images along.  Positive
maps are train tracks with an irreducible transition matrix (the rotation
alone already connects every edge).  Half of the maps are then conjugated
by a generator, the way ``fibonacci-conj-b`` is built from ``fibonacci``,
which makes them fail the train track check.

The grid of (rank, moves) cells is fixed; :func:`generate` draws the moves,
the conjugating generator and which half of each rank's cells is
conjugated from its seed.  The workload runs the family of ``DESIGN_SEED``
and takes only its op order from the run's seed.  Families drawn from other
seeds differ in how many maps land in the failing regimes (10, 12 and 13
of 28 failed for seeds 1 to 3), and with failures charged at twice the
deadline that alone moved the mean op latency by about 15% between seeds.
Relabelling the generators per seed instead still moved the median op
latency and the peak memory by about 20%, and flipped one oracle failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

RANKS = (2, 3, 4, 6, 10, 16, 26)
DESIGN_SEED = 0
MOVES = (1, 2, 4, 8)

_LOWER = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class FamilyMap:
    name: str
    rank: int
    moves: int
    conjugated: bool
    images: tuple
    inverse_images: tuple

    @property
    def max_word_len(self) -> int:
        """Sweep length: classes of length <= 2 at rank 2, single letters
        above, which keeps the whole family near half a minute."""
        return 2 if self.rank == 2 else 1

    def input_text(self) -> str:
        letters = _LOWER[: self.rank]
        lines = [f"# family map {self.name}", f"rank: {self.rank}"]
        lines += [f"{g} -> {w}" for g, w in zip(letters, self.images)]
        lines.append("inverse:")
        lines += [f"{g} -> {w}" for g, w in zip(letters, self.inverse_images)]
        return "\n".join(lines) + "\n"


def _rotation(tt, rank):
    letters = _LOWER[:rank]
    return tt.Automorphism(
        [letters[(i + 1) % rank] for i in range(rank)],
        inverse_images=[letters[(i - 1) % rank] for i in range(rank)],
    )


def _nielsen(tt, rank, i, j):
    """x_i -> x_i x_j, all other generators fixed."""
    letters = _LOWER[:rank]
    images = list(letters)
    inverse = list(letters)
    images[i] = letters[i] + letters[j]
    inverse[i] = letters[i] + letters[j].upper()
    return tt.Automorphism(images, inverse_images=inverse)


def _conjugation(tt, rank, g):
    """x -> G x g for every generator x (inner automorphism by g^-1)."""
    letters = _LOWER[:rank]
    gen = letters[g]
    return tt.Automorphism(
        [gen.upper() + x + gen for x in letters],
        inverse_images=[gen + x + gen.upper() for x in letters],
    )


def generate(tt, seed: int) -> list:
    """The family for one seed; ``tt`` is the imported ``traintracks`` package."""
    rng = random.Random(seed)
    maps = []
    for rank in RANKS:
        conj_cells = set(rng.sample(range(len(MOVES)), len(MOVES) // 2))
        for cell, moves in enumerate(MOVES):
            auto = _rotation(tt, rank)
            for _ in range(moves):
                i, j = rng.sample(range(rank), 2)
                auto = auto.compose(_nielsen(tt, rank, i, j))
            conjugated = cell in conj_cells
            if conjugated:
                auto = _conjugation(tt, rank, rng.randrange(rank)).compose(auto)
            maps.append(
                FamilyMap(
                    name=f"r{rank}-m{moves}{'-conj' if conjugated else ''}",
                    rank=rank,
                    moves=moves,
                    conjugated=conjugated,
                    images=auto.images,
                    inverse_images=auto.inverse_images,
                )
            )
    return maps

