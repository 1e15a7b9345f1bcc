"""Spectral data of nonnegative transition matrices.

For an irreducible matrix A this computes the stretch factor (the dominant
eigenvalue), the positive left eigenvector normalized to sum 1, both from one
dense eigensolve with no iteration and no tolerance, the cyclic index k with
its edge blocks, and the eigenmetric in which the map stretches every edge by
exactly the dominant eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cancellation import cancellation_bound
from .errors import InternalConsistencyError, NotIrreducibleError, PreconditionError
from .graphs import Metric
from .maps import GraphMap, TrainTrackVerdict, invariant_subgraph, rose_map, tarjan_sink
from .words import ALPHABET, Automorphism


def cyclic_index(matrix) -> tuple[int, tuple]:
    """Gcd of directed cycle lengths, with the residue-class blocks.

    With d the depth in :func:`tarjan_sink`'s search tree, k is the gcd of
    d(u) + 1 - d(v) over the edges u -> v, and block r holds the edges with
    d = r mod k, so the map sends block r into block r+1 mod k.  Walks from
    edge 0 to an edge agree in length mod k, so the tree chosen does not matter.
    """
    mat = np.asarray(matrix)
    members, depth = tarjan_sink(mat)
    heads, tails = np.nonzero(mat > 0)
    # k = 0 when reducible, and for the one strongly connected digraph without a cycle: 1x1 zero
    k = int(np.gcd.reduce(depth[tails] + 1 - depth[heads])) if len(members) == len(mat) else 0
    if k == 0:
        raise NotIrreducibleError("matrix is reducible; no cyclic index or positive eigenvector")
    blocks = tuple(tuple(ALPHABET[i] for i in np.flatnonzero(depth % k == r)) for r in range(k))
    return k, blocks


@dataclass
class PFData:
    """Dominant eigendata of an irreducible transition matrix.

    ``nu`` is the left eigenvector (nu @ A = lam * nu), entrywise positive and
    summing to 1; ``residual`` is the max-norm defect of that identity.
    ``iterations`` is 0, since one eigensolve replaces any iteration; the
    report's ``spectral.iterations`` key and the benchmark's tracer read it.
    """

    lam: float
    nu: np.ndarray
    k: int
    blocks: tuple
    residual: float
    iterations: int

    @property
    def expanding(self) -> bool:
        return self.lam > 1 + 1e-9


def pf_eigen(matrix) -> PFData:
    """Perron root and left eigenvector from one dense eigensolve of A^T.

    nu is the eigenvector of the eigenvalue with the largest real part, the
    Perron root of an irreducible matrix: the other k - 1 eigenvalues on its
    spectral circle are rotations of it, and the rest lie inside.
    lam = sum_e (nu A)_e is the nu-weighted mean of the Collatz-Wielandt
    ratios (nu A)_e / nu_e, so it lies between their min and max, which
    bracket the Perron root.
    """
    mat = np.asarray(matrix, dtype=float)
    n = len(mat)
    if mat.shape != (n, n) or (mat < 0).any():
        raise NotIrreducibleError("need a square nonnegative matrix")
    k, blocks = cyclic_index(mat)  # raises NotIrreducibleError for a reducible matrix
    values, vectors = np.linalg.eig(mat.T)
    vec = vectors[:, np.argmax(values.real)].real
    nu = vec / vec.sum()
    if not (nu > 0).all():
        raise InternalConsistencyError(f"Perron eigenvector of an irreducible matrix is not positive: {nu!r}")
    image = nu @ mat
    lam = float(image.sum())
    residual = float(np.abs(image - lam * nu).max())
    return PFData(lam, nu, k, blocks, residual, 0)


def is_simplicial(matrix) -> bool:
    """All column sums 1: the map sends edges to edges, so the stretch is 1."""
    return bool((np.asarray(matrix).sum(axis=0) == 1).all())


@dataclass
class TrainTrackData:
    """Everything downstream stages need about one verified map."""

    gmap: GraphMap
    verdict: TrainTrackVerdict
    matrix: np.ndarray
    invariant: frozenset | None  # a proper invariant subgraph, None when irreducible
    pf: PFData | None
    metric: Metric | None

    @property
    def irreducible(self) -> bool:
        return self.invariant is None

    @property
    def expanding(self) -> bool:
        return self.pf is not None and self.pf.expanding

    @property
    def missing(self) -> str | None:
        """What keeps the map out of the limit tree's domain, None inside it.
        The tree and its expanding dilation exist on an expanding irreducible
        train track (Bestvina-Handel 1992); at lam = 1 there is none."""
        if not self.verdict.is_train_track:
            return "a verified train track"
        if self.pf is None:
            return "an irreducible transition matrix"
        if not self.pf.expanding:
            return "an expanding stretch factor"
        return None

    @property
    def tree(self) -> bool:
        """In the domain of the limit tree: nothing :attr:`missing`."""
        return self.missing is None

    def require(self, stage: str):
        """Raise :class:`PreconditionError`, naming ``stage`` and what is
        :attr:`missing`, unless the map is in the limit tree's domain."""
        if self.missing:
            raise PreconditionError(f"the {stage} stage needs {self.missing}")

    @cached_property
    def cancellation_constant(self) -> float:
        """Cancellation bound C = Lip * vol in the eigenmetric, computed once."""
        return cancellation_bound(self.gmap, self.metric).bound

    @cached_property
    def critical_length(self) -> float:
        """2R, R = C / (lam - 1) with C the cancellation constant and a margin
        for rounding in lam, nu and the sums: a legal segment of eigenmetric
        length >= 2R outgrows cancellation and persists under iteration."""
        return 2 * (1 + 1e-9) * self.cancellation_constant / (self.pf.lam - 1)


def analyze_train_track(gmap: GraphMap) -> TrainTrackData:
    """Run the verdict, irreducibility and spectral stages on one map."""
    verdict = gmap.is_train_track()
    mat = gmap.transition_matrix()
    invariant = invariant_subgraph(mat)
    pf = pf_eigen(mat) if invariant is None else None
    metric = None if pf is None else Metric(pf.nu)  # the eigenmetric
    return TrainTrackData(gmap=gmap, verdict=verdict, matrix=mat, invariant=invariant, pf=pf, metric=metric)


def train_track_twist(auto: Automorphism, tt: TrainTrackData) -> tuple[Automorphism, TrainTrackData]:
    """The first train track among ``auto`` and its twists x -> g auto(x) g^-1
    by a letter g that starts some image inverted and ends some image, with
    its data, else ``(auto, tt)``.  Conjugacy classes do not see the inner
    twist: their orbits under both maps have the same cyclic lengths."""
    if not tt.verdict.is_train_track:
        for g in ALPHABET[: auto.rank] + ALPHABET[: auto.rank].upper():
            if any(w[0] == g.swapcase() for w in auto.images) and any(w[-1] == g for w in auto.images):
                twist = Automorphism([g + w + g.swapcase() for w in auto.images])
                if (gmap := rose_map(twist)).is_train_track():
                    return twist, analyze_train_track(gmap)
    return auto, tt
