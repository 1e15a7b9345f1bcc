"""Spectral data of nonnegative transition matrices.

For an irreducible matrix A this computes the stretch factor (the dominant
eigenvalue), the positive left eigenvector normalized to sum 1, the cyclic
index k with its edge blocks, and the eigenmetric in which the map stretches
every edge by exactly the dominant eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import NotIrreducibleError, PowerIterationError
from .graphs import Metric, path_length
from .maps import GraphMap, TrainTrackVerdict, invariant_subgraph
from .words import ALPHABET

DEFAULT_TOL = 1e-12
MAX_POWER_ITERATIONS = 10**6


def is_irreducible_matrix(matrix) -> bool:
    """Strong connectivity of the occurrence digraph (j -> i when A[i, j] > 0)."""
    mat = np.asarray(matrix)
    if len(mat) == 1:
        return mat[0, 0] > 0
    return invariant_subgraph(mat) is None


def cyclic_index(matrix) -> tuple[int, tuple]:
    """Gcd of directed cycle lengths, with the residue-class blocks.

    Blocks are the classes of (directed BFS distance from edge 0) mod k, in
    cyclic order: the map sends block i into block i+1 mod k.
    """
    mat = np.asarray(matrix)
    n = len(mat)
    if not is_irreducible_matrix(mat):
        raise NotIrreducibleError("matrix is reducible; no cyclic index or positive eigenvector")
    succ = [np.flatnonzero(mat[:, j]) for j in range(n)]
    dist = np.full(n, -1)
    dist[0] = 0
    order = [0]
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in succ[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                order.append(v)
    k = 0
    for u in range(n):
        for v in succ[u]:
            k = gcd(k, int(dist[u]) + 1 - int(dist[v]))
    k = abs(k) if k else 1
    blocks = tuple(tuple(ALPHABET[i] for i in np.flatnonzero(dist % k == r)) for r in range(k))
    return k, blocks


@dataclass
class PFData:
    """Dominant eigendata of an irreducible transition matrix.

    ``nu`` is the left eigenvector (nu @ A = lam * nu), entrywise positive and
    summing to 1; ``residual`` is the max-norm defect of that identity.
    """

    lam: float
    nu: np.ndarray
    k: int
    blocks: tuple
    residual: float
    primitive_first_return: tuple
    iterations: int

    @property
    def expanding(self) -> bool:
        return self.lam > 1 + 1e-9


def _first_return_primitive(mat: np.ndarray, k: int, blocks: tuple) -> tuple:
    full = np.linalg.matrix_power(mat, k) > 0
    flags = []
    for block in blocks:
        idx = [ord(c) - 97 for c in block]
        sub = full[np.ix_(idx, idx)]
        n = len(idx)
        # Wielandt bound: primitive iff some power up to (n-1)^2 + 1 is positive
        power = np.eye(n, dtype=bool)
        primitive = False
        for _ in range((n - 1) ** 2 + 1):
            power = (power.astype(np.int64) @ sub.astype(np.int64)) > 0
            if power.all():
                primitive = True
                break
        flags.append(primitive)
    return tuple(flags)


def pf_eigen(matrix, tol: float = DEFAULT_TOL, max_iter: int = MAX_POWER_ITERATIONS) -> PFData:
    """Power iteration for the dominant eigenvalue and left eigenvector.

    Iterates transpose(A)^k (k the cyclic index) from the all-ones vector
    with L1 normalization, then phase-averages the k partial vectors so the
    result is an honest eigenvector of A itself.
    """
    mat = np.asarray(matrix, dtype=float)
    n = len(mat)
    if mat.shape != (n, n) or (mat < 0).any():
        raise NotIrreducibleError("need a square nonnegative matrix")
    if n == 1:
        lam = float(mat[0, 0])
        if lam <= 0:
            raise NotIrreducibleError("1x1 transition matrix with zero entry")
        return PFData(lam, np.array([1.0]), 1, (("a",),), 0.0, (True,), 0)
    k, blocks = cyclic_index(mat)  # raises NotIrreducibleError for a reducible matrix
    step = np.linalg.matrix_power(mat.T, k)
    u = np.full(n, 1.0 / n)
    est = None
    used = 0
    for it in range(1, max_iter + 1):
        v = step @ u
        total = v.sum()
        new_est = total  # u sums to 1, so the L1 ratio is just the sum
        v /= total
        drift = np.abs(v - u).max()
        u = v
        if est is not None and abs(new_est - est) <= tol * max(1.0, new_est) and drift <= tol:
            est = new_est
            used = it
            break
        est = new_est
    else:
        raise PowerIterationError(
            f"no convergence within {max_iter} iterations", last_estimate=est
        )
    lam = est ** (1.0 / k)
    acc = u.copy()
    phase = u.copy()
    for _ in range(k - 1):
        phase = (mat.T @ phase) / lam
        acc += phase
    nu = acc / acc.sum()
    residual = float(np.abs(nu @ mat - lam * nu).max())
    return PFData(
        lam=float(lam),
        nu=nu,
        k=k,
        blocks=blocks,
        residual=residual,
        primitive_first_return=_first_return_primitive(mat.astype(np.int64), k, blocks),
        iterations=used,
    )


def eigenmetric(pf: PFData) -> Metric:
    """The metric with edge lengths given by the left eigenvector."""
    return Metric(pf.nu)


def is_simplicial(matrix) -> bool:
    """All column sums 1: the map sends edges to edges, so the stretch is 1."""
    return bool((np.asarray(matrix).sum(axis=0) == 1).all())


@dataclass
class TrainTrackData:
    """Everything downstream stages need about one verified map."""

    gmap: GraphMap
    verdict: TrainTrackVerdict
    matrix: np.ndarray
    irreducible: bool
    pf: PFData | None
    metric: Metric | None

    @property
    def expanding(self) -> bool:
        return self.pf is not None and self.pf.expanding

    def homothety_defect(self) -> float:
        """Max relative error of |image of e| = lam * |e| in the eigenmetric."""
        if self.pf is None or self.metric is None:
            raise NotIrreducibleError("no eigenmetric without irreducibility")
        worst = 0.0
        for i, w in enumerate(self.gmap.edge_images):
            target = self.pf.lam * self.metric.of_pair(i)
            worst = max(worst, abs(path_length(w, self.metric) - target) / target)
        return worst


def analyze_train_track(gmap: GraphMap, tol: float = DEFAULT_TOL) -> TrainTrackData:
    """Run the verdict, irreducibility and spectral stages on one map."""
    verdict = gmap.is_train_track()
    mat = gmap.transition_matrix()
    irreducible = is_irreducible_matrix(mat)
    pf = None
    metric = None
    if irreducible:
        pf = pf_eigen(mat, tol=tol)
        metric = eigenmetric(pf)
    return TrainTrackData(
        gmap=gmap, verdict=verdict, matrix=mat, irreducible=irreducible, pf=pf, metric=metric
    )
