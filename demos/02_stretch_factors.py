"""Stretch factors, eigenvectors, and the metric that makes a map a homothety.

Every expanding irreducible map carries a stretch factor lambda (the
dominant eigenvalue of its transition matrix) and a positive left
eigenvector nu.  Reading nu as edge lengths gives a metric in which the
map multiplies the length of every edge image by exactly lambda.
"""

import math

import numpy as np

from traintracks import analyze_train_track, corpus, path_length, pf_eigen, rose_map

PHI = (1 + math.sqrt(5)) / 2

# -- the Fibonacci map: everything in closed form -------------------------
fib = analyze_train_track(rose_map(corpus.get("fibonacci")))
A = fib.gmap.transition_matrix()
print("Fibonacci transition matrix:")
print(A)
print(f"lambda   = {fib.pf.lam:.12f}")
print(f"phi      = {PHI:.12f}   (golden ratio; |difference| = {abs(fib.pf.lam - PHI):.2e})")
print(f"nu       = {np.array2string(fib.pf.nu, precision=9)}")
print(f"          (closed form: 1/phi = {1 / PHI:.9f}, 1/phi^2 = {1 / PHI**2:.9f})")
print(f"cyclic index k = {fib.pf.k}  (aperiodic: some power of A is positive)")
print(f"eigenvector residual |nu A - lambda nu| = {fib.pf.residual:.2e}")
print()

# The eigenmetric is the point: every edge image is lambda times longer.
print("homothety in the eigenmetric:")
worst = 0.0
for i, e in enumerate("ab"):
    image = fib.gmap.image_of_letter(e)
    stretched = path_length(image, fib.metric)
    defect = abs(stretched - fib.pf.lam * fib.pf.nu[i])
    worst = max(worst, defect / (fib.pf.lam * fib.pf.nu[i]))
    print(f"  |tau({e})| = {stretched:.9f} = lambda * nu_{e} (defect {defect:.2e})")
print(f"max relative defect over all edges: {worst:.2e}")
print()

# -- a reducible map has no such data --------------------------------------
uni = analyze_train_track(rose_map(corpus.get("unipotent")))
print("unipotent (a->a, b->ba):")
print(f"  irreducible: {uni.irreducible}")
print(f"  invariant subgraph: {uni.invariant}")
print(f"  spectral data: {uni.pf}")
print()

# -- rank 4 with a genuine block rotation ----------------------------------
r4 = analyze_train_track(rose_map(corpus.get("swap-fibonacci")))
print("swap-fibonacci (a->c, b->d, c->ab, d->a):")
print(f"  lambda        = {r4.pf.lam:.12f}")
print(f"  sqrt(phi)     = {math.sqrt(PHI):.12f}")
print(f"  lambda^2      = {r4.pf.lam**2:.12f}  (the square acts like Fibonacci)")
print(f"  cyclic index  = {r4.pf.k}")
print(f"  blocks        = {r4.pf.blocks}  (edge classes swapped by the map)")
print(f"  nu            = {np.array2string(r4.pf.nu, precision=9)}")
print()

# -- pf_eigen works on any irreducible nonnegative integer matrix ----------
M = np.array([[2, 1], [1, 1]])
pf = pf_eigen(M)
print(f"[[2,1],[1,1]]: lambda = {pf.lam:.9f} (exact: (3+sqrt(5))/2 = {(3 + math.sqrt(5)) / 2:.9f})")
