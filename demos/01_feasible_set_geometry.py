"""Walk through the three feasible sets and their oracles.

Shows the linear minimization oracle, the Euclidean projection, and the
set diameter for the simplex, a box, and the nuclear-norm ball, including
the top singular pair behind the nuclear-ball LMO against numpy's full SVD.
"""

import numpy as np

from pmvr import Box, NuclearNormBall, Simplex, inner, top_singular_pair

gen = np.random.default_rng(0)

print("== probability simplex in R^5 ==")
fset = Simplex(5)
direction = gen.standard_normal(5)
z = fset.lmo(direction)
print(f"direction      : {np.round(direction, 3)}")
print(f"lmo vertex     : {z}  (value {inner(z, direction):.4f}, min coord {direction.min():.4f})")
p = gen.normal(0, 1, size=5)
proj = fset.project(p)
print(f"project {np.round(p, 3)} -> {np.round(proj, 4)} (sum {proj.sum():.1f})")
print(f"diameter       : {fset.diameter:.4f} (= sqrt 2)")

print("\n== box [-1, 2]^3 ==")
box = Box(np.full(3, -1.0), np.full(3, 2.0))
d = np.array([0.5, -2.0, 1.0])
print(f"lmo({d}) = {box.lmo(d)}")
print(f"project([3, -3, 0.5]) = {box.project(np.array([3.0, -3.0, 0.5]))}")

print("\n== nuclear-norm ball, 8x6, radius 1.5 ==")
ball = NuclearNormBall(8, 6, 1.5)
m = gen.standard_normal((8, 6))
sigma, u, v = top_singular_pair(m)
ref = np.linalg.svd(m, compute_uv=False)[0]
print(f"top_singular_pair sigma1 = {sigma:.10f}")
print(f"full-SVD sigma1          = {ref:.10f}  (rel diff {abs(sigma - ref) / ref:.2e})")
z = ball.lmo(m)
print(f"lmo value <Z, M> = {inner(z, m):.6f}  (= -radius * sigma1 = {-1.5 * ref:.6f})")
big = 3.0 * m / np.linalg.svd(m, compute_uv=False).sum()
proj = ball.project(big)
print(f"projection pulls nuclear norm {np.linalg.svd(big, compute_uv=False).sum():.3f} "
      f"-> {np.linalg.svd(proj, compute_uv=False).sum():.3f}")
