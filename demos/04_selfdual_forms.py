"""
Closed self-dual 2-forms on flat R^4
====================================

Contracting a self-dual 2-form with the unit radial covector identifies it
with a 1-form field on the sphere of that radius; inverting the contraction
turns each *d eigenfield eta with eigenvalue lambda into a closed self-dual
form t^(lambda-2) F^{-1}(t eta).  The three covariant-constant unit forms
come from the invariant coframe; the eigenvalue -2 family gives |omega| =
t^-4, the model for fast decay.

Closedness and harmonicity are confirmed by finite differences, the
sharpened gradient inequality |grad|omega||^2 <= (2/3) |grad omega|^2 by
sampling, and distinct-eigenvalue shell integrals vanish.
"""

import numpy as np

from sdforms import (
    SelfDualForm,
    d_residual,
    eigenmodes,
    kato_ratio,
    l2_shell_orthogonality,
    left_invariant_coframe,
    right_invariant_coframe,
)
from sdforms.selfdual import harmonic_residual

rng = np.random.default_rng(1)
x = np.array([0.8, 0.4, -0.3, 0.9])

# the covariant-constant basis: constant matrices of unit norm
M = SelfDualForm.kahler(1)(x)
print("omega^1 components at x:\n", np.round(M, 6))
print("|omega^1|^2 =", 2 * (M[0, 1] * M[2, 3] - M[0, 2] * M[1, 3] + M[0, 3] * M[1, 2]))

# series forms: constant + decaying
decaying = SelfDualForm([(1.0, -2, right_invariant_coframe(1))])
mixed = SelfDualForm([(0.7, 2, left_invariant_coframe(2)),
                      (1.3, -2, right_invariant_coframe(1))])
print("\n|t^-4 omega_-2|(x) =", decaying.norm(x), "  vs t^-4 =",
      np.linalg.norm(x) ** -4)

# closedness and harmonicity by step-halving; every check returns one value
# per point and the mask of points it accepted
for name, sdf in [("decaying", decaying), ("mixed", mixed)]:
    (r1, _), (r2, _) = d_residual(sdf, x, 1e-2), d_residual(sdf, x, 5e-3)
    print(f"{name}: d-residual {r1:.2e} -> {r2:.2e} (ratio {r1 / r2:.2f}, "
          "second order)")
    print(f"{name}: flat Laplacian residual {harmonic_residual(sdf, x, 1e-3)[0]:.2e}")

# the sharpened gradient bound, saturated exactly by the pure -2 family;
# the ratio is NaN where it is undefined
y = rng.standard_normal((200, 4))
y *= rng.uniform(0.5, 2.0, (200, 1)) / np.linalg.norm(y, axis=1, keepdims=True)
ratios, _ = kato_ratio(mixed, y, 1e-4)
ratios = ratios[~np.isnan(ratios)]
print(f"\ngradient ratio over {len(ratios)} points: max = {ratios.max():.8f} "
      f"(bound 2/3 = {2 / 3:.8f})")
print("pure -2 family saturates:", kato_ratio(decaying, x, 1e-5)[0])

# shells of distinct eigenvalues do not interact
modes = eigenmodes(2)
first = {}
for i, lam in enumerate(modes.lam_int.tolist()):
    first.setdefault(lam, i)
print("\nshell pairing (+2, -2):", l2_shell_orthogonality(modes, first[2], first[-2], 1.0))
print("shell pairing (+2, +3):", l2_shell_orthogonality(modes, first[2], first[3], 1.0))
print("shell self-pairing (+2):", l2_shell_orthogonality(modes, first[2], first[2], 1.0))
