"""
The spectrum of *d on divergence-free fields
============================================

Restricted to divergence-free 1-form fields of the round 3-sphere, *d has
eigenvalues exactly at the integers with |lambda| >= 2, each with
multiplicity lambda^2 - 1.  The polynomial model of degree D resolves the
eigenvalues in the window -D <= lambda <= D + 2; everything the truncated
operator produces is already exact spectrum, so the only effect of the
cutoff is missing multiplicity outside the window.

Both paths work one harmonic degree k at a time: *d is block diagonal on
the harmonic pieces H_k^3, and each block carries only k + 2 and -k.  The
float path solves one standard symmetric eigenproblem per block in an
L^2-orthonormal basis.  The exact path re-derives the multiplicities as
integer kernel ranks of *d - lambda per block and certifies that they
exhaust the subspace, which proves there is no spectrum at -1, 0, +1 in
the model.
"""

import json

from sdforms import constant_norm_check, eigen_decompose, eigenmodes, hodge_laplacian_check

report = eigen_decompose(3)
print("degree 3 window      :", report.window)
print("subspace dimension   :", report.subspace_dim)
print("multiplicities       :", dict(sorted(report.multiplicities.items())))
print("law lambda^2 - 1     :", {k: k * k - 1 for k in sorted(report.multiplicities)})
print("max |lambda - round| :", report.max_integer_deviation)
print("max div residual     :", report.max_div_residual)

# eigenfields at +-2 have constant pointwise norm; higher modes do not
modes = eigenmodes(3)
for lam in (2, -2, 3):
    field = modes.field(list(modes.lam_int).index(lam))
    print(f"norm spread lambda={lam:+d} :", constant_norm_check(field))

# the Hodge Laplacian on this subspace is the square of *d: spectrum >= 4
print("\nHodge Laplacian check:", json.dumps(hodge_laplacian_check(2), default=str))

# exact certificate at degree 2
exact = eigen_decompose(2, ring="exact")
print("\nexact ring complete  :", exact.complete)
print("kernels at -1, 0, +1 :", exact.forbidden_multiplicities)
