"""
Evolution of divergence-free fields
===================================

The first-order system  div(eta) = 0,  d eta / du = curl(eta)  (u = log t)
propagates each *d eigenfield by the power (t/t0)^(lambda - 2): eigenvalue
+2 fields are stationary, eigenvalue -2 fields decay like t^-4.  Two
independent integration paths are compared: the exact spectral propagator
and a fourth-order Runge-Kutta integrator that never sees the spectrum.
The spectral side splits the field into its *d eigencomponents block by
block: on the harmonic polynomials of degree k, *d has only the
eigenvalues k + 2 and -k there, so (*d + k) / (2k + 2) projects onto the
first; no eigenvector is computed.  Both routes work on the coefficient
vector of the field on the degree <= D polynomial basis; a field object is
built from a vector only to take its norm here.
"""

from math import exp, log

from sdforms import (
    decompose_initial,
    evolve_ode,
    left_invariant_coframe,
    make_basis,
    propagate,
    right_invariant_coframe,
)

# initial field: a Kahler direction plus a decaying one
eta0 = left_invariant_coframe(1) + 0.8 * right_invariant_coframe(2)
D = eta0.degree
basis = make_basis(D)
as_field = basis.coframe_from_vector
c0 = basis.coframe_to_vector(eta0)
expansion = decompose_initial(D, c0)
print("component eigenvalues :", sorted(lam for lam, v in zip(expansion.lam.tolist(),
                                                              expansion.V.T)
                                         if as_field(v).l2_norm() > 1e-12))
print("*d certificate        :", expansion.residual)

# per-mode power laws: lambda = +2 is stationary, lambda = -2 scales by t^-4
for t in (1.0, 2.0, 4.0):
    eta_t = as_field(propagate(expansion, t))
    print(f"t = {t}:  |eta(t)| = {eta_t.l2_norm():.6f}")

# the Runge-Kutta route agrees at fourth order: halving the step size
# shrinks the disagreement by ~16x
u1 = log(2.0)
exact = propagate(expansion, exp(u1))
for steps in (10, 20, 40):
    numeric = evolve_ode(D, c0, 0.0, u1, steps)
    print(f"steps = {steps:3d}:  |RK4 - spectral| = {as_field(numeric - exact).l2_norm():.3e}")
