"""Evolution of divergence-free 1-form fields on the 3-sphere.

The first-order system div(eta) = 0, d eta/du = curl(eta) (u the logarithm
of the radial variable) propagates each *d eigenfield by the factor
(t/t0)^(lambda - 2).  Two independent integration paths are provided and
cross-checked against each other:

* :func:`propagate` applies the exact per-mode power law to a spectral
  expansion of the initial field;
* :func:`evolve_ode` integrates the coefficient ODE with a classical
  fourth-order Runge-Kutta scheme, never using the spectral decomposition;
  each stage applies the sparse curl triples once.

L^2 norms and pairings take the scalar Gram matrix per frame component; no
dense 3N x 3N operator or Gram matrix is formed.

Initial fields can be read from a JSON file holding a list of records
``{"monomial": [e0, e1, e2, e3], "axis": i, "coefficient": c}`` with 1-based
frame axis; the monomial exponents refer to the canonical reduced basis.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .polys import (
    CoframeField,
    PolyScalar,
    coframe_pairings,
    coframe_triples,
    div_norms,
    make_basis,
    sparse_apply,
)
from .spectrum import ModeSet

__all__ = [
    "ModeExpansion",
    "decompose_initial",
    "propagate",
    "evolve_ode",
    "div_residual",
    "gram_norm",
    "load_initial_field",
    "dump_initial_field",
]

DIV_TOL = 1e-8


def div_residual(eta):
    """L^2 norm of div(eta) over the sphere, sqrt(r^T G r) with r = Dv c."""
    D = eta.degree
    return div_norms(D, make_basis(D).coframe_to_vector(eta))[0]


def gram_norm(D, v):
    """L^2 norm of the coframe field with coefficient vector v on the degree <= D basis."""
    return float(np.sqrt(max(coframe_pairings(D, v, v), 0.0)))


@dataclass
class ModeExpansion:
    """Spectral expansion sum_m a_m eta_m of a divergence-free field."""

    modes: ModeSet
    a: np.ndarray  # one coefficient per mode; dropped coefficients are zero
    t0: float = 1.0
    residual: float = 0.0  # L^2 distance between the input and the expansion

    @property
    def terms(self):
        """(SpectralMode, coefficient) pairs of the nonzero coefficients."""
        return [(self.modes[k], float(self.a[k])) for k in np.flatnonzero(self.a)]

    def coefficients(self, t):
        """Coefficient vector of the solution at radius t, C (a o (t/t0)^(lambda-2))."""
        if t <= 0:
            raise ValueError(f"the evolution lives on t > 0, got t = {t}")
        scale = (t / self.t0) ** (self.modes.lam_int - 2)
        return self.modes.C @ (self.a * scale)

    def distance(self, field, t):
        """L^2 distance between field and the solution at radius t."""
        D = self.modes.D
        return gram_norm(D, make_basis(D).coframe_to_vector(field) - self.coefficients(t))


def decompose_initial(eta0, modes, drop_tol=1e-13):
    """Expand a divergence-free field over Gram-orthonormal eigenfields.

    Coefficients are the L^2 pairings a = C^T G c0; entries with
    |a| <= drop_tol are zeroed.  The reconstruction residual, the Gram norm
    of c0 - C a, is reported on the returned expansion; it vanishes whenever
    eta0 lies in the degree window spanned by the modes.  A field of higher
    degree than the modes is compared on its own, larger basis.  Fields that
    are not divergence-free are rejected.
    """
    r = div_residual(eta0)
    if not r <= DIV_TOL:
        raise ValueError(f"initial field is not divergence-free (residual {r:.3e})")
    D = max(eta0.degree, modes.D)
    c0 = make_basis(D).coframe_to_vector(eta0)
    C = modes.embedded(D)
    a = coframe_pairings(D, C, c0)
    a[np.abs(a) <= drop_tol] = 0.0
    return ModeExpansion(modes=modes, a=a, t0=1.0, residual=gram_norm(D, c0 - C @ a))


def propagate(expansion, t):
    """Exact solution at radius t: sum_m a_m (t/t0)^(lambda_m - 2) eta_m."""
    c = expansion.coefficients(t)
    return make_basis(expansion.modes.D).coframe_from_vector(c)


def evolve_ode(eta0, u0, u1, steps):
    """Fourth-order Runge-Kutta integration of d eta/du = curl(eta).

    Runs in the polynomial coefficient space at the degree of eta0; the curl
    operator does not raise the degree, so the truncation is exact.  The
    divergence constraint is preserved along the flow.
    """
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    r = div_residual(eta0)
    if not r <= DIV_TOL:
        raise ValueError(f"initial field is not divergence-free (residual {r:.3e})")
    D = eta0.degree
    basis = make_basis(D)
    curl = coframe_triples(D)["curl"]
    n = 3 * basis.dim
    y = basis.coframe_to_vector(eta0)
    h = (u1 - u0) / steps
    for _ in range(steps):
        k1 = sparse_apply(curl, y, n)
        k2 = sparse_apply(curl, y + 0.5 * h * k1, n)
        k3 = sparse_apply(curl, y + 0.5 * h * k2, n)
        k4 = sparse_apply(curl, y + h * k3, n)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return basis.coframe_from_vector(y)


def load_initial_field(source):
    """Read a coframe field from the JSON initial-data format.

    ``source`` is a path, file object, or already-parsed list of records
    {"monomial": [e0, e1, e2, e3], "axis": i, "coefficient": c}, summed in
    order into one coefficient dict per axis (linear time).  Rejected, naming
    the source: a record whose coefficient is not finite or takes the
    field's squared L^2 norm past the float range (the reduced monomials are
    at most 1 on the sphere, of area 2 pi^2, so that norm is at most 2 pi^2
    times the squared sum of the absolute reduced coefficients), and records
    that sum to the zero field.
    """
    name = source if isinstance(source, str) else "initial data"
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            records = json.load(fh)
    elif hasattr(source, "read"):
        records = json.load(source)
    else:
        records = source
    comps = [{}, {}, {}]
    total = 0.0
    for i, rec in enumerate(records):
        e = tuple(int(v) for v in rec["monomial"])
        if len(e) != 4 or any(v < 0 for v in e):
            raise ValueError(f"bad monomial multi-index {rec['monomial']!r}")
        axis = int(rec["axis"])
        if axis not in (1, 2, 3):
            raise ValueError(f"frame axis must be 1, 2 or 3, got {axis}")
        acc = comps[axis - 1]
        for m, c in PolyScalar({e: float(rec["coefficient"])}).coeffs.items():
            acc[m] = acc.get(m, 0.0) + c
            total += abs(c)
        if not math.isfinite(2 * math.pi ** 2 * total * total):
            raise ValueError(f"{name}: record {i} (monomial {list(e)}, axis {axis}) has "
                             f"coefficient {rec['coefficient']!r}, not finite or too large "
                             "for a finite squared L^2 norm")
    field = CoframeField(tuple(PolyScalar(acc) for acc in comps))
    if not any(comp.coeffs for comp in field.alpha):
        raise ValueError(f"{name}: the records sum to the zero field, which has nothing "
                         "to evolve")
    return field


def dump_initial_field(eta, path=None):
    """Inverse of :func:`load_initial_field`; returns the record list."""
    records = []
    for axis in (1, 2, 3):
        for e, c in sorted(eta.alpha[axis - 1].coeffs.items()):
            records.append({"monomial": list(e), "axis": axis,
                            "coefficient": float(c)})
    if path is not None:
        with open(path, "w") as fh:
            json.dump(records, fh, indent=1)
    return records
