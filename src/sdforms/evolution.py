"""Evolution of divergence-free 1-form fields on the 3-sphere.

The first-order system div(eta) = 0, d eta/du = curl(eta) (u the logarithm
of the radial variable) propagates each *d eigenfield by the factor
(t/t0)^(lambda - 2).  Two independent integration paths are provided and
cross-checked against each other:

* :func:`propagate` applies the exact power law to each *d eigencomponent
  of the initial field, split off by per-block projectors;
* :func:`evolve_ode` integrates the coefficient ODE with a classical
  fourth-order Runge-Kutta scheme, never using the spectral decomposition;
  each stage applies the sparse curl triples once.

L^2 norms and pairings take the scalar Gram matrix per frame component; no
dense 3N x 3N operator or Gram matrix is formed.  A field is divergence-free
here when the L^2 norm of its div is at most DIV_TOL times its own.

Initial fields can be read from a JSON file holding a list of records
``{"monomial": [e0, e1, e2, e3], "axis": i, "coefficient": c}`` with 1-based
frame axis; the monomial exponents refer to the canonical reduced basis.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import spectrum
from .polys import (
    CoframeField,
    PolyScalar,
    coframe_pairings,
    coframe_triples,
    div_norms,
    make_basis,
    sparse_apply,
)

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
    """A divergence-free field as the sum of its *d eigencomponents eta_lambda."""

    D: int
    lam: np.ndarray  # one integer eigenvalue per column of V
    V: np.ndarray  # (3N, L): the eta_lambda at t = 1 on the degree <= D basis
    residual: float = 0.0  # L^2 norm of sum_lambda (*d - lambda) eta_lambda

    @property
    def terms(self):
        """(eigenvalue, CoframeField) pairs, one per eigenvalue."""
        return list(zip(self.lam.tolist(), map(make_basis(self.D).coframe_from_vector, self.V.T)))

    def coefficients(self, t):
        """Coefficient vector of the solution at radius t, sum_lambda t^(lambda-2) eta_lambda."""
        if t <= 0:
            raise ValueError(f"the evolution lives on t > 0, got t = {t}")
        return self.V @ (t ** (self.lam - 2.0))

    def distance(self, field, t):
        """L^2 distance between field and the solution at radius t."""
        return gram_norm(self.D, make_basis(self.D).coframe_to_vector(field)
                         - self.coefficients(t))


def _check_divergence(D, c):
    """Reject c unless its div has L^2 norm at most DIV_TOL times its own."""
    r = div_norms(D, c)[0]
    if not r <= DIV_TOL * gram_norm(D, c):
        raise ValueError(f"initial field is not divergence-free (residual {r:.3e})")


def decompose_initial(eta0):
    """Split a divergence-free field into its *d eigencomponents (no eigenvector).

    ``residual`` certifies them: the L^2 norm of sum_lambda (*d - lambda)
    eta_lambda, with the sparse curl triples, counting the components at 0
    and -1 that are zero on a divergence-free field and not kept.  A field
    whose div passes DIV_TOL times its L^2 norm is rejected.
    """
    D = eta0.degree
    c0 = make_basis(D).coframe_to_vector(eta0)
    _check_divergence(D, c0)
    lam, V = spectrum.eigencomponents(D, c0)
    defect = sparse_apply(coframe_triples(D)["curl"], V, len(V)) + (2.0 - lam) * V
    keep = np.abs(lam) >= 2
    return ModeExpansion(D, lam[keep], V[:, keep], gram_norm(D, defect.sum(axis=1)))


def propagate(expansion, t):
    """Exact solution at radius t: sum_lambda t^(lambda - 2) eta_lambda."""
    return make_basis(expansion.D).coframe_from_vector(expansion.coefficients(t))


def evolve_ode(eta0, u0, u1, steps):
    """Fourth-order Runge-Kutta integration of d eta/du = curl(eta).

    Runs in the polynomial coefficient space at the degree of eta0; the curl
    operator does not raise the degree, so the truncation is exact.  The
    divergence constraint is preserved along the flow.
    """
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    D = eta0.degree
    basis = make_basis(D)
    y = basis.coframe_to_vector(eta0)
    _check_divergence(D, y)
    curl = coframe_triples(D)["curl"]
    n = 3 * basis.dim
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
