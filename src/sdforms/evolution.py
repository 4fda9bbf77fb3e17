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

Both routes, and :func:`div_residual` and :meth:`ModeExpansion.distance`,
take and return coefficient vectors on the degree <= D basis
(``make_basis(D).coframe_to_vector``); a ``CoframeField`` is built only
where a field is read or written (:func:`load_initial_field`,
:func:`dump_initial_field`).
L^2 norms take the scalar Gram per frame component (``polys.l2_norms``); no
dense 3N x 3N operator or Gram matrix is formed.  A field is divergence-free
here when the L^2 norm of its div is at most DIV_TOL times its own.

Initial fields can be read from a JSON file holding a list of records
``{"monomial": [e0, e1, e2, e3], "axis": i, "coefficient": c}`` with 1-based
frame axis; the monomial exponents refer to the canonical reduced basis.
"""

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import spectrum
from .polys import (
    CoframeField,
    PolyScalar,
    coframe_triples,
    div_norms,
    l2_norms,
    sparse_apply,
)

__all__ = [
    "ModeExpansion",
    "decompose_initial",
    "propagate",
    "evolve_ode",
    "div_residual",
    "load_initial_field",
    "dump_initial_field",
]

DIV_TOL = 1e-8


def div_residual(D, c):
    """L^2 norm of the div of the field c over the sphere, sqrt(r^T G r) with r = Dv c."""
    return div_norms(D, c)[0]


@dataclass
class ModeExpansion:
    """A divergence-free field as the sum of its *d eigencomponents eta_lambda."""

    D: int
    lam: np.ndarray  # one integer eigenvalue per column of V
    V: np.ndarray  # (3N, L): the eta_lambda at t = 1 on the degree <= D basis
    residual: float = 0.0  # root sum of squares of the ||(*d - lambda) eta_lambda||

    def distance(self, c, t):
        """L^2 distance between the field c and the solution at radius t."""
        return l2_norms(self.D, c - propagate(self, t))[0]


def _check_divergence(D, c):
    """Reject c unless its div has L^2 norm at most DIV_TOL times its own."""
    r = div_norms(D, c)[0]
    if not r <= DIV_TOL * l2_norms(D, c)[0]:
        raise ValueError(f"initial field is not divergence-free (residual {r:.3e})")


def decompose_initial(D, c0):
    """Split a divergence-free field into its *d eigencomponents (no eigenvector).

    ``residual`` certifies them: the root sum of squares of the L^2 norms
    ||(*d - lambda) eta_lambda|| (sparse curl triples), the components at 0
    and -1 (zero on a divergence-free field, not kept) included; unlike the
    norm of the sum, which cancels on any block split, it sees a wrong one.
    A field whose div passes DIV_TOL times its L^2 norm is rejected.
    """
    _check_divergence(D, c0)
    lam, V = spectrum.eigencomponents(D, c0)
    defect = sparse_apply(coframe_triples(D)["curl"], V, len(V)) + (2.0 - lam) * V
    keep = np.abs(lam) >= 2
    return ModeExpansion(D, lam[keep], V[:, keep], math.hypot(*l2_norms(D, defect)))


def propagate(expansion, t):
    """Coefficient vector of the exact solution at radius t: sum_lambda t^(lambda-2) eta_lambda."""
    if t <= 0:
        raise ValueError(f"the evolution lives on t > 0, got t = {t}")
    return expansion.V @ (t ** (expansion.lam - 2.0))


def evolve_ode(D, c0, u0, u1, steps):
    """Fourth-order Runge-Kutta integration of d eta/du = curl(eta) from the field c0.

    Runs in the coefficient space of the degree <= D basis and returns the
    coefficient vector at u1; the curl operator does not raise the degree,
    so the truncation is exact.  The divergence constraint is preserved
    along the flow.
    """
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    _check_divergence(D, c0)
    y, n = c0, len(c0)
    curl = coframe_triples(D)["curl"]
    h = (u1 - u0) / steps
    for _ in range(steps):
        k1 = sparse_apply(curl, y, n)
        k2 = sparse_apply(curl, y + 0.5 * h * k1, n)
        k3 = sparse_apply(curl, y + 0.5 * h * k2, n)
        k4 = sparse_apply(curl, y + h * k3, n)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def _read_record(name, i, rec):
    """The (exponents, axis, coefficient) of record ``i`` of ``name``.

    Rejected, naming the source and the record: a record that is not an
    object or lacks a key, a monomial that is not four non-negative
    integers, an axis other than 1, 2 or 3 and a coefficient that is not a
    number.
    """
    where = f"{name}: record {i}"
    if not isinstance(rec, dict):
        raise ValueError(f"{where} is {rec!r}, not an object")
    missing = [key for key in ("monomial", "axis", "coefficient") if key not in rec]
    if missing:
        raise ValueError(f"{where} has no {' or '.join(missing)}")
    e, axis, c = rec["monomial"], rec["axis"], rec["coefficient"]
    if not (isinstance(e, (list, tuple)) and len(e) == 4
            and all(_is_integer(v) and v >= 0 for v in e)):
        raise ValueError(f"{where}: bad monomial multi-index {e!r}, not four "
                         "non-negative integers")
    if not (_is_integer(axis) and axis in (1, 2, 3)):
        raise ValueError(f"{where}: frame axis must be 1, 2 or 3, got {axis!r}")
    if not isinstance(c, numbers.Real) or isinstance(c, bool):
        raise ValueError(f"{where}: coefficient {c!r} is not a number")
    return tuple(int(v) for v in e), int(axis), float(c)


def _is_integer(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def load_initial_field(source):
    """Read a coframe field from the JSON initial-data format.

    ``source`` is a path or an already-parsed list of records
    {"monomial": [e0, e1, e2, e3], "axis": i, "coefficient": c}, summed in
    order into one coefficient dict per axis (linear time).  Rejected, naming
    the source: a top level that is not a list, a malformed record
    (:func:`_read_record`, which names the record too), a record whose
    coefficient is not finite or takes the field's squared L^2 norm past the
    float range (the reduced monomials are at most 1 on the sphere, of area
    2 pi^2, so that norm is at most 2 pi^2 times the squared sum of the
    absolute reduced coefficients), and records that sum to the zero field.
    """
    records, name = source, "initial data"
    if isinstance(source, str):
        with open(source) as fh:
            records, name = json.load(fh), source
    if not isinstance(records, list):
        raise ValueError(f"{name}: the top level must be a list of records, "
                         f"not a {type(records).__name__}")
    comps = [{}, {}, {}]
    total = 0.0
    for i, rec in enumerate(records):
        e, axis, coefficient = _read_record(name, i, rec)
        acc = comps[axis - 1]
        for m, c in PolyScalar({e: coefficient}).coeffs.items():
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
