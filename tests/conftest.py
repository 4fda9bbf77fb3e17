"""Import the package before any test module imports numpy.

``sdforms`` pins OpenBLAS to one thread only when it is imported before
numpy, as every CLI run imports it.  Loading it here makes the suite run
with the configuration the CLI runs with.
"""

import pytest

import sdforms  # noqa: F401
from sdforms import spectrum


@pytest.fixture(scope="session")
def exact_ring():
    """``exact_ring(D)``: the exact ring's eigenfields, a reference for the
    float ones, and its report, both from one elimination."""
    def decompose(D):
        sub = spectrum.divergence_free_subspace(D, ring="exact")
        spaces = spectrum._exact_eigenspaces(sub)
        return spectrum._sorted_modes(sub, spaces), spectrum._exact_report(sub, spaces)
    return decompose
