"""Import the package before any test module imports numpy.

``sdforms`` pins OpenBLAS to one thread only when it is imported before
numpy, as every CLI run imports it.  Loading it here makes the suite run
with the configuration the CLI runs with.
"""

import sdforms  # noqa: F401
