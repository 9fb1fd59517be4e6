import os
import warnings

# One BLAS thread, set before numpy is first imported: with the default
# thread pool the TGV reproductions slow down ~3x whenever another process
# shares the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from lpsflow.mesh import (  # noqa: E402
    build_structured_mesh,
    periodic_tags,
    wall_tags,
)

# Every property test draws the same examples on every run, with no time
# limit per example, so tier-1 is reproducible.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

# Hypothesis imports its patch writer, and libcst with it, only when a
# property test fails. That import raises a DeprecationWarning, which the
# strict warning filters turn into an INTERNALERROR ending the session;
# imported here first, a failing property test is reported like any other.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: E402, F401
    except ImportError:  # its optional dependencies are missing
        pass

TWO_PI = 2.0 * np.pi


def periodic_mesh(dim, n, p, spacing="gll", length=TWO_PI):
    if isinstance(n, int):
        n = (n,) * dim
    return build_structured_mesh(
        dim, [(0.0, length)] * dim, n, p, spacing, periodic_tags(dim)
    )


def walled_mesh(dim, n, p, spacing="gll", length=1.0):
    if isinstance(n, int):
        n = (n,) * dim
    return build_structured_mesh(
        dim, [(0.0, length)] * dim, n, p, spacing, wall_tags(dim)
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
