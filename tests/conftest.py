import pytest

from fklab import _kernels


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # JIT-compile the chain DP and Mane DP kernels once so timed acceptance
    # criteria measure the algorithms, not numba compilation.
    _kernels.warmup()
