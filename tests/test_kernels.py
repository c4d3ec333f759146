import numpy as np
import pytest

from hngen import kernels


HAVE_NUMBA = "numba" in kernels._IMPLS and kernels._HAVE_NUMBA

pytestmark = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")


@pytest.fixture
def both_backends():
    saved = kernels.active_backend()
    yield
    kernels.set_backend(saved)


def _run_both(fn, *args):
    kernels.set_backend("numpy")
    out_np = fn(*args)
    kernels.set_backend("numba")
    out_nb = fn(*args)
    return out_np, out_nb


class TestBackendParity:
    def test_hadamard_pairs(self, both_backends):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((7, 5))
        a, b = _run_both(kernels.hadamard_pairs, z)
        assert np.allclose(a, b, atol=1e-14)

    def test_hadamard_pairs_grad(self, both_backends):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((6, 4))
        g = rng.standard_normal((6, 6, 4))
        a, b = _run_both(kernels.hadamard_pairs_grad, z, g)
        assert np.allclose(a, b, atol=1e-12)

    def test_pairwise_sqdist(self, both_backends):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((9, 8))
        a, b = _run_both(kernels.pairwise_sqdist, z)
        assert np.allclose(a, b, atol=1e-13)
        assert np.all(np.diag(a) == 0.0)

    def test_pairwise_sqdist_grad(self, both_backends):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((6, 5))
        g = rng.standard_normal((6, 6))
        a, b = _run_both(kernels.pairwise_sqdist_grad, z, g)
        assert np.allclose(a, b, atol=1e-12)


class TestContracts:
    def test_set_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            kernels.set_backend("cuda")
