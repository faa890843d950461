"""The ctypes LAPACK binding in ``pmdag.gauss`` against scipy.linalg's own wrappers, bit for bit.

``scipy.linalg`` is imported inside the tests only: the library itself never
imports it where scipy's wheel bundles its OpenBLAS.
"""

import numpy as np
import pytest

from pmdag import gauss

from conftest import run_python

SIZES = range(1, 13)

# Each layout presents the same logical matrix from differently laid-out memory.
LAYOUTS = {
    "c_order": np.ascontiguousarray,
    "f_order": np.asfortranarray,
    "strided": lambda a: np.repeat(np.repeat(a, 2, axis=0), 2, axis=1)[::2, ::2],
}


def scipy_lapack():
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))


def lopsided_spd(n: int) -> np.ndarray:
    """An SPD lower triangle under an upper triangle of unrelated values, which potrf does not read."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n + 2))
    a = x @ x.T / n
    a[np.triu_indices(n, 1)] = rng.standard_normal(n * (n - 1) // 2)
    return a


def bits(array: np.ndarray) -> bytes:
    return array.tobytes(order="A") + bytes(str(array.flags.f_contiguous), "ascii")


def workspace(n: int) -> gauss._Workspace:
    return gauss._WORKSPACES.by_size[n]


def factor(a: np.ndarray) -> tuple[np.ndarray, float]:
    """The workspace's Cholesky factor of ``a`` (lower triangle, Fortran order) and log-determinant."""
    work = workspace(a.shape[0])
    work.check(a, "matrix")
    logdet = work.factor(a, "matrix")
    return np.asfortranarray(np.tril(work.lower)), logdet


def test_import_leaves_scipy_linalg_out():
    code = ("import sys, numpy as np, pmdag, pmdag.gauss as g\n"
            "before = 'scipy.linalg' in sys.modules\n"
            "g.target_terms(np.eye(3))\n"
            "print(before, g._bundled_lapack() is None or 'scipy.linalg' in sys.modules)")
    out = run_python(code)
    out.check_returncode()
    assert out.stdout.split() == ["False", "False"]


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
@pytest.mark.parametrize("n", SIZES)
def test_factor_and_solves_match_scipy_bitwise(n, layout):
    potrf, potrs = scipy_lapack()
    a = lopsided_spd(n)
    want_c, want_info = potrf(layout(a), lower=1)
    lower, logdet = factor(layout(a))
    assert want_info == 0
    assert bits(lower) == bits(want_c)
    assert logdet == 2.0 * float(np.log(want_c.diagonal()).sum())

    rng = np.random.default_rng(100 + n)
    work = workspace(n)
    for rhs in (rng.standard_normal((n, n)), rng.standard_normal(n), np.eye(n)):
        want_x, want_info = potrs(want_c, layout(rhs) if rhs.ndim == 2 else rhs, lower=1)
        got = work.solve(layout(rhs) if rhs.ndim == 2 else rhs)
        assert (work.info.value, bits(got)) == (want_info, bits(want_x))


@pytest.mark.parametrize("n", SIZES)
def test_indefinite_input_reports_the_failing_minor(n):
    potrf, _potrs = scipy_lapack()
    a = lopsided_spd(n)
    k = n // 2
    a[k, k] = -1.0
    want_c, want_info = potrf(a, lower=1)
    work = workspace(n)
    work.lower[...] = a
    work.potrf()
    assert work.info.value == want_info == k + 1
    assert np.tril(work.lower).tobytes() == want_c.tobytes(order="C")
    with pytest.raises(gauss.NotPositiveDefinite):
        work.factor(a, "matrix")


def kernel_outputs():
    """Every result the library computes through potrf/potrs, as bytes."""
    out = []
    for n in (1, 3, 8):
        a = lopsided_spd(n)
        spd = np.tril(a) + np.tril(a, -1).T
        target = spd + np.eye(n)
        terms = gauss.target_terms(target)
        out += [bits(terms[0]), repr(terms[1]), bits(factor(spd)[0])]
        for loss in ("kl", "bha"):
            err, seed, kl = gauss.loss_kernel(loss, spd, target)
            out += [repr(err), bits(seed), repr(kl)]
        p = gauss.GaussianDist(np.zeros(n), gauss.CovMatrix(range(n), spd))
        q = gauss.GaussianDist(np.arange(n, dtype=float), gauss.CovMatrix(range(n), target))
        out.append(repr(gauss.kl_gaussian(p, q)))
    # the jitter ladder rescues a semidefinite matrix
    out.append(bits(factor(np.ones((4, 4)))[0]))
    return out


def test_fallback_gives_the_same_bits(monkeypatch):
    bundled = kernel_outputs()
    calls = []
    real = gauss._scipy_lapack
    monkeypatch.setattr(gauss, "_bundled_lapack", lambda: None)
    monkeypatch.setattr(gauss, "_scipy_lapack", lambda: calls.append(1) or real())
    gauss._WORKSPACES.by_size.clear()
    try:
        assert kernel_outputs() == bundled
        assert calls
    finally:
        gauss._WORKSPACES.by_size.clear()
