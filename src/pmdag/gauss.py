"""Dense symmetric-matrix kernel: covariances, Gaussian divergences, SPD utilities.

Divergences are computed through Cholesky factorizations and triangular
solves; explicit inverses appear only where a gradient formula returns an
inverse matrix by definition.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as la

# The LAPACK routines behind ``scipy.linalg.cholesky``/``cho_solve``, resolved
# once: the fit factors a small matrix every iteration, and the wrappers'
# per-call checks and dispatch cost more than the factorization itself.
_POTRF, _POTRS = la.get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))


# The thread-count symbols of the OpenBLAS each wheel bundles under
# ``<package>.libs``: scipy's runs the LAPACK calls above, numpy's its matrix
# products (an ILP64 build, hence the ``64_`` suffix).
_OPENBLAS_THREAD_SYMBOLS = {
    scipy: ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    np: ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
}


@functools.cache
def lapack_thread_count_funcs() -> dict:
    """{package: (get, set)} of the thread count of each OpenBLAS bundled with scipy and numpy.

    A package is left out when its library or the thread-count symbols are
    absent, as with MKL or a system BLAS.
    """
    found = {}
    for module, (get_name, set_name) in _OPENBLAS_THREAD_SYMBOLS.items():
        libdir = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            except (OSError, AttributeError):
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            found[module.__name__] = (get, set_)
            break
    return found


@contextlib.contextmanager
def one_lapack_thread():
    """Run the block with the bundled OpenBLAS copies on one thread, then restore the caller's counts.

    A fit factors a small matrix and multiplies small ones every iteration.
    Threaded, those calls wait on thread pools that compete with each other
    and run several times slower; on one thread their bits also stop
    depending on how many threads the caller's pools have.  A no-op for a
    library that is absent.
    """
    funcs = list(lapack_thread_count_funcs().values())
    callers = [get() for get, _set in funcs]
    for _get, set_ in funcs:
        set_(1)
    try:
        yield
    finally:
        for (_get, set_), count in zip(funcs, callers):
            set_(count)


@functools.cache
def _identity(n: int) -> np.ndarray:
    """A read-only n x n identity, built once per size."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


class GaussError(ValueError):
    """Base class for covariance and divergence errors."""


class SingularQ(GaussError):
    """The reference (second-argument) covariance is not invertible."""


class NotPositiveDefinite(GaussError):
    pass


class LabelMismatch(GaussError):
    pass


class NonFiniteEntries(GaussError):
    pass


def _require_finite(data: np.ndarray) -> None:
    if not np.isfinite(data).all():
        raise NonFiniteEntries("matrix has non-finite entries")


class CovMatrix:
    """A labeled symmetric positive-semidefinite matrix.

    Entries must be finite, symmetry is required to 1e-12 (relative to the
    largest entry), and eigenvalues may not drop below -1e-10 * trace.
    """

    __slots__ = ("labels", "data")

    def __init__(self, labels, data):
        labels = tuple(labels)
        data = np.array(data, dtype=float)
        if data.shape != (len(labels), len(labels)):
            raise GaussError(f"matrix shape {data.shape} does not match {len(labels)} labels")
        if len(set(labels)) != len(labels):
            raise GaussError("labels must be unique")
        _require_finite(data)
        scale = max(1.0, float(np.abs(data).max())) if data.size else 1.0
        if data.size and float(np.abs(data - data.T).max()) > 1e-12 * scale:
            raise GaussError("matrix is not symmetric")
        data = (data + data.T) / 2.0
        if data.size:
            min_eig = float(la.eigvalsh(data).min())
            if min_eig < -1e-10 * max(float(np.trace(data)), 1.0):
                raise NotPositiveDefinite(f"minimum eigenvalue {min_eig:g} is too negative")
        self.labels = labels
        self.data = data
        self.data.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def get(self, a: str, b: str) -> float:
        return float(self.data[self.labels.index(a), self.labels.index(b)])

    def restrict(self, labels) -> "CovMatrix":
        """Sub-matrix over the given labels, in the given order."""
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise GaussError("labels must be unique")
        try:
            idx = [self.labels.index(name) for name in labels]
        except ValueError as exc:
            raise LabelMismatch(str(exc)) from None
        # a principal sub-block of a valid covariance is valid: not checked again
        sub = object.__new__(CovMatrix)
        sub.labels, sub.data = labels, self.data[np.ix_(idx, idx)]
        sub.data.setflags(write=False)
        return sub

    def __repr__(self):
        return f"CovMatrix({self.labels}, dim={self.dim})"


@dataclass(frozen=True)
class GaussianDist:
    """A multivariate normal given by mean vector and covariance."""

    mean: np.ndarray
    cov: CovMatrix

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (self.cov.dim,):
            raise GaussError("mean dimension does not match covariance dimension")
        object.__setattr__(self, "mean", mean)


def spd_factor(sigma: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor and log-determinant, escalating diagonal jitter if needed.

    Jitter starts at 1e-12 * trace/n and grows tenfold up to 1e-6 * trace/n
    before giving up; sample covariances are routinely semidefinite at
    round-off scale.  Non-finite entries raise NonFiniteEntries.
    """
    sigma = np.asarray(sigma, dtype=float)
    _require_finite(sigma)
    n = sigma.shape[0]
    lower, info = _POTRF(sigma, lower=1)
    if info:
        base = max(float(np.trace(sigma)), 0.0) / max(n, 1)
        jitter = 1e-12 * base
        while info and 0.0 < jitter <= 1e-6 * base:
            lower, info = _POTRF(sigma + jitter * np.eye(n), lower=1)
            jitter *= 10.0
        if info:
            raise NotPositiveDefinite("matrix is not positive definite, even with maximum jitter")
    return lower, 2.0 * float(np.log(lower.diagonal()).sum())


def _solve_spd(lower, rhs):
    """Solve sigma x = rhs from the lower Cholesky factor of sigma."""
    return _POTRS(lower, rhs, lower=1)[0]


def kl_gaussian(p: GaussianDist, q: GaussianDist) -> float:
    """KL divergence of p from q in closed form; +inf when p is singular."""
    if p.cov.dim != q.cov.dim:
        raise GaussError("dimension mismatch")
    n = p.cov.dim
    try:
        lq, logdet_q = spd_factor(q.cov.data)
    except NotPositiveDefinite as exc:
        raise SingularQ(str(exc)) from None
    sign_p, logdet_p = np.linalg.slogdet(p.cov.data)
    if sign_p <= 0:
        return math.inf
    diff = q.mean - p.mean
    _require_finite(diff)
    trace = float(np.trace(_solve_spd(lq, p.cov.data)))
    maha = float(diff @ _solve_spd(lq, diff))
    return 0.5 * (trace + maha - n + logdet_q - logdet_p)


def _factor(matrix: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    try:
        return spd_factor(matrix)
    except NotPositiveDefinite:
        raise NotPositiveDefinite(f"{what} is not positive definite, even with maximum jitter") from None
    except NonFiniteEntries:
        raise NonFiniteEntries(f"{what} has non-finite entries") from None


def target_terms(target: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse and log-determinant of the target, the fixed inputs of ``loss_kernel``."""
    lower, logdet = _factor(target, "target covariance")
    return _solve_spd(lower, _identity(target.shape[0])), logdet


def loss_kernel(loss: str, sigma: np.ndarray, target: np.ndarray,
                target_inv: np.ndarray, target_logdet: float):
    """Surrogate loss, covariance-gradient seed, and KL(model || target) from one factorization.

    ``loss="kl"`` is tr(target^-1 sigma) - ln|sigma| with seed
    target^-1 - sigma^-1; ``loss="bha"`` is log_err_bha with seed
    (sigma + target)^-1 - sigma^-1 / 2.  The seed is symmetrized; it is the
    entrywise derivative of the loss in sigma.  Raises NotPositiveDefinite
    or NonFiniteEntries naming the matrix that could not be factored.
    """
    n = sigma.shape[0]
    lower, logdet_s = _factor(sigma, "model covariance")
    eye = _identity(n)
    sigma_inv = _solve_spd(lower, eye)
    trace = float((target_inv * sigma).sum())
    kl_mt = 0.5 * (trace - n + target_logdet - logdet_s)
    if loss == "kl":
        err = trace - logdet_s
        seed = target_inv - sigma_inv
    else:
        lsum, logdet_sum = _factor(sigma + target, "model plus target covariance")
        err = n * math.log(0.5) + logdet_sum - 0.5 * logdet_s
        seed = _solve_spd(lsum, eye) - 0.5 * sigma_inv
    seed = (seed + seed.T) / 2.0
    return err, seed, kl_mt


def _kernel(loss, sigma, target):
    return loss_kernel(loss, sigma, target, *target_terms(target))


def err_kl(sigma: np.ndarray, target: np.ndarray) -> float:
    """tr(target^-1 sigma) - ln|sigma|: the divergence surrogate the solver minimizes."""
    return _kernel("kl", sigma, target)[0]


def grad_err_kl(sigma: np.ndarray, target: np.ndarray) -> np.ndarray:
    """target^-1 - sigma^-1, the entrywise derivative of err_kl in sigma."""
    return _kernel("kl", sigma, target)[1]


def log_err_bha(sigma: np.ndarray, target: np.ndarray) -> float:
    """ln((1/2)^n |sigma + target| / |sigma|^(1/2)), the Bhattacharyya-style surrogate's log."""
    return _kernel("bha", sigma, target)[0]


def grad_err_bha(sigma: np.ndarray, target: np.ndarray) -> np.ndarray:
    """(sigma + target)^-1 - sigma^-1 / 2: the gradient of log_err_bha in sigma.

    This matches the unlogged surrogate's gradient up to the positive factor
    of the surrogate itself, which the learning rate absorbs.
    """
    return _kernel("bha", sigma, target)[1]


# --- CSV covariance format ----------------------------------------------


def save_cov_csv(cov: CovMatrix, path) -> None:
    """First row: labels; following rows: the matrix."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cov.labels)
        for row in cov.data:
            writer.writerow([repr(float(x)) for x in row])


def load_cov_csv(path) -> CovMatrix:
    """Load a labeled covariance, rejecting asymmetry beyond 1e-9 relative."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise GaussError(f"empty covariance file: {path}")
    labels = [cell.strip() for cell in rows[0]]
    data = np.array([[float(cell) for cell in row] for row in rows[1:]], dtype=float)
    if data.shape != (len(labels), len(labels)):
        raise GaussError(f"covariance file {path} is not a {len(labels)}x{len(labels)} matrix")
    _require_finite(data)
    scale = max(1.0, float(np.abs(data).max()))
    if float(np.abs(data - data.T).max()) > 1e-9 * scale:
        raise GaussError(f"covariance file {path} is not symmetric within 1e-9 relative tolerance")
    return CovMatrix(labels, (data + data.T) / 2.0)
