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
import importlib.util
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The thread-count symbols of the OpenBLAS each wheel bundles under
# ``<package>.libs``: scipy's runs the LAPACK calls below, numpy's its matrix
# products (an ILP64 build, hence the ``64_`` suffix).
_OPENBLAS_THREAD_SYMBOLS = {
    "scipy": ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    "numpy": ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
}


def _bundled_functions(package: str, names) -> list | None:
    """The named functions of the OpenBLAS bundled under ``<package>.libs``, or None.

    The directory is found from the package's import spec, which does not
    run the package's ``__init__``.  None when the library or one of the
    names is absent, as with MKL, Accelerate or a system BLAS.
    """
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        return None
    libdir = Path(list(spec.submodule_search_locations)[0]).resolve().parent / f"{package}.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            return [getattr(lib, name) for name in names]
        except (OSError, AttributeError):
            continue
    return None


@functools.cache
def lapack_thread_count_funcs() -> dict:
    """{package: (get, set)} of the thread count of each OpenBLAS bundled with scipy and numpy.

    A package is left out when its library or the thread-count symbols are
    absent, as with MKL or a system BLAS.
    """
    found = {}
    for package, names in _OPENBLAS_THREAD_SYMBOLS.items():
        funcs = _bundled_functions(package, names)
        if funcs is None:
            continue
        get, set_ = funcs
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        found[package] = (get, set_)
    return found


# Pins in force across all threads, and the counts the first one saved.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_callers: list[int] = []


@contextlib.contextmanager
def one_lapack_thread():
    """Run the block with the bundled OpenBLAS copies on one thread, then restore the caller's counts.

    A fit factors a small matrix and multiplies small ones every iteration.
    Threaded, those calls wait on thread pools that compete with each other
    and run several times slower; on one thread their bits also stop
    depending on how many threads the caller's pools have.  Overlapping
    blocks, in one thread or several, share one pin: the first in saves the
    counts and sets them to 1, the last out restores them.  A no-op for a
    library that is absent.
    """
    global _pin_depth
    funcs = list(lapack_thread_count_funcs().values())
    with _pin_lock:
        if _pin_depth == 0:
            _pin_callers[:] = [get() for get, _set in funcs]
            for _get, set_ in funcs:
                set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for (_get, set_), count in zip(funcs, _pin_callers):
                    set_(count)


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
            min_eig = float(np.linalg.eigvalsh(data).min())
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


# --- LAPACK ------------------------------------------------------------------
#
# Cholesky factorizations and solves call ``dpotrf``/``dpotrs`` with the lower
# triangle ("L") straight from the OpenBLAS that scipy's wheel bundles, through
# ctypes: ``scipy.linalg`` is never imported, which keeps it out of start-up time
# and memory.  These are the routines behind ``scipy.linalg.cholesky`` and
# ``cho_solve``, so the bits are those of scipy's own wrappers.  Where the wheel
# bundles no such library (MKL or Accelerate builds), scipy's wrappers are
# imported on first use instead.  numpy's bundled LAPACK is not used: its
# results differ from scipy's in the last bits.

_LAPACK_SYMBOLS = ("scipy_dpotrf_", "scipy_dpotrs_")
_LOWER = ctypes.c_char(b"L")
_CHAR_LEN = ctypes.c_size_t(1)  # the hidden length argument of Fortran's character "L"


@functools.cache
def _bundled_lapack() -> list | None:
    """[dpotrf, dpotrs] of scipy's bundled OpenBLAS, or None where it is absent."""
    funcs = _bundled_functions("scipy", _LAPACK_SYMBOLS)
    if funcs is not None:
        for func in funcs:
            func.restype = None
    return funcs


@functools.cache
def _scipy_lapack():
    """(potrf, potrs) as scipy's f2py wrappers: the fallback, imported on first use."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))


def _int_ref(value: int):
    return ctypes.byref(ctypes.c_int(value))


def _storing_info(info: ctypes.c_int, func, *args, **kwargs):
    """A no-argument call of an f2py wrapper that stores the LAPACK info it returns in ``info``."""

    def run():
        info.value = func(*args, **kwargs)[1]

    return run


class _Workspace:
    """Fortran-ordered buffers for n x n factors and solves, with the LAPACK calls bound to them.

    ``lower`` holds the last factor (its upper triangle keeps the input's)
    and ``solution`` the last solve; each is overwritten by the next call,
    so a caller copies what it keeps.  ``potrf()`` factors ``lower`` in
    place, ``potrs_matrix()`` and ``potrs_vector()`` solve in place against
    all of ``solution`` or its first column; each sets ``info``.  The call
    arguments are built here, once, with their exact C types and pointing
    into buffers this object owns: built per call they cost several times
    the factorization of a small matrix.  For the same reason the foreign
    functions declare no ``argtypes``, whose per-call checks more than
    double the cost of a small solve.
    """

    def __init__(self, n: int):
        self.lower = np.zeros((n, n), order="F")
        self.solution = np.zeros((n, n), order="F")
        self.column = self.solution.ravel(order="F")[:n]
        self.diagonal = self.lower.diagonal()
        self.logs = np.empty(n)
        self.eye = np.eye(n)
        self.eye.setflags(write=False)
        self.info = info = ctypes.c_int()
        bundled = _bundled_lapack()
        if bundled is None:
            potrf, potrs = _scipy_lapack()
            self.potrf = _storing_info(info, potrf, self.lower, lower=1, overwrite_a=1)
            self.potrs_matrix, self.potrs_vector = (
                _storing_info(info, potrs, self.lower, rhs, lower=1, overwrite_b=1)
                for rhs in (self.solution, self.column))
        else:
            potrf, potrs = bundled
            uplo, size, lda = ctypes.byref(_LOWER), _int_ref(n), _int_ref(max(n, 1))
            lower = ctypes.c_void_p(self.lower.ctypes.data)
            solution = ctypes.c_void_p(self.solution.ctypes.data)
            info_ref = ctypes.byref(info)
            self.potrf = functools.partial(potrf, uplo, size, lower, lda, info_ref, _CHAR_LEN)
            self.potrs_matrix, self.potrs_vector = (
                functools.partial(potrs, uplo, size, _int_ref(nrhs), lower, lda, solution, lda,
                                  info_ref, _CHAR_LEN)
                for nrhs in (n, 1))

    def factor(self, matrix, what: str) -> float:
        """Lower Cholesky factor of ``matrix`` into ``lower``; returns the log-determinant.

        Jitter on the diagonal starts at 1e-12 * trace/n and grows tenfold up
        to 1e-6 * trace/n before giving up; sample covariances are routinely
        semidefinite at round-off scale.  Raises NonFiniteEntries, then
        NotPositiveDefinite, naming the matrix as ``what``.
        """
        if matrix.shape != self.lower.shape:
            raise GaussError(f"{what} of shape {matrix.shape} is not square")
        # the ufunc reductions behind .all() and .sum(), called without their
        # Python-level wrappers: the same results, a little cheaper per call
        if not np.logical_and.reduce(np.isfinite(matrix), axis=None):
            raise NonFiniteEntries(f"{what} has non-finite entries")
        self.lower[...] = matrix
        self.potrf()
        if self.info.value:
            n = self.eye.shape[0]
            base = max(float(np.trace(matrix)), 0.0) / max(n, 1)
            jitter = 1e-12 * base
            while self.info.value and 0.0 < jitter <= 1e-6 * base:
                self.lower[...] = matrix + jitter * np.eye(n)
                self.potrf()
                jitter *= 10.0
            if self.info.value:
                raise NotPositiveDefinite(f"{what} is not positive definite, even with maximum jitter")
        return 2.0 * float(np.add.reduce(np.log(self.diagonal, out=self.logs)))

    def solve(self, rhs) -> np.ndarray:
        """x with (lower lower^T) x = rhs, for an n-vector or n x n rhs, in ``solution``."""
        if rhs.ndim == 1:
            self.column[...] = rhs
            self.potrs_vector()
            return self.column
        self.solution[...] = rhs
        self.potrs_matrix()
        return self.solution


class _BySize(dict):
    def __missing__(self, n: int) -> _Workspace:
        work = self[n] = _Workspace(n)
        return work


class _ThreadWorkspaces(threading.local):
    """Each thread's workspaces, ``by_size[n]``: threads never share buffers."""

    def __init__(self):
        self.by_size = _BySize()


_WORKSPACES = _ThreadWorkspaces()


def kl_gaussian(p: GaussianDist, q: GaussianDist) -> float:
    """KL divergence of p from q in closed form; +inf when p is singular."""
    if p.cov.dim != q.cov.dim:
        raise GaussError("dimension mismatch")
    n = p.cov.dim
    work = _WORKSPACES.by_size[n]
    try:
        logdet_q = work.factor(q.cov.data, "matrix")
    except NotPositiveDefinite as exc:
        raise SingularQ(str(exc)) from None
    sign_p, logdet_p = np.linalg.slogdet(p.cov.data)
    if sign_p <= 0:
        return math.inf
    diff = q.mean - p.mean
    _require_finite(diff)
    trace = float(np.trace(work.solve(p.cov.data)))
    maha = float(diff @ work.solve(diff))
    return 0.5 * (trace + maha - n + logdet_q - logdet_p)


def target_terms(target: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse and log-determinant of the target, the fixed inputs of ``loss_kernel``."""
    work = _WORKSPACES.by_size[target.shape[0]]
    logdet = work.factor(target, "target covariance")
    return work.solve(work.eye).copy(order="F"), logdet


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
    work = _WORKSPACES.by_size[n]
    logdet_s = work.factor(sigma, "model covariance")
    sigma_inv = work.solve(work.eye)
    trace = float(np.add.reduce(target_inv * sigma, axis=None))
    kl_mt = 0.5 * (trace - n + target_logdet - logdet_s)
    if loss == "kl":
        err = trace - logdet_s
        seed = target_inv - sigma_inv
    else:
        half_inv = 0.5 * sigma_inv  # read before the next solve overwrites sigma_inv
        logdet_sum = work.factor(sigma + target, "model plus target covariance")
        err = n * math.log(0.5) + logdet_sum - 0.5 * logdet_s
        seed = work.solve(work.eye) - half_inv
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
