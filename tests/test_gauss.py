import math

import numpy as np
import pytest
import scipy.optimize

from pmdag import gauss
from pmdag.gauss import (
    CovMatrix,
    GaussError,
    GaussianDist,
    LabelMismatch,
    NonFiniteEntries,
    NotPositiveDefinite,
    SingularQ,
    kl_gaussian,
    load_cov_csv,
    loss_kernel,
    save_cov_csv,
)


def random_spd(rng, n, ridge=0.3):
    a = rng.standard_normal((n + 2, n))
    return a.T @ a / (n + 2) + ridge * np.eye(n)


class TestCovMatrix:
    def test_rejects_asymmetry(self):
        with pytest.raises(GaussError, match="symmetric"):
            CovMatrix(("a", "b"), [[1.0, 0.5], [0.4, 1.0]])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveDefinite):
            CovMatrix(("a", "b"), [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_shape_and_duplicate_labels(self):
        with pytest.raises(GaussError):
            CovMatrix(("a",), [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(GaussError):
            CovMatrix(("a", "a"), np.eye(2))

    def test_restrict_reorders(self):
        cov = CovMatrix(("a", "b", "c"), np.diag([1.0, 2.0, 3.0]))
        sub = cov.restrict(("c", "a"))
        np.testing.assert_array_equal(sub.data, np.diag([3.0, 1.0]))

    def test_restrict_does_not_validate_again(self, monkeypatch):
        cov = CovMatrix(("a", "b", "c"), [[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]])

        def no_eigvalsh(_data):
            raise AssertionError("restrict ran the eigenvalue check again")

        monkeypatch.setattr("pmdag.gauss.np.linalg.eigvalsh", no_eigvalsh)
        sub = cov.restrict(("c", "a"))
        assert sub.labels == ("c", "a")
        np.testing.assert_array_equal(sub.data, [[3.0, 0.1], [0.1, 2.0]])
        assert not sub.data.flags.writeable

    def test_restrict_rejects_repeated_and_unknown_labels(self):
        cov = CovMatrix(("a", "b"), np.eye(2))
        with pytest.raises(GaussError, match="unique"):
            cov.restrict(("a", "a"))
        with pytest.raises(LabelMismatch):
            cov.restrict(("a", "z"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(GaussError, match="non-finite"):
            CovMatrix(("a", "b"), [[1.0, bad], [bad, 1.0]])

    def test_get(self):
        cov = CovMatrix(("a", "b"), [[2.0, 0.5], [0.5, 1.0]])
        assert cov.get("a", "b") == 0.5


class TestKlGaussian:
    def test_equal_distributions(self):
        d = GaussianDist(np.zeros(2), CovMatrix(("a", "b"), np.eye(2)))
        assert kl_gaussian(d, d) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_example(self):
        p = GaussianDist(np.zeros(2), CovMatrix(("a", "b"), np.diag([2.0, 1.0])))
        q = GaussianDist(np.zeros(2), CovMatrix(("a", "b"), np.eye(2)))
        assert kl_gaussian(p, q) == pytest.approx(0.5 * (1.0 - math.log(2.0)))

    def test_mean_shift_only(self):
        p = GaussianDist(np.array([1.0, 0.0]), CovMatrix(("a", "b"), np.eye(2)))
        q = GaussianDist(np.zeros(2), CovMatrix(("a", "b"), np.eye(2)))
        assert kl_gaussian(p, q) == pytest.approx(0.5)

    def test_nonnegative_on_randoms(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            p = GaussianDist(rng.standard_normal(n), CovMatrix(range(n), random_spd(rng, n)))
            q = GaussianDist(rng.standard_normal(n), CovMatrix(range(n), random_spd(rng, n)))
            assert kl_gaussian(p, q) >= 0.0

    def test_singular_p_reports_infinity(self):
        p = GaussianDist(np.zeros(2), CovMatrix(("a", "b"), [[1.0, 1.0], [1.0, 1.0]]))
        q = GaussianDist(np.zeros(2), CovMatrix(("a", "b"), np.eye(2)))
        assert kl_gaussian(p, q) == math.inf

    def test_labels_must_agree_in_order(self):
        # the same law with its labels reordered: compared entry by entry it would read 0.2857
        p = GaussianDist(np.zeros(2), CovMatrix(("X", "Y"), [[1.0, 0.5], [0.5, 2.0]]))
        q = GaussianDist(np.zeros(2), CovMatrix(("Y", "X"), [[2.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(LabelMismatch):
            kl_gaussian(p, q)
        with pytest.raises(LabelMismatch):
            kl_gaussian(p, GaussianDist(np.zeros(1), CovMatrix(("X",), [[1.0]])))

    def test_singular_q_raises(self):
        p = GaussianDist(np.zeros(2), CovMatrix(("a", "b"), np.eye(2)))
        q = GaussianDist(np.zeros(2), CovMatrix(("a", "b"), np.zeros((2, 2))))
        with pytest.raises(SingularQ):
            kl_gaussian(p, q)

    def test_covariance_entries_not_checked_again(self, monkeypatch):
        # each CovMatrix checked its entries when it was built; only the mean difference is checked
        p = GaussianDist(np.array([1.0, 0.0]), CovMatrix(("a", "b"), np.diag([2.0, 1.0])))
        q = GaussianDist(np.zeros(2), CovMatrix(("a", "b"), np.eye(2)))
        checked = []
        isfinite = np.isfinite

        def counted_isfinite(x, *args, **kwargs):
            checked.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted_isfinite)
        kl = kl_gaussian(p, q)
        monkeypatch.undo()
        assert checked == [(2,)]
        assert kl == pytest.approx(0.5 * (1.0 - math.log(2.0)) + 0.5)


class TestErrKl:
    def test_identity_pair(self):
        assert loss_kernel("kl", np.eye(3), np.eye(3))[0] == pytest.approx(3.0)

    def test_diagonal_example(self):
        assert loss_kernel("kl", np.diag([2.0, 1.0]), np.eye(2))[0] == pytest.approx(3.0 - math.log(2.0))

    def test_relation_to_kl(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            sigma, target = random_spd(rng, n), random_spd(rng, n)
            lhs = loss_kernel("kl", sigma, target)[0] - loss_kernel("kl", target, target)[0]
            zero = np.zeros(n)
            kl = kl_gaussian(GaussianDist(zero, CovMatrix(range(n), sigma)),
                             GaussianDist(zero, CovMatrix(range(n), target)))
            assert lhs == pytest.approx(2.0 * kl, abs=1e-10)

    def test_minimized_at_target(self):
        rng = np.random.default_rng(3)
        target = random_spd(rng, 3)

        def objective(theta):
            lower = np.zeros((3, 3))
            lower[np.tril_indices(3)] = theta
            sigma = lower @ lower.T + 1e-12 * np.eye(3)
            return loss_kernel("kl", sigma, target)[0]

        x0 = np.linalg.cholesky(target + 0.5 * np.eye(3))[np.tril_indices(3)]
        res = scipy.optimize.minimize(objective, x0, method="Nelder-Mead",
                                      options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
        lower = np.zeros((3, 3))
        lower[np.tril_indices(3)] = res.x
        np.testing.assert_allclose(lower @ lower.T, target, atol=1e-6)

    def test_argmin_symmetric_between_directions(self):
        # minimizing KL in either direction lands on the target
        rng = np.random.default_rng(4)
        target = random_spd(rng, 3)
        tcov = CovMatrix(range(3), target)
        zero = np.zeros(3)

        def make_objective(direction):
            def objective(theta):
                lower = np.zeros((3, 3))
                lower[np.tril_indices(3)] = theta
                sigma = lower @ lower.T + 1e-10 * np.eye(3)
                model = CovMatrix(range(3), sigma)
                if direction == "model_target":
                    return kl_gaussian(GaussianDist(zero, model), GaussianDist(zero, tcov))
                return kl_gaussian(GaussianDist(zero, tcov), GaussianDist(zero, model))
            return objective

        x0 = np.linalg.cholesky(target + 0.3 * np.eye(3))[np.tril_indices(3)]
        for direction in ("model_target", "target_model"):
            res = scipy.optimize.minimize(make_objective(direction), x0, method="Nelder-Mead",
                                          options={"xatol": 1e-12, "fatol": 1e-14,
                                                   "maxiter": 40000, "maxfev": 40000})
            lower = np.zeros((3, 3))
            lower[np.tril_indices(3)] = res.x
            assert np.linalg.norm(lower @ lower.T - target) < 1e-6


def central_diff(f, sigma, h):
    grad = np.zeros_like(sigma)
    for i in range(sigma.shape[0]):
        for j in range(sigma.shape[1]):
            up = sigma.copy(); up[i, j] += h
            dn = sigma.copy(); dn[i, j] -= h
            grad[i, j] = (f(up) - f(dn)) / (2 * h)
    return grad


class TestGradients:
    def test_grad_err_kl_examples(self):
        np.testing.assert_allclose(loss_kernel("kl", np.eye(2), np.eye(2))[1], np.zeros((2, 2)), atol=1e-14)
        np.testing.assert_allclose(loss_kernel("kl", np.diag([2.0, 1.0]), np.eye(2))[1],
                                   np.diag([0.5, 0.0]), atol=1e-14)

    def test_grad_err_bha_zero_at_target(self):
        np.testing.assert_allclose(loss_kernel("bha", np.eye(2), np.eye(2))[1], np.zeros((2, 2)), atol=1e-14)

    @pytest.mark.parametrize("which", ["kl", "bha"])
    def test_matches_finite_differences(self, which):
        # independent oracle: explicit inverse/determinant formulas that stay
        # well-defined under single-entry (asymmetric) perturbations
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 7))
            sigma, target = random_spd(rng, n), random_spd(rng, n)
            h = 1e-5 * float(np.abs(sigma).max())
            target_inv = np.linalg.inv(target)
            analytic = loss_kernel(which, sigma, target)[1]
            if which == "kl":
                def f(s):
                    return float((target_inv * s.T).sum()) - np.linalg.slogdet(s)[1]
            else:
                def f(s):
                    return (n * math.log(0.5) + np.linalg.slogdet(s + target)[1]
                            - 0.5 * np.linalg.slogdet(s)[1])
            fd = central_diff(f, sigma, h)
            rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
            worst = max(worst, float(rel.max()))
        assert worst < 1e-6


def factor(matrix, what="matrix"):
    """Lower Cholesky factor (the workspace's lower triangle) and log-determinant of ``matrix``."""
    work = gauss._WORKSPACES.by_size[matrix.shape[0]]
    work.check(matrix, what)
    logdet = work.factor(matrix, what)
    return np.tril(work.lower), logdet


class TestSpdFactor:
    """``_Workspace.check`` and ``_Workspace.factor``, the one SPD factorization behind every Gaussian kernel."""

    def test_identity(self):
        lower, logdet = factor(np.eye(3))
        np.testing.assert_array_equal(lower, np.eye(3))
        assert logdet == 0.0

    def test_hand_factorization(self):
        lower, logdet = factor(np.array([[4.0, 2.0], [2.0, 2.0]]))
        np.testing.assert_allclose(lower, [[2.0, 0.0], [1.0, 1.0]])
        assert logdet == pytest.approx(math.log(4.0))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(GaussError, match="square"):
            factor(np.ones((3, 1)))

    def test_jitter_rescues_semidefinite(self):
        lower, _ = factor(np.array([[1.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_allclose(lower @ lower.T, [[1.0, 1.0], [1.0, 1.0]], atol=1e-5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected_and_named(self, value):
        # the upper triangle is not read by the factorization, but is still checked
        sigma = np.array([[1.0, value], [0.0, 1.0]])
        with pytest.raises(NonFiniteEntries, match="test input"):
            factor(sigma, "test input")
        with pytest.raises(NonFiniteEntries, match="model covariance"):
            loss_kernel("kl", sigma, np.eye(2))
        with pytest.raises(NonFiniteEntries, match="target covariance"):
            loss_kernel("kl", np.eye(2), sigma)


class TestLossKernelInputs:
    """The checked entry rejects, as GaussError, what its unchecked body would misread."""

    @pytest.mark.parametrize("loss", ["KL", "Bha", "", "js"])
    def test_unknown_loss_rejected(self, loss):
        # "KL" used to fall through to the bha branch and read 0.1178
        with pytest.raises(GaussError, match=r"\('kl', 'bha'\)"):
            loss_kernel(loss, 2 * np.eye(2), np.eye(2))

    @pytest.mark.parametrize("shape", [(3, 3), (1, 1), (2, 3)])
    def test_target_of_another_shape_rejected(self, shape):
        # used to escape as numpy's bare ValueError from a broadcast
        with pytest.raises(GaussError, match=rf"target covariance of shape \({shape[0]}, {shape[1]}\)"
                                             r".*model covariance of shape \(2, 2\)"):
            loss_kernel("kl", np.eye(2), np.eye(*shape))


class TestCovCsv:
    def test_round_trip(self, tmp_path):
        cov = CovMatrix(("X", "Y"), [[2.0, 0.3], [0.3, 1.0]])
        path = tmp_path / "cov.csv"
        save_cov_csv(cov, path)
        again = load_cov_csv(path)
        assert again.labels == cov.labels
        np.testing.assert_array_equal(again.data, cov.data)

    def test_rejects_asymmetric_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X,Y\n1.0,0.5\n0.4,1.0\n")
        with pytest.raises(GaussError, match="symmetric"):
            load_cov_csv(path)

    def test_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X,Y\n1.0,0.0\n")
        with pytest.raises(GaussError):
            load_cov_csv(path)

    @pytest.mark.parametrize("data", [b"X,Y\n1.0,0.0\n0.0\n", b"X,Y\n1.0,zero\n0.0,1.0\n",
                                      b"V\n\xff\xfe", b"X,Y\nnan,0\n0,1", b"X,Y\n1,2\n2,1",
                                      b"X,X\n1,0\n0,1"],
                             ids=["ragged_row", "non_numeric_cell", "non_utf8", "non_finite_cell",
                                  "not_positive_semidefinite", "duplicate_labels"])
    def test_rejects_non_numeric_matrix_naming_the_file(self, tmp_path, data):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(GaussError, match="bad.csv"):
            load_cov_csv(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "marked.csv"
        path.write_bytes(b"\xef\xbb\xbfX,Y\n2.0,0.3\n0.3,1.0\n")
        assert load_cov_csv(path).labels == ("X", "Y")
