"""Tests of the PSD predicate and its eigenvalues, and of the Schur-complement oracle.

Eigenvalues come from LAPACK through NumPy; the Faddeev-LeVerrier oracle
below is the independent route they are checked against. The Cholesky-based
Schur complement and its pivot rule live in ``tests/oracles.py``: the n-party
tests use it as the independent route to the 2x2 shared-parameter block.
"""

import numpy as np
import pytest
from oracles import DegeneratePivotError, schur_complement

from bellri.errors import MalformedInputError
from bellri.linalg import eigenvalues_sym, is_psd


def charpoly_roots(a):
    """Independent eigenvalue oracle: Faddeev-LeVerrier coefficients + companion roots."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = [1.0 + 0.0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    roots = np.roots(np.array(coeffs))
    return np.sort(roots.real)


def random_symmetric(rng, n, scale=1.0):
    g = rng.normal(size=(n, n)) * scale
    return 0.5 * (g + g.T)


def random_hermitian(rng, n, scale=1.0):
    g = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * scale
    return 0.5 * (g + g.conj().T)


class TestIsPsd:
    def test_identity_exact(self):
        assert is_psd(np.eye(3), tol=0.0)

    def test_rank_one_boundary(self):
        assert is_psd(np.array([[1.0, 1.0], [1.0, 1.0]]), tol=1e-12)

    def test_indefinite_two_by_two(self):
        # eigenvalues 1 +- 1.1, so lambda_min = -0.1
        assert not is_psd(np.array([[1.0, 1.1], [1.1, 1.0]]), tol=1e-9)

    def test_zero_matrix(self):
        assert is_psd(np.zeros((2, 2)), tol=0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(MalformedInputError):
            is_psd(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_negative_tol_rejected(self):
        with pytest.raises(MalformedInputError):
            is_psd(np.eye(2), tol=-1.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(MalformedInputError):
            is_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_relative_tolerance_scales_with_norm(self):
        # lambda_min = -1e-6 against norm 1e4: passes at tol 1e-9 only via scaling
        m = np.diag([1e4, -1e-6])
        assert is_psd(m, tol=1e-9)
        assert not is_psd(m, tol=1e-12)

    def test_symmetry_checked_to_relative_tolerance(self):
        # asymmetry up to 1e-10 times the largest entry is accepted
        assert is_psd(np.array([[2e3, 1e3], [1e3 + 1e-8, 2e3]]))
        with pytest.raises(MalformedInputError):
            is_psd(np.array([[2e3, 1e3], [1e3 + 1e-6, 2e3]]))

    def test_no_size_cap(self):
        assert is_psd(np.eye(40), tol=0.0)
        assert not is_psd(np.diag([1.0] * 39 + [-1e-3]), tol=1e-9)

    def test_hermitian_psd(self):
        assert is_psd(np.array([[2.0, 1j], [-1j, 2.0]]), tol=0.0)
        assert not is_psd(np.array([[1.0, 2j], [-2j, 1.0]]), tol=1e-9)


class TestEigenvalues:
    def test_diagonal(self):
        w = eigenvalues_sym(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-14)

    def test_pauli_x_spectrum(self):
        w = eigenvalues_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    # 2x2 real is the n-party shared-parameter block, 4x4 real the tripartite
    # and PR-box context matrices, 3x3 Hermitian the quantum Gram block
    # (quantum_cov_matrix); 6 and 10 are the bordered n-party oracle matrix at
    # four and eight experimenters
    @pytest.mark.parametrize(
        "n, kind",
        [(2, "hermitian"), (3, "hermitian"), (4, "real"), (4, "hermitian"),
         (6, "real"), (6, "hermitian"), (10, "real"), (10, "hermitian")],
    )
    def test_against_charpoly_oracle(self, n, kind):
        rng = np.random.default_rng(7 + n)
        sample = random_symmetric if kind == "real" else random_hermitian
        for _ in range(50):
            m = sample(rng, n)
            np.testing.assert_allclose(eigenvalues_sym(m), charpoly_roots(m), atol=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16])
    def test_real_reconstruction_residual(self, n):
        # a known spectrum rotated by a random orthogonal matrix comes back
        rng = np.random.default_rng(n)
        for _ in range(20):
            scale = rng.uniform(0.1, 10.0)
            w = np.sort(rng.normal(size=n)) * scale
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            m = q @ np.diag(w) @ q.T
            resid = np.abs(eigenvalues_sym(0.5 * (m + m.T)) - w).max()
            assert resid <= 1e-10 * np.abs(w).max()

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_hermitian_reconstruction_and_oracle(self, n):
        # a known spectrum rotated by a random unitary comes back, and agrees
        # with the characteristic-polynomial oracle
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            w = np.sort(rng.normal(size=n))
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            u, _ = np.linalg.qr(g)
            m = u @ np.diag(w) @ u.conj().T
            m = 0.5 * (m + m.conj().T)
            got = eigenvalues_sym(m)
            assert np.abs(got - w).max() <= 1e-10 * np.abs(w).max()
            np.testing.assert_allclose(got, charpoly_roots(m), atol=1e-10)

    def test_permutation_similarity(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = rng.integers(2, 7)
            m = random_symmetric(rng, n)
            perm = rng.permutation(n)
            p = np.eye(n)[:, perm]
            np.testing.assert_allclose(
                eigenvalues_sym(m), eigenvalues_sym(p.T @ m @ p), atol=1e-10
            )

    def test_psd_iff_nonnegative_spectrum(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            if rng.random() < 0.5:
                g = rng.normal(size=(n, n))
                m = g @ g.T  # PSD by construction
            else:
                m = random_symmetric(rng, n)
            w = eigenvalues_sym(m)
            assert is_psd(m, tol=0.0) == (w[0] >= 0.0)


class TestSchurComplement:
    def test_identity_split(self):
        out = schur_complement(np.eye(2), 1)
        np.testing.assert_allclose(out, [[1.0]])

    def test_normalized_three_by_three_instance(self):
        # leading 1x1 block, equal cross correlations 1/sqrt(2): the complement
        # is [[1 - 1/2, r - 1/2], [r - 1/2, 1 - 1/2]]
        rho = 1.0 / np.sqrt(2.0)
        for r in (-0.4, 0.0, 0.3, 0.9):
            m = np.array([[1.0, rho, rho], [rho, 1.0, r], [rho, r, 1.0]])
            out = schur_complement(m, 1)
            expected = np.array([[0.5, r - 0.5], [r - 0.5, 0.5]])
            np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_four_by_four_uncorrelated_leading_block(self):
        # identity leading block: complement must equal the closed form
        # [[1, r], [r, 1]] - X X^T with X rows (ac1, ab1), (ac0, ab0)
        rng = np.random.default_rng(3)
        for _ in range(100):
            ac1, ac0, ab1, ab0 = rng.uniform(-0.6, 0.6, size=4)
            r = rng.uniform(-1.0, 1.0)
            m = np.array(
                [
                    [1.0, 0.0, ac1, ac0],
                    [0.0, 1.0, ab1, ab0],
                    [ac1, ab1, 1.0, r],
                    [ac0, ab0, r, 1.0],
                ]
            )
            out = schur_complement(m, 2)
            x = np.array([[ac1, ab1], [ac0, ab0]])
            expected = np.array([[1.0, r], [r, 1.0]]) - x @ x.T
            np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_psd_equivalence_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            g = rng.normal(size=(4, 4))
            m = g @ g.T + 0.1 * np.eye(4)  # PD, so leading block PD too
            assert is_psd(m) == is_psd(schur_complement(m, 2))
            ind = random_symmetric(rng, 4) + np.diag([2.0, 2.0, 0.0, 0.0])
            if eigenvalues_sym(ind[:2, :2])[0] <= 1e-6:
                continue
            assert is_psd(ind, tol=1e-12) == is_psd(schur_complement(ind, 2), tol=1e-12)

    def test_degenerate_pivot_raises(self):
        with pytest.raises(DegeneratePivotError):
            schur_complement(np.array([[0.0, 0.0], [0.0, 1.0]]), 1)
        indefinite_lead = np.array(
            [[1.0, 0.0, 0.3], [0.0, -1.0, 0.1], [0.3, 0.1, 2.0]]
        )
        with pytest.raises(DegeneratePivotError):
            schur_complement(indefinite_lead, 2)
        # Cholesky succeeds on this leading block (second pivot^2 ~ 1e-15),
        # but the pivot is below the 1e-13 relative floor
        near_singular_lead = np.array(
            [[1.0, 1.0, 0.3], [1.0, 1.0 + 1e-15, 0.1], [0.3, 0.1, 2.0]]
        )
        np.linalg.cholesky(near_singular_lead[:2, :2])
        with pytest.raises(DegeneratePivotError):
            schur_complement(near_singular_lead, 2)

    def test_hermitian_complement(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g @ g.conj().T + 0.1 * np.eye(4)
            out = schur_complement(m, 2)
            assert isinstance(out, np.ndarray) and np.iscomplexobj(out)
            assert is_psd(out)

    def test_bad_split_rejected(self):
        with pytest.raises(MalformedInputError):
            schur_complement(np.eye(3), 0)
        with pytest.raises(MalformedInputError):
            schur_complement(np.eye(3), 3)
