"""Kernel tests: PSD decisions, eigenvalues, Schur complements and their pivot rule.

Eigenvalues come from LAPACK through NumPy; the Faddeev-LeVerrier oracle
below is the independent route they are checked against.
"""

import numpy as np
import pytest

from bellri.errors import DegeneratePivotError, MalformedInputError
from bellri.linalg import (
    HermitianMatrix,
    SymmetricMatrix,
    eigenvalues_sym,
    eigh_sym,
    is_psd,
    schur_complement,
    spectral_norm,
)


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

    # 4x4 real is the tripartite context matrix, 3x3 Hermitian the quantum
    # Gram block (quantum_cov_matrix); 6 and 10 are the bordered n-party
    # matrix at four and eight experimenters
    @pytest.mark.parametrize(
        "n, kind",
        [(4, "real"), (3, "hermitian"), (6, "real"), (6, "hermitian"),
         (10, "real"), (10, "hermitian")],
    )
    def test_against_charpoly_oracle(self, n, kind):
        rng = np.random.default_rng(7 + n)
        sample = random_symmetric if kind == "real" else random_hermitian
        for _ in range(50):
            m = sample(rng, n)
            np.testing.assert_allclose(eigenvalues_sym(m), charpoly_roots(m), atol=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16])
    def test_real_reconstruction_residual(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            m = random_symmetric(rng, n, scale=rng.uniform(0.1, 10.0))
            w, v = eigh_sym(m)
            resid = np.abs(m - v @ np.diag(w) @ v.T).max()
            assert resid <= 1e-10 * max(1e-30, np.abs(m).max())

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_hermitian_reconstruction_and_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            m = random_hermitian(rng, n)
            w, v = eigh_sym(m)
            resid = np.abs(m - v @ np.diag(w) @ v.conj().T).max()
            assert resid <= 1e-10 * max(1e-30, np.abs(m).max())
            np.testing.assert_allclose(w, charpoly_roots(m), atol=1e-10)

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


class TestSpectralNorm:
    def test_matches_eigenvalues(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            m = random_symmetric(rng, n, scale=rng.uniform(0.1, 5.0))
            w = eigenvalues_sym(m)
            assert spectral_norm(m) == pytest.approx(max(abs(w[0]), abs(w[-1])), abs=1e-10)


class TestSchurComplement:
    def test_identity_split(self):
        out = schur_complement(np.eye(2), 1)
        np.testing.assert_allclose(out.data, [[1.0]])

    def test_normalized_three_by_three_instance(self):
        # leading 1x1 block, equal cross correlations 1/sqrt(2): the complement
        # is [[1 - 1/2, r - 1/2], [r - 1/2, 1 - 1/2]]
        rho = 1.0 / np.sqrt(2.0)
        for r in (-0.4, 0.0, 0.3, 0.9):
            m = np.array([[1.0, rho, rho], [rho, 1.0, r], [rho, r, 1.0]])
            out = schur_complement(m, 1)
            expected = np.array([[0.5, r - 0.5], [r - 0.5, 0.5]])
            np.testing.assert_allclose(out.data, expected, atol=1e-14)

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
            out = schur_complement(m, 2).data
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
            assert isinstance(out, HermitianMatrix)
            assert is_psd(out)

    def test_bad_split_rejected(self):
        with pytest.raises(MalformedInputError):
            schur_complement(np.eye(3), 0)
        with pytest.raises(MalformedInputError):
            schur_complement(np.eye(3), 3)


class TestWrappers:
    def test_symmetric_requires_exact_symmetry(self):
        with pytest.raises(MalformedInputError):
            SymmetricMatrix(np.array([[1.0, 1.0 + 1e-15], [1.0, 1.0]]))
        m = SymmetricMatrix.from_array([[1.0, 2.0], [2.0, 3.0]])
        assert m.n == 2

    def test_hermitian_diagonal_real(self):
        m = HermitianMatrix.from_array([[1.0 + 1e-18j, 1j], [-1j, 2.0]], symmetrize=True)
        assert m.data[0, 0].imag == 0.0

    def test_immutable(self):
        m = SymmetricMatrix.from_array(np.eye(2))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0
