import numpy as np
import pytest
from conftest import random_mixed_state, random_orthogonal, random_pure_state, thermal_marginal

from cvsteer import (
    apply_loss,
    build_tloos,
    expectation_values,
    fock_density,
    rotate_tloos,
    tmsv_covariance,
    uncertainty_sum,
)

SQRT2 = np.sqrt(2.0)


def test_counts():
    assert len(build_tloos(2)) == 4
    assert len(build_tloos(3)) == 9
    assert len(build_tloos(4)) == 16


def test_level_guard():
    with pytest.raises(ValueError):
        build_tloos(1)


def test_two_level_matrices_explicit():
    mats = build_tloos(2).matrices
    np.testing.assert_allclose(mats[0], [[1, 0], [0, 0]])
    np.testing.assert_allclose(mats[1], [[0, 0], [0, 1]])
    np.testing.assert_allclose(mats[2], np.array([[0, 1], [1, 0]]) / SQRT2)
    np.testing.assert_allclose(mats[3], np.array([[0, -1j], [1j, 0]]) / SQRT2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orthonormality(n):
    mats = build_tloos(n).matrices
    gram = np.einsum("iab,jba->ij", mats, mats)
    np.testing.assert_allclose(gram, np.eye(n * n), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_completeness(n):
    mats = build_tloos(n).matrices
    total = np.einsum("jab,jbc->ac", mats, mats)
    np.testing.assert_allclose(total, n * np.eye(n), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_hermitian(n):
    # With a symmetric density, Hermitian observables make every joint expectation real.
    canonical = build_tloos(n).matrices
    assert np.array_equal(canonical, canonical.conj().transpose(0, 2, 1))
    rotated = rotate_tloos(build_tloos(n), random_orthogonal(np.random.default_rng(n), n * n)).matrices
    np.testing.assert_allclose(rotated, rotated.conj().transpose(0, 2, 1), atol=1e-14)


def test_plus_minus_families_orthogonal():
    tloos = build_tloos(2)
    sym, asym = tloos.matrices[2], tloos.matrices[3]
    assert abs(np.trace(sym @ asym)) < 1e-14


def test_uncertainty_vacuum_equality():
    tloos = build_tloos(2)
    vacuum = np.diag([1.0, 0.0])
    total, bound = uncertainty_sum(vacuum, tloos)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert bound == pytest.approx(1.0, abs=1e-12)


def test_uncertainty_maximally_mixed():
    tloos = build_tloos(2)
    total, bound = uncertainty_sum(np.diag([0.5, 0.5]), tloos)
    assert total == pytest.approx(1.5, abs=1e-12)
    assert bound == pytest.approx(1.0, abs=1e-12)


def test_uncertainty_thermal_marginal():
    rho = fock_density(apply_loss(tmsv_covariance(0.5), 0.5, "B"), 2, 2)
    total, bound = uncertainty_sum(rho.reduced_b, build_tloos(2))
    assert total >= bound - 1e-9
    # Reduced state is the attenuated thermal marginal.
    assert bound == pytest.approx(
        thermal_marginal(0.5, 0.5, 0) + thermal_marginal(0.5, 0.5, 1), abs=1e-12
    )


def test_uncertainty_dimension_mismatch():
    with pytest.raises(ValueError):
        uncertainty_sum(np.eye(3) / 3.0, build_tloos(2))


def test_uncertainty_rejects_overweight_state():
    with pytest.raises(ValueError):
        uncertainty_sum(np.diag([0.8, 0.8]), build_tloos(2))


def test_uncertainty_rejects_a_nan_state():
    with pytest.raises(ValueError, match="^state weight must be at most 1, got nan$"):
        uncertainty_sum(np.diag([np.nan, 0.5]), build_tloos(2))


@pytest.mark.parametrize("n", [2, 3])
def test_uncertainty_random_mixed(n):
    rng = np.random.default_rng(42 + n)
    tloos = build_tloos(n)
    for _ in range(200):
        state = random_mixed_state(rng, n)
        total, bound = uncertainty_sum(state, tloos)
        assert total >= bound - 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_uncertainty_random_pure_saturates(n):
    rng = np.random.default_rng(17 + n)
    tloos = build_tloos(n)
    for _ in range(200):
        state = random_pure_state(rng, n)
        total, bound = uncertainty_sum(state, tloos)
        assert total == pytest.approx(bound, abs=1e-9)


@pytest.mark.parametrize("n", [2, 3])
def test_squared_means_bounded_by_weight(n):
    rng = np.random.default_rng(5 + n)
    tloos = build_tloos(n)
    for _ in range(200):
        state = random_mixed_state(rng, n)
        means = expectation_values(state, tloos)
        weight = np.trace(state).real
        assert (means**2).sum() <= weight + 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_squared_means_equal_purity(n):
    # The observables form an orthonormal Hermitian basis, so the sum of
    # squared means is the squared Frobenius norm of the truncated state.
    rng = np.random.default_rng(11 + n)
    tloos = build_tloos(n)
    for _ in range(50):
        state = random_mixed_state(rng, n)
        means = expectation_values(state, tloos)
        assert (means**2).sum() == pytest.approx(
            np.linalg.norm(state, "fro") ** 2, abs=1e-10
        )


def test_rotate_identity():
    tloos = build_tloos(2)
    same = rotate_tloos(tloos, np.eye(4))
    np.testing.assert_allclose(same.matrices, tloos.matrices)


def test_rotate_permutation():
    tloos = build_tloos(2)
    perm = np.eye(4)[[2, 0, 3, 1]]
    rotated = rotate_tloos(tloos, perm)
    np.testing.assert_allclose(rotated.matrices[1], tloos.matrices[0])
    gram = np.einsum("iab,jba->ij", rotated.matrices, rotated.matrices)
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_rotate_preserves_identities(n):
    rng = np.random.default_rng(3 + n)
    tloos = build_tloos(n)
    state = random_mixed_state(rng, n)
    base = (expectation_values(state, tloos) ** 2).sum()
    for _ in range(20):
        rotation = random_orthogonal(rng, n * n)
        rotated = rotate_tloos(tloos, rotation)
        gram = np.einsum("iab,jba->ij", rotated.matrices, rotated.matrices)
        np.testing.assert_allclose(gram, np.eye(n * n), atol=1e-10)
        total = np.einsum("jab,jbc->ac", rotated.matrices, rotated.matrices)
        np.testing.assert_allclose(total, n * np.eye(n), atol=1e-10)
        rotated_sum = (expectation_values(state, rotated) ** 2).sum()
        assert rotated_sum == pytest.approx(base, abs=1e-10)
        total_var, bound = uncertainty_sum(state, rotated)
        assert total_var >= bound - 1e-9


def test_rotate_rejects_nonorthogonal():
    tloos = build_tloos(2)
    with pytest.raises(ValueError):
        rotate_tloos(tloos, np.eye(4) * 1.01)
    with pytest.raises(ValueError):
        rotate_tloos(tloos, np.eye(9))


def test_rotate_rejects_a_nan_rotation():
    # A NaN entry would otherwise give NaN observables, and NaN correlation entries after them.
    rotation = np.eye(4)
    rotation[0, 0] = np.nan
    with pytest.raises(ValueError, match="^rotation matrix is not orthogonal$"):
        rotate_tloos(build_tloos(2), rotation)
