import numpy as np
import pytest
from conftest import (
    einsum_correlation_entries,
    lossy_tmsv_element,
    product_density,
    random_orthogonal,
    random_real_mixed,
    thermal_marginal,
)

from cvsteer import (
    A_TO_B,
    B_TO_A,
    FockDensity,
    apply_gain,
    apply_loss,
    build_tloos,
    build_witness,
    channel_covariance,
    correlation_matrix,
    criterion_rhs,
    fock_density,
    optimal_gain,
    paired_variance_sum,
    rotate_tloos,
    swap_fock_modes,
    tloo_steerable,
    tmsv_covariance,
    uncertainty_sum,
)


def lossy_density(r, eta, n=2):
    return fock_density(apply_loss(tmsv_covariance(r), eta, "B"), n, n)


def gained_density(r, gain, n=2):
    return fock_density(apply_gain(tmsv_covariance(r), gain, "B"), n, n)


# ------------------------------------------------------ correlation matrix


def test_product_state_has_zero_correlations():
    rng = np.random.default_rng(0)
    rho = product_density(random_real_mixed(rng, 3, 1.0), random_real_mixed(rng, 3, 1.0))
    corr = correlation_matrix(rho, 3, 3)
    np.testing.assert_allclose(corr.entries, np.zeros((9, 9)), atol=1e-12)


def test_projector_entry_assembly():
    # The projector-projector covariance is the joint probability minus the
    # product of the thermal marginal probabilities.
    r = 0.5
    rho = fock_density(tmsv_covariance(r), 2, 2)
    corr = correlation_matrix(rho, 2, 2)
    p00 = lossy_tmsv_element(r, 1.0, (0, 0, 0, 0))
    pa0 = thermal_marginal(r, 1.0, 0)
    assert corr.entries[0, 0] == pytest.approx(p00 - pa0 * pa0, abs=1e-12)


@pytest.mark.parametrize("channel, params", [("loss", (0.2, 0.45, 0.9)), ("gain", (1.05, 1.4, 2.5))])
@pytest.mark.parametrize("levels", [(2, 2), (3, 3), (2, 3), (3, 2)])
@pytest.mark.parametrize("rotated", [False, True])
def test_correlation_matrix_matches_the_einsum_oracle(channel, params, levels, rotated):
    rs = np.repeat([0.05, 0.6, 1.4], 3)
    batch = fock_density(channel_covariance(channel, rs, np.tile(params, 3)), 3, 3)
    sets = [build_tloos(n) for n in levels]
    if rotated:
        rng = np.random.default_rng(sum(levels))
        sets = [rotate_tloos(tloos, random_orthogonal(rng, len(tloos))) for tloos in sets]
    singles = [FockDensity(batch.elements[i], batch.reduced_a[i], batch.reduced_b[i]) for i in range(rs.size)]
    for rho in [batch, *singles]:
        entries = correlation_matrix(rho, *levels, *sets).entries
        reference = einsum_correlation_entries(rho, *sets)
        assert np.abs(entries - reference).max() <= 1e-15
        if levels == (2, 2) and not rotated:  # bit-equal on the canonical n2 sets
            assert np.array_equal(entries, reference)


def test_correlation_matrix_rejects_an_imaginary_joint_expectation():
    rng = np.random.default_rng(3)
    elements = product_density(random_real_mixed(rng, 2, 1.0), random_real_mixed(rng, 2, 1.0)).elements
    # <0 1|rho|1 0> and its mirror element move apart: rho is no longer symmetric.
    elements[0, 1, 1, 0] += 1e-3
    elements[1, 0, 0, 1] -= 1e-3
    # correlation_matrix computes only real parts; such an array is refused where it enters.
    with pytest.raises(ValueError, match="not symmetric"):
        FockDensity.from_elements(elements)


def test_sym_asym_cross_entries_vanish():
    corr = correlation_matrix(lossy_density(0.5, 0.5, 3), 3, 3)
    # Canonical order at level 3: 3 projectors, 3 symmetric, 3 antisymmetric.
    sym = slice(3, 6)
    asym = slice(6, 9)
    np.testing.assert_allclose(corr.entries[sym, asym], 0.0, atol=1e-12)
    np.testing.assert_allclose(corr.entries[asym, sym], 0.0, atol=1e-12)


def test_entries_bounded_by_operator_norm():
    corr = correlation_matrix(lossy_density(0.9, 0.6, 3), 3, 3)
    assert np.abs(corr.entries).max() <= 1.0 + 1e-12


def test_cutoff_mismatch_rejected():
    rho = lossy_density(0.5, 0.5, 2)
    with pytest.raises(ValueError):
        correlation_matrix(rho, 3, 3)


# ------------------------------------------------------ criterion bound


def test_rhs_vacuum_is_zero():
    rho = product_density(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    corr = correlation_matrix(rho, 2, 2)
    assert criterion_rhs(corr, B_TO_A) == pytest.approx(0.0, abs=1e-12)


def test_rhs_mixed_a_vacuum_b():
    rho = product_density(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))
    corr = correlation_matrix(rho, 2, 2)
    assert criterion_rhs(corr, B_TO_A) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    # Swapped direction: trusted factor 0 on the pure B side.
    assert criterion_rhs(corr, A_TO_B) == pytest.approx(0.0, abs=1e-12)


def test_rhs_trusted_factor_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(100):
        rho = product_density(random_real_mixed(rng, 2), random_real_mixed(rng, 2))
        corr = correlation_matrix(rho, 2, 2)
        factor = corr.weight_a - (corr.mean_a**2).sum()
        assert factor >= -1e-12


# ------------------------------------------------------ steering verdicts


def test_detects_below_gaussian_bound():
    verdict = tloo_steerable(lossy_density(0.4, 0.45), 2, 2, B_TO_A)
    assert verdict.steerable
    assert verdict.margin == pytest.approx(0.03448542660457521, abs=1e-9)


def test_no_detection_at_large_squeezing():
    verdict = tloo_steerable(lossy_density(1.2, 0.45), 2, 2, B_TO_A)
    assert not verdict.steerable
    assert verdict.margin < 0.0


def test_product_state_margin_nonpositive():
    rng = np.random.default_rng(9)
    rho = product_density(random_real_mixed(rng, 2, 1.0), random_real_mixed(rng, 2, 1.0))
    verdict = tloo_steerable(rho, 2, 2, B_TO_A)
    corr = correlation_matrix(rho, 2, 2)
    assert verdict.margin == pytest.approx(-criterion_rhs(corr, B_TO_A), abs=1e-10)
    assert not verdict.steerable


def test_pure_tmsv_steerable_both_ways():
    rho = fock_density(tmsv_covariance(0.5), 2, 2)
    assert tloo_steerable(rho, 2, 2, B_TO_A).steerable
    assert tloo_steerable(rho, 2, 2, A_TO_B).steerable


def test_direction_swap_consistency():
    rho = lossy_density(0.5, 0.6)
    swapped = swap_fock_modes(rho)
    v1 = tloo_steerable(rho, 2, 2, A_TO_B)
    v2 = tloo_steerable(swapped, 2, 2, B_TO_A)
    assert v1.margin == pytest.approx(v2.margin, abs=1e-12)


def test_margin_single_crossing_in_eta():
    for r in (0.2, 0.5, 0.8):
        margins = [
            tloo_steerable(lossy_density(r, eta), 2, 2, B_TO_A).margin
            for eta in np.arange(0.05, 1.0, 0.05)
        ]
        signs = [m > 0 for m in margins]
        assert signs == sorted(signs)  # false..false true..true


# ------------------------------------------------------ gain optimisation


def test_optimal_gain_zero_for_product_state():
    rng = np.random.default_rng(21)
    rho = product_density(random_real_mixed(rng, 2, 1.0), random_real_mixed(rng, 2, 1.0))
    corr = correlation_matrix(rho, 2, 2)
    assert optimal_gain(corr) == pytest.approx(0.0, abs=1e-12)


def test_optimal_gain_minimises_paired_variance():
    rho = lossy_density(0.4, 0.45)
    corr = correlation_matrix(rho, 2, 2)
    gain = optimal_gain(corr)
    tloos = build_tloos(2)
    lhs_at = lambda g: paired_variance_sum(rho, tloos, tloos, g)[0]
    # The paired sum is an exact quadratic in the gain; recover its vertex
    # from three evaluations as an independent check.
    f0, f1, fm1 = lhs_at(0.0), lhs_at(1.0), lhs_at(-1.0)
    curv = (f1 + fm1) / 2.0 - f0
    slope = (f1 - fm1) / 2.0
    vertex = -slope / (2.0 * curv)
    assert gain == pytest.approx(vertex, abs=1e-10)
    assert lhs_at(gain) == pytest.approx(f0 - slope**2 / (4.0 * curv), abs=1e-10)
    grid = np.arange(-5.0, 5.0, 0.01)
    assert lhs_at(gain) <= min(lhs_at(g) for g in grid) + 1e-12


def test_witness_minimises_its_paired_sum_at_unequal_levels():
    # At level_a < level_b the paired sum holds only the first level_a^2 untrusted variances, so a gain
    # over all level_b^2 of them lands about halfway to the vertex (-0.101 against -0.196 here).
    rho = fock_density(channel_covariance("gain", 0.1, 1.025), 3, 3)
    witness = build_witness(rho, 2, 3, B_TO_A)
    lhs_at = lambda g: paired_variance_sum(rho, witness.tloos_a, witness.tloos_b, g)[0]
    f0, f1, fm1 = lhs_at(0.0), lhs_at(1.0), lhs_at(-1.0)
    curv = (f1 + fm1) / 2.0 - f0
    slope = (f1 - fm1) / 2.0
    assert witness.gain == pytest.approx(-slope / (2.0 * curv), abs=1e-10)
    assert witness.variance_sum == pytest.approx(f0 - slope**2 / (4.0 * curv), abs=1e-10)
    assert witness.variance_sum < witness.bound


# ------------------------------------------------------ paired variance sum


def test_zero_gain_reduces_to_local_sum():
    rho = lossy_density(0.6, 0.5)
    tloos = build_tloos(2)
    lhs, bound = paired_variance_sum(rho, tloos, tloos, 0.0)
    local_sum, local_bound = uncertainty_sum(rho.reduced_a, tloos)
    assert lhs == pytest.approx(local_sum, abs=1e-12)
    assert bound == pytest.approx(local_bound, abs=1e-12)
    assert lhs >= bound - 1e-9


def test_product_states_never_violate():
    rng = np.random.default_rng(33)
    tloos = build_tloos(2)
    for _ in range(50):
        rho = product_density(random_real_mixed(rng, 2), random_real_mixed(rng, 2))
        corr = correlation_matrix(rho, 2, 2)
        gain = optimal_gain(corr)
        lhs, bound = paired_variance_sum(rho, tloos, tloos, gain)
        assert lhs >= bound - 1e-9


# ------------------------------------------------------ witnesses


def test_witness_at_violating_point():
    rho = lossy_density(0.4, 0.45)
    witness = build_witness(rho, 2, 2, B_TO_A)
    assert witness.variance_sum < witness.bound
    corr = correlation_matrix(rho, 2, 2)
    assert witness.diagonal_correlations.sum() == pytest.approx(corr.trace_norm, abs=1e-9)
    assert (witness.diagonal_correlations >= -1e-12).all()
    # The rotated sets remain valid TLOO sets.
    for rotated in (witness.tloos_a, witness.tloos_b):
        mats = rotated.matrices
        gram = np.einsum("iab,jba->ij", mats, mats)
        np.testing.assert_allclose(gram, np.eye(len(mats)), atol=1e-10)


def test_witness_gain_matches_trace_norm_ratio():
    rho = lossy_density(0.4, 0.45)
    witness = build_witness(rho, 2, 2, B_TO_A)
    corr = correlation_matrix(rho, 2, 2)
    rotated = correlation_matrix(rho, 2, 2, witness.tloos_a, witness.tloos_b)
    expected = -corr.trace_norm / rotated.variance_sum_b()
    assert witness.gain == pytest.approx(expected, abs=1e-9)


def test_witness_a_to_b_direction():
    rho = gained_density(0.3, 1.02)
    assert tloo_steerable(rho, 2, 2, A_TO_B).steerable
    witness = build_witness(rho, 2, 2, A_TO_B)
    assert witness.variance_sum < witness.bound


def test_witness_rejects_non_violating_state():
    rho = lossy_density(1.2, 0.45)
    with pytest.raises(ValueError):
        build_witness(rho, 2, 2, B_TO_A)


def test_witness_diagonal_equals_singular_values():
    rho = lossy_density(0.3, 0.9)
    corr = correlation_matrix(rho, 2, 2)
    witness = build_witness(rho, 2, 2, B_TO_A)
    singular = np.linalg.svd(corr.entries, compute_uv=False)
    np.testing.assert_allclose(witness.diagonal_correlations, singular, atol=1e-10)


def test_diagonal_correlation_rotations_are_signed_permutations():
    # When the correlation matrix is already diagonal, the singular-value
    # factors are signed permutations and rotation just reshuffles the set.
    diag = np.diag([0.4, 0.3, 0.2, 0.1])
    u, s, vt = np.linalg.svd(diag)
    np.testing.assert_allclose(np.abs(u.T), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(np.abs(vt), np.eye(4), atol=1e-12)
    tloos = build_tloos(2)
    rotated = rotate_tloos(tloos, u.T)
    for orig, rot in zip(tloos.matrices, rotated.matrices):
        assert min(np.abs(rot - orig).max(), np.abs(rot + orig).max()) < 1e-12


def test_trace_norm_invariant_under_rotations():
    rng = np.random.default_rng(4)
    rho = lossy_density(0.5, 0.5, 3)
    corr = correlation_matrix(rho, 3, 3)
    base = corr.trace_norm
    tloos = build_tloos(3)
    for _ in range(20):
        rot_a = rotate_tloos(tloos, random_orthogonal(rng, 9))
        rot_b = rotate_tloos(tloos, random_orthogonal(rng, 9))
        rotated = correlation_matrix(rho, 3, 3, rot_a, rot_b)
        assert rotated.trace_norm == pytest.approx(base, abs=1e-10)


def test_mixed_levels_supported():
    rho = fock_density(apply_loss(tmsv_covariance(0.5), 0.5, "B"), 3, 2)
    corr = correlation_matrix(rho, 3, 2)
    assert corr.entries.shape == (9, 4)
    verdict = tloo_steerable(rho, 3, 2, B_TO_A)
    assert np.isfinite(verdict.margin)
    tloos_a, tloos_b = build_tloos(3), build_tloos(2)
    lhs, bound = paired_variance_sum(rho, tloos_a, tloos_b, 0.3)
    assert np.isfinite(lhs) and np.isfinite(bound)


@pytest.mark.parametrize("rotated", [False, True])
def test_trusted_factor_is_weight_minus_squared_means(rotated):
    # Tr rho - Tr rho^2 = weight - sum <A_j>^2 for any TLOO set, on thermal marginals and on the
    # non-diagonal marginals of from_elements states.
    rng = np.random.default_rng(11)
    states = [gained_density(0.4, 1.3, 3), lossy_density(1.2, 0.6, 3),
              product_density(random_real_mixed(rng, 3), random_real_mixed(rng, 3))]
    for rho in states:
        sets = [build_tloos(3), build_tloos(3)]
        if rotated:
            sets = [rotate_tloos(tloos, random_orthogonal(rng, 9)) for tloos in sets]
        corr = correlation_matrix(rho, 3, 3, *sets)
        for factor, weight, mean in ((corr.trusted_factor_a(), corr.weight_a, corr.mean_a),
                                     (corr.trusted_factor_b(), corr.weight_b, corr.mean_b)):
            assert factor == pytest.approx(weight - (mean**2).sum(), abs=1e-15)


def test_trusted_factor_keeps_its_accuracy_near_vacuum():
    # 1 - p_0 is taken as nbar / (1 + nbar): the factor stays 2 nbar (1 - O(nbar)) where
    # weight - sum <A_j>^2 would round to 0.
    r = 1e-9
    corr = correlation_matrix(lossy_density(r, 0.5, 3), 3, 3)
    nbar_a, nbar_b = np.sinh(r) ** 2, 0.5 * np.sinh(r) ** 2
    assert corr.trusted_factor_a() == pytest.approx(2.0 * nbar_a, rel=1e-12)
    assert corr.trusted_factor_b() == pytest.approx(2.0 * nbar_b, rel=1e-12)
