import math
import re
from functools import cached_property

import numpy as np
import pytest
from conftest import (
    einsum_correlation_entries,
    lossy_tmsv_element,
    product_density,
    random_orthogonal,
    random_real_mixed,
    reference_witness,
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
    expectation_values,
    fock_density,
    optimal_gain,
    paired_variance_sum,
    rotate_tloos,
    swap_fock_modes,
    tloo_margin,
    tloo_steerable,
    tmsv_covariance,
    uncertainty_sum,
)
from cvsteer import tloo_criterion
from cvsteer.covariance import TwoModeCovariance


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


def realignment_reference(rho, n_a, n_b):
    """K[..., m*n_a + n, p*n_b + q] = elements[..., m, p, n, q] - reduced_a[..., m, n] reduced_b[..., p, q], cell by cell."""
    block = np.empty(rho.elements.shape[:-4] + (n_a * n_a, n_b * n_b))
    for m, n, p, q in np.ndindex(n_a, n_a, n_b, n_b):
        block[..., m * n_a + n, p * n_b + q] = (rho.elements[..., m, p, n, q]
                                                - rho.reduced_a[..., m, n] * rho.reduced_b[..., p, q])
    return block


@pytest.mark.parametrize("levels", [(2, 2), (3, 3), (2, 3)])
def test_k_is_the_plain_realignment(levels):
    rho = fock_density(channel_covariance("loss", np.linspace(0.05, 1.4, 5), np.linspace(0.1, 0.9, 5)), 3, 3)
    corr = correlation_matrix(rho, *levels)
    assert np.array_equal(corr.block, realignment_reference(rho, *levels))


def test_k_of_a_dense_state_is_the_plain_realignment_and_leaves_the_elements_alone():
    # The elements are a strided view whose realignment is contiguous: K must still be a new array.
    rng = np.random.default_rng(11)
    stored = np.ascontiguousarray(random_real_mixed(rng, 9).reshape(3, 3, 3, 3).transpose(0, 2, 1, 3))
    rho = FockDensity.from_elements(stored.transpose(0, 2, 1, 3))
    before = stored.copy()
    corr = correlation_matrix(rho, 3, 3)
    assert not rho.sector
    assert np.array_equal(corr.block, realignment_reference(rho, 3, 3))
    assert np.array_equal(stored, before)


@pytest.mark.parametrize("levels", [(2, 2), (3, 3), (2, 3), (3, 2), (4, 4)])
def test_trace_norm_and_variance_sums_hold_off_the_sector(levels):
    # A random mixed state fills the elements off the sector m1 - m2 = n1 - n2 too, so K has no block
    # structure and every level pair, level 4 included, takes the SVD of the whole of K.
    n_a, n_b = levels
    rng = np.random.default_rng(n_a * 10 + n_b)
    rho = FockDensity.from_elements(random_real_mixed(rng, n_a * n_b).reshape(n_a, n_b, n_a, n_b))
    corr = correlation_matrix(rho, n_a, n_b)
    reference = np.linalg.svd(einsum_correlation_entries(rho, corr.tloos_a, corr.tloos_b), compute_uv=False).sum()
    assert reference > 1e-3
    assert abs(corr.trace_norm - reference) <= 1e-14
    for variance_sum, reduced, tloos in ((corr.variance_sum_a(), rho.reduced_a, corr.tloos_a),
                                         (corr.variance_sum_b(), rho.reduced_b, corr.tloos_b)):
        means = expectation_values(reduced, tloos)
        assert abs(variance_sum - (tloos.level * np.trace(reduced) - (means**2).sum())) <= 1e-14


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


# ------------------------------------------------------ trace norm on the gap blocks

EPS = np.finfo(float).eps


def svd_calls(monkeypatch):
    """Record the shape of every block the trace norm hands to the SVD."""
    calls = []
    svd = tloo_criterion._svd_trace_norm

    def recording(block):
        calls.append(block.shape)
        return svd(block)

    monkeypatch.setattr(tloo_criterion, "_svd_trace_norm", recording)
    return calls


def with_gap_zero_block(b0):
    """A level-3 correlation matrix whose K holds b0 (3x3, or a stack) as B_0 and zeros elsewhere: a bare
    sector state with elements[..., m, p, m, p] = b0[..., m, p], every other cell zero, zero reduced states."""
    m, p = np.indices((3, 3))
    elements = np.zeros(b0.shape[:-2] + (3, 3, 3, 3))
    elements[..., m, p, m, p] = b0
    zeros = np.zeros(b0.shape[:-2] + (3, 3))
    return correlation_matrix(FockDensity(elements, zeros, zeros, sector=True), 3, 3)


def singular_value_block(rng, singular_values, scale):
    return scale * random_orthogonal(rng, 3) @ np.diag(singular_values) @ random_orthogonal(rng, 3)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150])
@pytest.mark.parametrize("singular_values", [(1.0, 0.5, 0.25), (1.0, 0.3, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0),
                                             (1.0, 0.5, 0.5), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
                         ids=["rank3", "rank2", "rank2-repeated", "rank3-all-equal", "rank3-repeated", "rank1", "rank0"])
def test_three_by_three_blocks_match_the_svd(monkeypatch, singular_values, scale):
    # A is a fourth power of the entries: 1e-300 and 1e150 would underflow or overflow unscaled.
    rng = np.random.default_rng(int(sum(singular_values) * 100))
    b0 = np.stack([singular_value_block(rng, singular_values, scale) for _ in range(20)])
    reference = np.linalg.svd(b0, compute_uv=False).sum(axis=-1)
    calls = svd_calls(monkeypatch)
    norms = with_gap_zero_block(b0).trace_norm
    assert np.all(np.abs(norms - reference) <= 4 * EPS * reference)
    assert norms.tolist() == [with_gap_zero_block(b).trace_norm for b in b0]  # the same bits one by one
    if singular_values[1] > 0.0:
        assert calls == []  # the closed form took every block
    if singular_values[0] == 0.0:
        assert not norms.any()


def test_an_exact_rank_one_block_takes_the_closed_form(monkeypatch):
    # Every 2x2 minor of this block, scaled to a largest entry of 1, is an exact 0, so A = D = 0 and
    # only the guard keeps the Newton step from 0/0.  LAPACK reports a second singular value of 3e-16.
    b0 = np.array([[0.0, 1.0, 3.0], [0.0, 2.0, 6.0], [0.0, 0.0, 0.0]])
    calls = svd_calls(monkeypatch)
    for scale in (1e-300, 1.0, 1e150):
        norm = with_gap_zero_block(scale * b0).trace_norm
        assert norm == pytest.approx(scale * math.sqrt(50.0), rel=2 * EPS)
        assert abs(norm - np.linalg.svd(scale * b0, compute_uv=False).sum()) <= 4 * EPS * norm
    assert calls == []


@pytest.mark.parametrize("band", [(1e-8, 1e-6), (1e-6, 1e-4), (1e-4, 1e-3)])
def test_dense_near_rank_one_blocks_take_the_svd(monkeypatch, band):
    # A dense block near rank one carries a determinant rounded in absolute terms, which the closed
    # form would turn into a relative error near eps sigma_1 / sigma_2; such blocks take the SVD.
    rng = np.random.default_rng(int(-math.log10(band[0])))
    ratios = np.exp(rng.uniform(*np.log(band), 200))
    b0 = np.stack([singular_value_block(rng, (1.0, t, t * rng.uniform()), 1.0) for t in ratios])
    reference = np.linalg.svd(b0, compute_uv=False).sum(axis=-1)
    calls = svd_calls(monkeypatch)
    norms = with_gap_zero_block(b0).trace_norm
    assert np.all(np.abs(norms - reference) <= 4 * EPS * reference)
    (routed,) = calls
    assert routed[0] >= 0.7 * len(b0)


def test_dense_well_conditioned_blocks_take_the_closed_form(monkeypatch):
    rng = np.random.default_rng(5)
    ratios = np.exp(rng.uniform(np.log(1e-2), 0.0, 500))
    b0 = np.stack([singular_value_block(rng, (1.0, t, t * rng.uniform()), 1.0) for t in ratios])
    reference = np.linalg.svd(b0, compute_uv=False).sum(axis=-1)
    calls = svd_calls(monkeypatch)
    norms = with_gap_zero_block(b0).trace_norm
    assert np.all(np.abs(norms - reference) <= 6 * EPS * reference)
    assert sum(shape[0] for shape in calls) <= 0.02 * len(b0)


def test_states_off_the_gap_blocks_take_the_svd_of_k(monkeypatch):
    # Non-zero cells off the sector (a from_elements state), unequal levels and level 4 are each the
    # SVD of the whole of K, unchanged.
    rng = np.random.default_rng(8)
    dense = FockDensity.from_elements(random_real_mixed(rng, 9).reshape(3, 3, 3, 3))
    deep = lossy_density(0.7, 0.45, 4)
    cases = [correlation_matrix(dense, 3, 3), correlation_matrix(dense, 2, 3), correlation_matrix(deep, 4, 4),
             correlation_matrix(deep, 3, 2)]
    calls = svd_calls(monkeypatch)
    for corr in cases:
        assert corr.trace_norm == np.linalg.svd(corr.block, compute_uv=False).sum()
    assert calls == [(9, 9), (4, 9), (16, 16), (9, 4)]


def test_sector_support_decides_the_route(monkeypatch):
    # The closed forms need every cell off m1 - m2 = n1 - n2 to be zero, which fock_density states carry
    # and from_elements decides from its array; a bare FockDensity without the flag takes the SVD of K.
    exact = lossy_density(0.7, 0.45, 3)
    off = exact.elements.copy()
    off[0, 1, 1, 0] = off[1, 0, 0, 1] = 1e-3
    states = [exact, FockDensity.from_elements(exact.elements), FockDensity.from_elements(off),
              FockDensity(exact.elements, exact.reduced_a, exact.reduced_b)]
    assert [rho.sector for rho in states] == [True, True, False, False]
    assert [swap_fock_modes(rho).sector for rho in states] == [True, True, False, False]
    calls = svd_calls(monkeypatch)
    for level in (2, 3):
        for rho in states:
            corr = correlation_matrix(rho, level, level)
            norm = corr.trace_norm
            assert abs(norm - np.linalg.svd(corr.block, compute_uv=False).sum()) <= 4 * EPS * norm
    assert calls == [(4, 4), (4, 4), (9, 9), (9, 9)]


@pytest.mark.parametrize("size", [1, 7, 8, 20])
@pytest.mark.parametrize("level", [2, 3])
def test_a_fock_density_margin_builds_no_k(size, level):
    rho = fock_density(channel_covariance("gain", np.linspace(0.05, 1.4, size), np.linspace(1.01, 2.5, size)), 3, 3)
    corr = correlation_matrix(rho, level, level)
    margin = tloo_margin(corr)
    assert margin.shape == (size,)
    assert "block" not in corr.__dict__
    reference = np.linalg.svd(corr.block, compute_uv=False).sum(axis=-1)
    assert np.all(np.abs(corr.trace_norm - reference) <= 4 * EPS * reference)


def part_of(rho, part):
    return FockDensity(rho.elements[part], rho.reduced_a[part], rho.reduced_b[part], rho.excited_a[part],
                       rho.excited_b[part], rho.sector)


def test_a_batch_shares_its_bits_with_each_state(monkeypatch):
    # Batches of 8 or more take the closed forms on arrays, smaller ones state by state in Python
    # floats; a state whose B_0 is too near rank one for its determinant (state 7 at level 3) takes
    # the SVD in either.
    rs, params = np.repeat([1e-6, 0.02, 0.3, 1.1, 3.0], 4), np.tile([0.1, 0.45, 0.9, 0.99], 5)
    rho = fock_density(channel_covariance("loss", rs, params), 3, 3)
    m, p = np.indices((3, 3))
    rho.elements[7, m, p, m, p] = singular_value_block(np.random.default_rng(7), (1.0, 1e-7, 1e-8), 1.0)
    rho.reduced_a[7] = rho.reduced_b[7] = 0.0
    calls = svd_calls(monkeypatch)
    for level in (2, 3):
        corr = correlation_matrix(rho, level, level)
        batch = corr.trace_norm
        assert "block" not in corr.__dict__  # the SVD realigns state 7 alone and caches no K
        singles = [correlation_matrix(part_of(rho, i), level, level).trace_norm for i in range(len(rs))]
        pairs = np.concatenate([correlation_matrix(part_of(rho, slice(i, i + 2)), level, level).trace_norm
                                for i in range(0, len(rs), 2)])
        assert batch.tolist() == singles == pairs.tolist()
        assert all(type(single) is np.float64 for single in singles)
    assert calls == [(1, 9, 9)] * 3


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("cov", [TwoModeCovariance(2.0, 1.0, 0.0), TwoModeCovariance(1.0 + 1e-35, 1.0 + 1e-35, 9.8e-36)],
                         ids=["product", "near-product"])
def test_product_and_near_product_states_raise_no_warning(cov, level):
    # K is exactly 0 on the product state; on the near-product one its cells run from 5e-36 down to
    # 1e-141, so that products of them underflow.  Warnings are errors in this suite.
    corr = correlation_matrix(fock_density(cov, 3, 3), level, level)
    reference = np.linalg.svd(corr.block, compute_uv=False).sum()
    assert abs(corr.trace_norm - reference) <= 4 * EPS * reference


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
        factor = np.trace(corr.reduced_a) - (expectation_values(corr.reduced_a, corr.tloos_a) ** 2).sum()
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


@pytest.mark.parametrize("levels", [(2, 2), (2, 3), (3, 2)])
def test_optimal_gain_minimises_paired_variance(levels):
    # At (2, 3) the paired sum holds only the first 4 of the 9 untrusted variances; a gain over all 9
    # would land at -0.0506 against the vertex -0.1715.
    rho = fock_density(channel_covariance("loss", 0.4, 0.45), 3, 3)
    gain = optimal_gain(correlation_matrix(rho, *levels))
    assert type(gain) is float
    tloos_a, tloos_b = (build_tloos(n) for n in levels)
    lhs_at = lambda g: paired_variance_sum(rho, tloos_a, tloos_b, g)[0]
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


def test_witness_assembles_each_correlation_matrix_once(monkeypatch):
    # One matrix for the margin, which builds no K; the first entries build K and T K T^T once, the
    # rotated entries come from their SVD, and every sum over a whole set from the completeness identity:
    # only the first 4 of the 9 untrusted variances at (2, 3) take _variances.
    calls, built = [], []

    def counted(*args):
        calls.append(args)
        return correlation_matrix(*args)

    def counted_variances(*args):
        built.append("_variances")
        return variances_of(*args)

    def count_property(name):
        build = getattr(tloo_criterion.CorrelationMatrix, name).func
        prop = cached_property(lambda corr: built.append(name) or build(corr))
        prop.__set_name__(tloo_criterion.CorrelationMatrix, name)
        monkeypatch.setattr(tloo_criterion.CorrelationMatrix, name, prop)

    variances_of = tloo_criterion._variances
    for name in ("block", "entries"):
        count_property(name)
    monkeypatch.setattr("cvsteer.tloo_criterion.correlation_matrix", counted)
    monkeypatch.setattr("cvsteer.tloo_criterion._variances", counted_variances)
    for levels, eta, variances in (((2, 2), 0.45, 0), ((2, 3), 0.7, 1)):
        calls.clear()
        built.clear()
        build_witness(fock_density(channel_covariance("loss", 0.4, eta), 3, 3), *levels, B_TO_A)
        assert len(calls) == 1
        assert sorted(built) == sorted(["block", "entries"] + ["_variances"] * variances), levels


@pytest.mark.parametrize("channel, r, param", [("loss", 0.8, 0.7), ("gain", 0.3, 1.02)])
@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("direction", [B_TO_A, A_TO_B])
def test_witness_matches_its_50_digit_reference(channel, r, param, level, direction):
    # At equal levels the vertex gain is -||C||_tr / V_B and the variance sum there V_A - ||C||_tr^2 / V_B.
    witness = build_witness(fock_density(channel_covariance(channel, r, param), 3, 3), level, level, direction)
    gain, variance_sum = reference_witness(channel, r, param, level, direction)
    assert witness.gain == pytest.approx(float(gain), rel=2e-15, abs=0.0)
    assert witness.variance_sum == pytest.approx(float(variance_sum), rel=2e-15, abs=0.0)


@pytest.mark.parametrize(
    "param, levels, gain, variance_sum",
    [
        (0.45, (2, 2), -0.48527337786707236, 0.9467501570418404),
        (0.7, (2, 3), -0.6047411346332509, 0.7800143942850457),
    ],
)
def test_witness_pinned_values(param, levels, gain, variance_sum):
    # Pinned outputs, each within rel 1e-15 of its 50-digit reference: -0.48527337786707282 and
    # 0.94675015704184008 at (2, 2) (reference_witness); -0.60474113463325076 and 0.78001439428504615
    # at (2, 3), where the gain reads the untrusted variances over the first 4 right singular vectors of C.
    # rel=1e-15 leaves room for a few ulps of the float state and of LAPACK variation across machines.
    witness = build_witness(fock_density(channel_covariance("loss", 0.4, param), 3, 3), *levels, B_TO_A)
    assert witness.gain == pytest.approx(gain, rel=1e-15, abs=0.0)
    assert witness.variance_sum == pytest.approx(variance_sum, rel=1e-15, abs=0.0)


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda rho: criterion_rhs(correlation_matrix(rho, 2, 2), "x"), "unknown direction 'x'"),
        (lambda rho: build_witness(rho, 2, 2, "x"), "unknown direction 'x'"),
        (lambda rho: correlation_matrix(rho, 2, 2, build_tloos(3)), "observable sets do not match the requested levels"),
    ],
    ids=["criterion_rhs", "build_witness", "correlation_matrix"],
)
def test_refuses_a_bad_direction_or_observable_set(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(lossy_density(0.4, 0.45))


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
    # trace_norm reads no observable set, so the rotated sets' own covariances and means are checked
    # against it and against Tr rho_A^2.
    rng = np.random.default_rng(4)
    rho = lossy_density(0.5, 0.5, 3)
    corr = correlation_matrix(rho, 3, 3)
    base = corr.trace_norm
    purity_a = np.trace(corr.reduced_a @ corr.reduced_a)
    tloos = build_tloos(3)
    for _ in range(20):
        rot_a = rotate_tloos(tloos, random_orthogonal(rng, 9))
        rot_b = rotate_tloos(tloos, random_orthogonal(rng, 9))
        rotated = correlation_matrix(rho, 3, 3, rot_a, rot_b)
        assert np.linalg.svd(rotated.entries, compute_uv=False).sum() == pytest.approx(base, abs=1e-10)
        assert (expectation_values(rotated.reduced_a, rot_a) ** 2).sum() == pytest.approx(purity_a, abs=1e-12)


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
        for factor, reduced, tloos in ((corr.trusted_factor_a(), corr.reduced_a, corr.tloos_a),
                                       (corr.trusted_factor_b(), corr.reduced_b, corr.tloos_b)):
            means = expectation_values(reduced, tloos)
            assert factor == pytest.approx(np.trace(reduced) - (means**2).sum(), abs=1e-15)


def test_trusted_factor_keeps_its_accuracy_near_vacuum():
    # 1 - p_0 is taken as nbar / (1 + nbar): the factor stays 2 nbar (1 - O(nbar)) where
    # weight - sum <A_j>^2 would round to 0.
    r = 1e-9
    corr = correlation_matrix(lossy_density(r, 0.5, 3), 3, 3)
    nbar_a, nbar_b = np.sinh(r) ** 2, 0.5 * np.sinh(r) ** 2
    assert corr.trusted_factor_a() == pytest.approx(2.0 * nbar_a, rel=1e-12)
    assert corr.trusted_factor_b() == pytest.approx(2.0 * nbar_b, rel=1e-12)
