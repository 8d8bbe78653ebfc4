import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import (
    hermite_coefficient,
    inverse_hermite_kernel,
    kraus_tmsv_elements,
    lossy_tmsv_element,
    reference_taylor_table,
    thermal_marginal,
)
from cvsteer import (
    FockDensity,
    apply_gain,
    apply_loss,
    channel_covariance,
    fock_density,
    fock_density_json,
    hermite_kernel,
    thermal_occupations,
    tmsv_covariance,
    TwoModeCovariance,
)
from cvsteer.fock import _exp_neg_quadratic, _json_indices, _sector_plan

COSH1 = 1.5430806348152437
SINH1 = 1.1752011936438014


def kernel_closed_form(a, b, c1, c2):
    """Explicit kernel entries as a function of the standard-form parameters."""
    d1 = (a + 1) * (b + 1) - c1**2
    d2 = (a + 1) * (b + 1) - c2**2
    at1 = (b + 1) * (c1**2 - c2**2) / (d1 * d2)
    at2 = -1 + (b + 1) * (2 * (a + 1) * (b + 1) - (c1**2 + c2**2)) / (d1 * d2)
    bt1 = (a + 1) * (c1**2 - c2**2) / (d1 * d2)
    bt2 = -1 + (a + 1) * (2 * (a + 1) * (b + 1) - (c1**2 + c2**2)) / (d1 * d2)
    ct1 = -((a + 1) * (b + 1) - c1 * c2) * (c1 + c2) / (d1 * d2)
    ct2 = -((a + 1) * (b + 1) + c1 * c2) * (c1 - c2) / (d1 * d2)
    return 0.5 * np.array(
        [
            [at1, ct1, at2, ct2],
            [ct1, bt1, ct2, bt2],
            [at2, ct2, at1, ct1],
            [ct2, bt2, ct1, bt1],
        ]
    )


def closed_form_table(r, eta):
    """The ten nonzero lossy-TMSV element families, written out explicitly.

    The (1,0,2,1) family carries sqrt(eta) * (1 - eta); a version without the
    sqrt(eta) factor would not vanish at full loss and is unphysical.
    """
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    table = {
        (0, 0, 0, 0): 2 / (ch + 1),
        (0, 0, 1, 1): 2 * math.sqrt(eta) * sh / (ch + 1) ** 2,
        (0, 0, 2, 2): 2 * eta * (ch - 1) / (ch + 1) ** 2,
        (1, 0, 1, 0): 2 * (1 - eta) * (ch - 1) / (ch + 1) ** 2,
        (1, 0, 2, 1): 2 * math.sqrt(2 * eta) * (1 - eta) * sh * (ch - 1) / (ch + 1) ** 3,
        (1, 1, 1, 1): 2 * eta * (ch - 1) / (ch + 1) ** 2,
        (1, 1, 2, 2): 2 * eta**1.5 * sh**3 / (ch + 1) ** 4,
        (2, 0, 2, 0): 2 * (1 - eta) ** 2 * (ch - 1) ** 2 / (ch + 1) ** 3,
        (2, 1, 2, 1): 4 * eta * (1 - eta) * (ch - 1) ** 2 / (ch + 1) ** 3,
        (2, 2, 2, 2): 2 * eta**2 * (ch - 1) ** 2 / (ch + 1) ** 3,
    }
    # Transposed partners share the value (real symmetric state).
    for (m1, m2, n1, n2), val in list(table.items()):
        table[(n1, n2, m1, m2)] = val
    return table


# ---------------------------------------------------------------- kernel


def test_kernel_matches_closed_form():
    cases = [
        apply_loss(tmsv_covariance(0.5), 0.5, "B"),
        apply_loss(tmsv_covariance(1.1), 0.2, "B"),
        apply_gain(tmsv_covariance(0.6), 1.2, "B"),
        TwoModeCovariance(1.8, 1.4, 0.6),
    ]
    for cov in cases:
        expected = kernel_closed_form(cov.a, cov.b, cov.c, cov.c)
        np.testing.assert_allclose(hermite_kernel(cov), expected, atol=1e-10)


@pytest.mark.parametrize("channel, params", [("loss", (1e-6, 0.05, 0.5, 1.0)), ("gain", (1.0, 1.7, 10.0))])
def test_kernel_matches_the_inverse(channel, params):
    # The closed form against the inverse of gamma + I, in doubles and at 50 digits from the
    # same float (a, b, c); beyond r = 1.4 the kernel's conditioning in those floats grows
    # as c^2 / ((a + 1)(b + 1) - c^2), about 1e4 at r = 5.
    for r in (1e-9, 0.05, 0.3, 0.8, 1.4, 2.5, 3.7, 5.0):
        batch = channel_covariance(channel, np.full(len(params), r), np.array(params))
        bound = 1e-15 if r <= 1.4 else 2e-12
        for param, gamma, kernel in zip(params, batch.matrix(), hermite_kernel(batch)):
            assert np.abs(kernel - inverse_hermite_kernel(gamma, digits=50)).max() <= bound, (r, param)
            assert np.abs(kernel - inverse_hermite_kernel(gamma)).max() <= bound, (r, param)


def test_kernel_tmsv_structure():
    r = 0.5
    kernel = hermite_kernel(tmsv_covariance(r))
    coupling = -SINH1 / (COSH1 + 1) / 2
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = coupling
    expected[2, 3] = expected[3, 2] = coupling
    np.testing.assert_allclose(kernel, expected, atol=1e-12)


def test_kernel_lossy_structure():
    r, eta = 0.5, 0.5
    kernel = hermite_kernel(apply_loss(tmsv_covariance(r), eta, "B"))
    coupling = -math.sqrt(eta) * SINH1 / (COSH1 + 1) / 2
    cross = -(1 - eta) * (COSH1 - 1) / (COSH1 + 1) / 2
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = coupling
    expected[2, 3] = expected[3, 2] = coupling
    expected[0, 2] = expected[2, 0] = cross
    np.testing.assert_allclose(kernel, expected, atol=1e-12)


def test_kernel_vacuum_is_zero():
    np.testing.assert_allclose(hermite_kernel(tmsv_covariance(0.0)), np.zeros((4, 4)), atol=1e-14)


# ------------------------------------------------------- hermite values


def test_hermite_zero_orders():
    kernel = hermite_kernel(tmsv_covariance(0.7))
    assert hermite_coefficient(kernel, (0, 0, 0, 0)) == pytest.approx(1.0, abs=1e-14)


def test_hermite_zero_kernel():
    zero = np.zeros((4, 4))
    for orders in [(1, 0, 0, 0), (1, 1, 0, 0), (2, 2, 2, 2)]:
        assert hermite_coefficient(zero, orders) == 0.0


def test_hermite_order_guard():
    kernel = np.zeros((4, 4))
    with pytest.raises(ValueError):
        hermite_coefficient(kernel, (7, 0, 0, 0))
    with pytest.raises(ValueError):
        hermite_coefficient(kernel, (0, -1, 0, 0))


def test_hermite_against_sympy():
    import sympy as sp

    entries = [
        [sp.Rational(1, 2), sp.Rational(-1, 3), sp.Rational(1, 5), sp.Rational(0)],
        [sp.Rational(-1, 3), sp.Rational(1, 4), sp.Rational(0), sp.Rational(2, 7)],
        [sp.Rational(1, 5), sp.Rational(0), sp.Rational(-1, 6), sp.Rational(1, 9)],
        [sp.Rational(0), sp.Rational(2, 7), sp.Rational(1, 9), sp.Rational(3, 8)],
    ]
    y = sp.symbols("y1 y2 y3 y4")
    quad = sum(entries[i][j] * y[i] * y[j] for i in range(4) for j in range(4))
    kernel = np.array([[float(v) for v in row] for row in entries])
    for orders in [(1, 1, 0, 0), (2, 0, 0, 0), (2, 1, 1, 0), (1, 1, 1, 1), (2, 2, 1, 1)]:
        total = sum(orders)
        series = sum((-quad) ** k / sp.factorial(k) for k in range(total // 2 + 1))
        monomial = sp.prod(y[i] ** orders[i] for i in range(4))
        coeff = sp.expand(series).coeff(y[0], orders[0]).coeff(y[1], orders[1])
        coeff = coeff.coeff(y[2], orders[2]).coeff(y[3], orders[3])
        fac = math.prod(math.factorial(o) for o in orders)
        expected = (-1) ** total * fac * float(coeff)
        assert hermite_coefficient(kernel, orders) == pytest.approx(expected, abs=1e-12), orders


def test_taylor_table_against_sympy_at_mixed_degrees():
    # A symmetric kernel with every entry nonzero checks the general-kernel reference (no
    # covariance in scope has one), and a kernel with hermite_kernel's structure, its three
    # couplings u, v, x all nonzero, checks the sector sum; a different degree on every axis.
    import sympy as sp

    general = np.array([
        [0.125, -0.375, 0.25, 0.0625],
        [-0.375, -0.1875, 0.5, -0.25],
        [0.25, 0.5, 0.3125, -0.125],
        [0.0625, -0.25, -0.125, 0.4375],
    ])
    in_scope = np.array([
        [0.0, -0.1875, -0.125, 0.0],
        [-0.1875, 0.0, 0.0, -0.3125],
        [-0.125, 0.0, 0.0, -0.1875],
        [0.0, -0.3125, -0.1875, 0.0],
    ])
    degrees = (3, 1, 2, 2)
    y = sp.symbols("y1:5")
    for kernel, taylor_table, nonzero in ((general, reference_taylor_table, 30), (in_scope, _exp_neg_quadratic, 12)):
        quad = sum(sp.Rational(float(kernel[i, j])) * y[i] * y[j] for i in range(4) for j in range(4))
        series = sp.Poly(sum((-quad) ** k / sp.factorial(k) for k in range(sum(degrees) // 2 + 1)), *y)
        expected = np.zeros(tuple(d + 1 for d in degrees))
        for powers, coeff in series.terms():
            if all(p <= d for p, d in zip(powers, degrees)):
                expected[powers] = float(coeff)
        assert np.count_nonzero(expected) > nonzero
        np.testing.assert_allclose(taylor_table(kernel, degrees), expected, rtol=0, atol=1e-14)


def test_sector_sum_matches_the_general_recurrence():
    # Every kernel structure a covariance in scope gives: one coupling zero up to rounding
    # (loss or gain on one mode), all three nonzero (loss on both modes, gain after loss, a
    # general (a, b, c)), and no u (thermal, c = 0); up to r = 5 at cutoffs (7, 7).
    for r in (1e-9, 0.05, 0.3, 0.8, 1.4, 2.5, 3.7, 5.0):
        vacuum = tmsv_covariance(r)
        states = [apply_loss(vacuum, 0.3, mode) for mode in "AB"] + [apply_gain(vacuum, 1.7, mode) for mode in "AB"]
        states += [
            apply_loss(apply_loss(vacuum, 0.4, "A"), 0.6, "B"),
            apply_gain(apply_loss(vacuum, 0.5, "B"), 2.0, "B"),
            apply_gain(vacuum, 10.0, "B"),
            TwoModeCovariance(vacuum.a, 2.0, 0.0),
            TwoModeCovariance(1.8, 1.3, 0.7),
        ]
        for cov in states:
            kernel = hermite_kernel(cov)
            for degrees in ((6, 6, 6, 6), (3, 1, 2, 2), (2, 5, 2, 5), (0, 0, 0, 0)):
                reference = reference_taylor_table(kernel, degrees)
                error = np.abs(_exp_neg_quadratic(kernel, degrees) - reference)
                assert np.all(error <= 1e-15 * np.maximum(1.0, np.abs(reference))), (r, cov, degrees)


def test_hermite_consistent_with_element():
    # Orders (1,1,0,0) reproduce the (1,1,0,0) element through the prefactor.
    r = 0.5
    cov = tmsv_covariance(r)
    kernel = hermite_kernel(cov)
    h = hermite_coefficient(kernel, (1, 1, 0, 0))
    prefactor = 4.0 / math.sqrt(np.linalg.det(cov.matrix() + np.eye(4)))
    rho = fock_density(cov, 2, 2)
    assert prefactor * h / math.sqrt(1) == pytest.approx(rho.elements[1, 1, 0, 0], abs=1e-12)


# ------------------------------------------------------- fock density


def test_vacuum_density():
    rho = fock_density(tmsv_covariance(0.0), 3, 3)
    expected = np.zeros((3, 3, 3, 3))
    expected[0, 0, 0, 0] = 1.0
    np.testing.assert_allclose(rho.elements, expected, atol=1e-12)
    assert rho.trace_weight == pytest.approx(1.0, abs=1e-12)


def test_lossy_frozen_values():
    rho = fock_density(apply_loss(tmsv_covariance(0.5), 0.5, "B"), 3, 3)
    assert rho.elements[0, 0, 0, 0] == pytest.approx(0.7864477329659274, abs=1e-12)
    assert rho.elements[0, 0, 1, 1] == pytest.approx(0.25698451801151234, abs=1e-12)
    assert rho.elements[1, 0, 1, 0] == pytest.approx(0.08397384813934036, abs=1e-12)
    assert rho.elements[1, 0, 2, 1] == pytest.approx(0.03880575598633573, abs=1e-12)


def test_density_matches_closed_form_table():
    for r in (0.3, 0.8):
        for eta in (0.25, 0.7):
            rho = fock_density(apply_loss(tmsv_covariance(r), eta, "B"), 3, 3)
            table = closed_form_table(r, eta)
            for idx in np.ndindex(3, 3, 3, 3):
                expected = table.get(idx, 0.0)
                assert rho.elements[idx] == pytest.approx(expected, abs=1e-12), idx


def test_closed_form_element_matches_table():
    for r in (0.3, 0.8):
        for eta in (0.25, 0.7):
            table = closed_form_table(r, eta)
            for idx in np.ndindex(3, 3, 3, 3):
                expected = table.get(idx, 0.0)
                assert lossy_tmsv_element(r, eta, idx) == pytest.approx(expected, abs=1e-14), idx


def test_closed_form_zero_complement():
    assert lossy_tmsv_element(0.7, 0.4, (0, 1, 0, 1)) == 0.0
    assert lossy_tmsv_element(0.7, 0.4, (0, 0, 1, 0)) == 0.0
    assert lossy_tmsv_element(0.0, 0.5, (0, 0, 0, 0)) == 1.0


def test_closed_form_index_guard():
    with pytest.raises(ValueError):
        lossy_tmsv_element(0.5, 0.5, (3, 0, 0, 0))
    with pytest.raises(ValueError):
        lossy_tmsv_element(0.5, 0.5, (0, 0, -1, 0))


def test_batched_density_matches_each_state():
    # A vacuum (zero kernel, expansion ends at once), a pure squeezed vacuum
    # and lossy/amplified states share one batch; every state must come out
    # exactly as it does on its own at any cutoff.
    states = [
        tmsv_covariance(0.0),
        tmsv_covariance(0.6),
        apply_loss(tmsv_covariance(0.9), 0.3, "B"),
        apply_gain(tmsv_covariance(0.4), 1.7, "B"),
        TwoModeCovariance(1.8, 1.3, 0.7),
    ]
    fields = [f.name for f in dataclasses.fields(TwoModeCovariance)]
    batch = TwoModeCovariance(**{f: np.array([getattr(c, f) for c in states]) for f in fields})
    for n_a, n_b in itertools.product(range(1, 8), repeat=2):
        rho = fock_density(batch, n_a, n_b)
        assert rho.elements.shape == (len(states), n_a, n_b, n_a, n_b)
        for i, cov in enumerate(states):
            single = fock_density(cov, n_a, n_b)
            assert np.array_equal(rho.elements[i], single.elements)
            assert np.array_equal(rho.reduced_a[i], single.reduced_a)
            assert np.array_equal(rho.reduced_b[i], single.reduced_b)
            assert (rho.excited_a[i], rho.excited_b[i]) == (single.excited_a, single.excited_b)
            assert rho.trace_weight[i] == single.trace_weight


@pytest.mark.parametrize("channel, params", [("loss", [0.5, 0.05, 0.9, 0.45]), ("gain", [1.5, 1.01, 3.0, 1.2])])
def test_fock_density_is_zero_off_the_sector_and_says_so(channel, params):
    # The TLOO trace norm takes its closed forms on the sector flag alone, without reading the cells
    # off m1 - m2 = n1 - n2, so every fock_density state must carry the flag and exact zeros there.
    rs = [0.0, 0.3, 1.4, 5.0]
    for n_a, n_b in itertools.product(range(1, 8), repeat=2):
        m1, m2, n1, n2 = np.indices((n_a, n_b, n_a, n_b), sparse=True)
        off = m1 - m2 != n1 - n2
        batch = fock_density(channel_covariance(channel, np.array(rs), np.array(params)), n_a, n_b)
        singles = [fock_density(channel_covariance(channel, r, p), n_a, n_b) for r, p in zip(rs, params)]
        for rho in (batch, *singles):
            assert rho.sector is True
            assert not rho.elements[..., off].any()


def test_writing_into_a_result_leaves_the_next_call_unchanged():
    # The cutoff plan is cached: nothing a caller receives may share memory with it.
    cov = apply_gain(tmsv_covariance(0.6), 1.4, "B")
    for n_a, n_b in ((1, 1), (2, 3), (7, 7)):
        expected, expected_json = fock_density(cov, n_a, n_b), fock_density_json(fock_density(cov, n_a, n_b))
        rho = fock_density(cov, n_a, n_b)
        for array in (rho.elements, rho.reduced_a, rho.reduced_b):
            array[...] = -1.0
        for entry in fock_density_json(rho)["elements"]:
            entry["idx"][:] = [-1, -1, -1, -1]
        again = fock_density(cov, n_a, n_b)
        for field in ("elements", "reduced_a", "reduced_b"):
            assert np.array_equal(getattr(again, field), getattr(expected, field)), field
        assert fock_density_json(again) == expected_json


def test_cached_plans_are_read_only():
    fock_density_json(fock_density(tmsv_covariance(0.5), 2, 3))
    cells, starts, orders, factorials, roots, eyes = _sector_plan((2, 3, 2, 3))
    for array in (*cells, starts, orders, factorials, roots, *eyes, _json_indices((2, 3, 2, 3))):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@pytest.mark.parametrize("channel, params", [("loss", (0.05, 0.5, 1.0)), ("gain", (1.0, 1.7, 10.0))])
def test_top_cutoff_density_matches_the_kraus_closed_form(channel, params):
    # Every element at cutoffs (7, 7), the cutoff guard's limit, against the Kraus sum,
    # over the documented squeezing range.
    for r in (0.02, 0.6, 1.3, 2.5, 3.7, 5.0):
        rho = fock_density(channel_covariance(channel, np.full(3, r), np.array(params)), 7, 7)
        for i, param in enumerate(params):
            reference = kraus_tmsv_elements(channel, r, param, 7, 7).astype(float)
            assert np.abs(rho.elements[i] - reference).max() <= 1e-12, (r, param)


def test_batched_density_rejects_one_unphysical_state():
    batch = TwoModeCovariance(np.array([1.0, 0.5]), np.array([1.0, 0.5]), np.zeros(2))
    with pytest.raises(ValueError, match="uncertainty relation"):
        fock_density(batch, 2, 2)


def test_density_hermitian():
    # correlation_matrix takes the joint expectations to be real, and checks nothing: the table must be
    # exactly symmetric under (m1, m2) <-> (n1, n2), for a batch and for each state on its own.
    rs = np.array([1e-9, 0.5, 5.0])
    for (channel, param), cutoffs in itertools.product([("loss", 0.4), ("gain", 1.5)], [(3, 3), (2, 5), (7, 7)]):
        batch = fock_density(channel_covariance(channel, rs, np.full(rs.size, param)), *cutoffs)
        singles = [fock_density(channel_covariance(channel, r, param), *cutoffs) for r in rs]
        for elements in [batch.elements, *(rho.elements for rho in singles)]:
            assert np.array_equal(elements, elements.swapaxes(-4, -2).swapaxes(-3, -1))


def test_selection_rule_loss():
    rho = fock_density(apply_loss(tmsv_covariance(0.7), 0.35, "B"), 4, 4)
    for m1, m2, n1, n2 in np.ndindex(4, 4, 4, 4):
        if m1 - n1 != m2 - n2:
            assert abs(rho.elements[m1, m2, n1, n2]) < 1e-12


def test_selection_rule_gain():
    rho = fock_density(apply_gain(tmsv_covariance(0.3), 1.1, "B"), 3, 3)
    for m1, m2, n1, n2 in np.ndindex(3, 3, 3, 3):
        if m1 - n1 != m2 - n2:
            assert abs(rho.elements[m1, m2, n1, n2]) < 1e-12


def test_truncated_positivity():
    for cov in (
        apply_loss(tmsv_covariance(0.9), 0.45, "B"),
        apply_gain(tmsv_covariance(0.4), 1.3, "B"),
    ):
        rho = fock_density(cov, 4, 4)
        matrix = rho.elements.reshape(16, 16)
        assert np.linalg.eigvalsh(matrix)[0] >= -1e-9
        assert np.diagonal(matrix).min() >= -1e-12


def test_trace_weight_bounds():
    for r in (0.0, 0.3, 1.0):
        rho = fock_density(apply_loss(tmsv_covariance(r), 0.5, "B"), 3, 3)
        assert -1e-12 <= rho.trace_weight <= 1.0 + 1e-9
    assert fock_density(tmsv_covariance(1e-8), 2, 2).trace_weight == pytest.approx(1.0, abs=1e-9)


def test_density_guards():
    cov = tmsv_covariance(0.5)
    with pytest.raises(ValueError):
        fock_density(cov, 0, 2)
    with pytest.raises(ValueError):
        fock_density(cov, 8, 2)
    with pytest.raises(ValueError):
        fock_density(TwoModeCovariance(0.5, 0.5, 0.0), 2, 2)


def test_from_elements_partial_traces():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6))
    block = m @ m.T
    block /= np.trace(block)
    rho = FockDensity.from_elements(block.reshape(2, 3, 2, 3))
    np.testing.assert_allclose(
        rho.reduced_a, np.einsum("mknk->mn", block.reshape(2, 3, 2, 3)), atol=1e-14
    )
    assert rho.trace_weight == pytest.approx(1.0, abs=1e-12)


def _elements(entries, dtype=float):
    elements = np.zeros((2, 2, 2, 2), dtype=dtype)
    for idx, value in entries.items():
        elements[idx] = value
    return elements


@pytest.mark.parametrize(
    "elements, match",
    [
        (np.zeros((2, 2, 2)), "expected shape"),
        (np.zeros((2, 3, 3, 2)), "expected shape"),
        (_elements({(0, 1, 1, 0): 1e-3}), "not symmetric"),
        (_elements({(0, 1, 1, 0): np.nan, (1, 0, 0, 1): np.nan}), "not symmetric"),
        # Hermitian but complex: a cast to float would drop the coherence and keep the symmetry.
        (_elements({(0, 0, 0, 0): 0.5, (1, 1, 1, 1): 0.5, (0, 0, 1, 1): 0.5j, (1, 1, 0, 0): -0.5j}, complex), "must be real"),
    ],
)
def test_from_elements_rejections(elements, match):
    with pytest.raises(ValueError, match=match):
        FockDensity.from_elements(elements)


# ------------------------------------------------------- thermal marginals


def test_thermal_marginal_frozen_value():
    assert thermal_marginal(0.5, 0.5, 0) == pytest.approx(0.8804598292503497, abs=1e-12)


def test_thermal_marginal_vacuum():
    assert thermal_marginal(0.0, 0.7, 0) == pytest.approx(1.0, abs=1e-14)
    assert thermal_marginal(0.0, 0.7, 1) == 0.0


def test_thermal_occupations_normalise():
    occ = thermal_occupations(0.4, 60)
    assert occ.sum() == pytest.approx(1.0, abs=1e-9)


def test_thermal_marginal_matches_partial_trace():
    # Small squeezing keeps the mode-A tail beyond cutoff 7 under 1e-7.
    for r in (0.1, 0.2, 0.3):
        for eta in (0.3, 0.6, 0.9):
            rho = fock_density(apply_loss(tmsv_covariance(r), eta, "B"), 7, 3)
            for k in range(3):
                traced = rho.elements[:, k, :, k].trace()
                assert thermal_marginal(r, eta, k) == pytest.approx(traced, abs=1e-6)


def test_thermal_marginal_guards():
    with pytest.raises(ValueError):
        thermal_marginal(0.5, 0.5, 3)
    with pytest.raises(ValueError):
        thermal_marginal(0.5, 0.0, 1)


def test_reduced_states_are_thermal():
    cov = apply_loss(tmsv_covariance(0.5), 0.5, "B")
    rho = fock_density(cov, 3, 3)
    for k in range(3):
        assert rho.reduced_b[k, k] == pytest.approx(thermal_marginal(0.5, 0.5, k), abs=1e-12)
        assert rho.reduced_a[k, k] == pytest.approx(thermal_marginal(0.5, 1.0, k), abs=1e-12)


# ------------------------------------------------------- serialisation


def test_fock_density_json_schema():
    rho = fock_density(tmsv_covariance(0.0), 2, 2)
    payload = fock_density_json(rho)
    assert payload["cutoffs"] == [2, 2]
    assert len(payload["elements"]) == 1
    entry = payload["elements"][0]
    assert entry["idx"] == [0, 0, 0, 0]
    assert entry["val"] == pytest.approx(1.0, abs=1e-12)


def test_fock_density_json_threshold():
    rho = fock_density(apply_loss(tmsv_covariance(0.5), 0.5, "B"), 3, 3)
    payload = fock_density_json(rho)
    for entry in payload["elements"]:
        assert abs(entry["val"]) > 1e-14
        assert rho.elements[tuple(entry["idx"])] == pytest.approx(entry["val"])
    kept = {tuple(entry["idx"]) for entry in payload["elements"]}
    for idx in np.ndindex(3, 3, 3, 3):
        if abs(rho.elements[idx]) > 1e-14:
            assert idx in kept


def _off_sector_elements():
    # Symmetric under (m1, m2) <-> (n1, n2), with non-zero cells off m1 - m2 = n1 - n2 (the first three).
    elements = np.zeros((2, 3, 2, 3))
    for idx, value in {(0, 1, 1, 0): 0.125, (0, 2, 1, 1): -3e-14, (1, 0, 0, 2): 0.25, (0, 0, 0, 0): 0.5,
                       (1, 2, 1, 2): 5e-15, (1, 1, 0, 0): -0.0625}.items():
        elements[idx] = elements[idx[2:] + idx[:2]] = value
    return elements


@pytest.mark.parametrize("make", [
    lambda: FockDensity.from_elements(_off_sector_elements()),
    # A bare FockDensity whose elements are a non-contiguous view.
    lambda: FockDensity(_off_sector_elements().transpose(1, 0, 3, 2), np.eye(3), np.eye(2)),
])
def test_fock_density_json_lists_every_cell_above_threshold_in_c_order(make):
    rho = make()
    elements = rho.elements
    payload = fock_density_json(rho, 1e-14)
    expected = np.argwhere(np.abs(elements) > 1e-14)
    assert payload["cutoffs"] == list(elements.shape[:2])
    assert [entry["idx"] for entry in payload["elements"]] == expected.tolist()
    for entry in payload["elements"]:
        assert all(type(i) is int for i in entry["idx"])
        assert type(entry["val"]) is float and entry["val"] == float(elements[tuple(entry["idx"])])


def test_fock_density_json_refuses_a_batch():
    rho = fock_density(apply_loss(tmsv_covariance(np.array([0.3, 0.5])), np.array([0.5, 0.5]), "B"), 2, 2)
    with pytest.raises(ValueError, match=r"\(2, 2, 2, 2, 2\)"):
        fock_density_json(rho)
