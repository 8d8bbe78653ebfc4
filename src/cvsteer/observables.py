"""Truncated local orthogonal observables (TLOOs) and their uncertainty bound.

For a truncation to the lowest n Fock levels, the n^2 observables are the level
projectors |k><k|, the symmetric pair operators (|k><l| + |l><k|)/sqrt(2) and
the antisymmetric pair operators (|k><l| - |l><k|)/(sqrt(2) i), k < l.  They
are orthonormal under the trace inner product and their squares sum to n times
the truncated identity, which forces the variance sum of any state to be at
least (n - 1) times its weight on the truncated levels.

Canonical ordering (fixed so correlation-matrix indices are reproducible):
projectors by ascending level, then symmetric pairs (k, l) in row-major order,
then antisymmetric pairs in the same order.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class TlooSet:
    """Ordered set of the n^2 truncated local orthogonal observables.

    Contract: the set is complete, an orthonormal Hermitian basis of the n x n
    operators, so sum_j A_j^2 = n * 1 and sum_j <A_j>^2 = Tr rho^2 on any
    truncated state rho: its variance sum is n Tr rho - Tr rho^2 whatever the
    basis.  build_tloos and rotate_tloos keep it; criterion_rhs, optimal_gain
    and paired_variance_sum rely on it and do not check it.
    """

    level: int
    matrices: np.ndarray  # shape (level**2, level, level), complex Hermitian

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def pair_labels(self) -> list[str]:
        """Human-readable labels in canonical order (diagnostics only)."""
        n = self.level
        labels = [f"proj{k}" for k in range(n)]
        labels += [f"sym{k}{l}" for k in range(n) for l in range(k + 1, n)]
        labels += [f"asym{k}{l}" for k in range(n) for l in range(k + 1, n)]
        return labels


@lru_cache(maxsize=None)
def build_tloos(n: int) -> TlooSet:
    """Construct the canonical n-level TLOO set (n >= 2)."""
    if n < 2:
        raise ValueError(f"truncation level must be >= 2, got {n}")
    # Canonical order: projectors, then the symmetric and antisymmetric pairs (k, l), k < l, row-major.
    k, l = np.triu_indices(n, 1)
    sym, asym = n + np.arange(k.size), n + k.size + np.arange(k.size)
    stack = np.zeros((n * n, n, n), dtype=complex)
    stack[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    stack[sym, k, l] = stack[sym, l, k] = 1.0 / _SQRT2
    stack[asym, k, l] = -1.0j / _SQRT2
    stack[asym, l, k] = 1.0j / _SQRT2
    stack.setflags(write=False)
    return TlooSet(n, stack)


def expectation_values(state: np.ndarray, tloos: TlooSet) -> np.ndarray:
    """<A_j> for every observable, one row per state of a batch; real for Hermitian states."""
    state = _check_state(state, tloos)
    return np.einsum("...ab,jba->...j", state, tloos.matrices).real


def uncertainty_sum(state: np.ndarray, tloos: TlooSet) -> tuple[float, float]:
    """Variance sum and its lower bound for a truncated single-mode state.

    Returns (sum of variances, (n - 1) * weight); every physical state
    satisfies sum >= bound, with equality exactly for pure states supported
    inside the truncation.  The state may carry weight below 1 (truncation of
    a larger state).
    """
    state = _check_state(state, tloos)
    weight = float(np.trace(state).real)
    if not weight <= 1.0 + 1e-9:  # NaN included
        raise ValueError(f"state weight must be at most 1, got {weight}")
    return float(_variances(state, tloos).sum()), float((tloos.level - 1) * weight)


def _variances(state: np.ndarray, tloos: TlooSet) -> np.ndarray:
    """Var(A_j) = <A_j^2> - <A_j>^2 for every observable, from the explicit squares."""
    second = np.einsum("...ab,jba->...j", state, tloos.matrices @ tloos.matrices).real
    return second - expectation_values(state, tloos) ** 2


def rotate_tloos(tloos: TlooSet, rotation: np.ndarray) -> TlooSet:
    """Mix the set by an orthogonal n^2 x n^2 matrix: A~_j = sum_l O_jl A_l.

    Orthogonal mixing preserves orthonormality, the completeness sum and the
    sum of squared expectation values on every state.
    """
    rotation = np.asarray(rotation, dtype=float)
    size = len(tloos)
    if rotation.shape != (size, size):
        raise ValueError(f"rotation must be {size}x{size}, got {rotation.shape}")
    if not np.abs(rotation.T @ rotation - np.eye(size)).max() <= 1e-10:  # NaN included
        raise ValueError("rotation matrix is not orthogonal")
    mixed = np.einsum("jl,lab->jab", rotation, tloos.matrices)
    return TlooSet(tloos.level, mixed)


def _check_state(state: np.ndarray, tloos: TlooSet) -> np.ndarray:
    state = np.asarray(state)
    n = tloos.level
    if state.shape[-2:] != (n, n):
        raise ValueError(f"state must be {n}x{n} to match the observable set, got {state.shape}")
    return state
