"""Qubit-probe weak-measurement scheme for the Margenau-Hill table.

One row of the table at a time: couple the system projector
Pi = |i_C i_H><i_C i_H| to a qubit ancilla prepared in
cos(eps)|0> - sin(eps)|1> through V = Pi_perp x I + Pi x sigma_z, run the
dynamics, then measure the ancilla in the |+->/|-> basis and the system
in the energy basis.  Together with a second, probe-free run the signed
outcome difference reconstructs the quasiprobability exactly at any
finite coupling:

    p_W[f] = (q_plus[f] - q_minus[f]) / (2 sin 2eps) + p_free[f] / 2.

Sampling draws each run's outcome counts with one multinomial call on a
counter-based generator (Philox) seeded from (seed, run), so the counts
are a function of (seed, probabilities, n_shots) alone, reproducible
under any evaluation order, and cost O(d) time and memory at any n_shots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import unwrap
from .linalg import kron
from .states import BipartiteSystem

_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
MAX_SHOTS = np.iinfo(np.int64).max  # the multinomial counts are int64
OUTCOMES = ("q_plus", "q_minus", "p_undisturbed")  # the outcome probabilities of ``ProbeOutcomeStats``, in order


@dataclass(frozen=True)
class ProbeOutcomeStats:
    """Exact outcome probabilities of the probe and probe-free runs."""

    target: tuple[int, int]
    eps: float
    q_plus: np.ndarray  # (d_C, d_H), joint prob of ancilla + and final f
    q_minus: np.ndarray
    p_undisturbed: np.ndarray  # (d_C, d_H), probe-free final distribution
    energies_c: tuple[float, ...]
    energies_h: tuple[float, ...]

    def __post_init__(self):
        arrays = [np.array(getattr(self, name), dtype=float) for name in OUTCOMES]
        _check_outcomes(*(arr.reshape(1, -1) for arr in arrays))
        for name, arr in zip(OUTCOMES, arrays):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _check_outcomes(q_plus, q_minus, p_free) -> None:
    """Raise the first failed check of ``ProbeOutcomeStats``, in its order,
    of the first row of the outcome probabilities (n, D) that fails one."""
    failed = [(x.min(axis=-1) < -1e-12) | (x.max(axis=-1) > 1.0 + 1e-12) for x in (q_plus, q_minus, p_free)]
    failed += [np.abs(q_plus.sum(axis=-1) + q_minus.sum(axis=-1) - 1.0) > 1e-10, np.abs(p_free.sum(axis=-1) - 1.0) > 1e-10]
    if np.any(failed):
        messages = [f"{name} entries outside [0, 1]" for name in OUTCOMES] + [f"probe-{run} probabilities do not sum to 1" for run in ("run", "free")]
        raise ValueError(messages[np.array(failed)[:, np.any(failed, axis=0).argmax()].argmax()])


def probe_statistics(
    sys: BipartiteSystem, u, target: tuple[int, int], eps: float
) -> ProbeOutcomeStats:
    """Exact joint outcome statistics from the full system+ancilla evolution:
    ``probe_stack`` on one row."""
    if not 0.0 < eps < 0.5 * np.pi:
        raise ValueError("coupling angle must lie strictly between 0 and pi/2")
    d_c, d_h = sys.dims
    i_c, i_h = target
    if not (0 <= i_c < d_c and 0 <= i_h < d_h):
        raise ValueError(f"target {target} out of range for dims {sys.dims}")
    rows = (x.reshape(d_c, d_h) for x in probe_stack(sys.rho[None], unwrap(u)[None], i_c * d_h + i_h, eps))
    return ProbeOutcomeStats((i_c, i_h), float(eps), *rows, sys.spectrum_c.levels, sys.spectrum_h.levels)


def probe_stack(rho, u, idx, eps: float):
    """(q_plus, q_minus, p_free), each (n, D): the outcome probabilities of
    ``probe_statistics`` for the states rho and unitaries u (n, D, D), the
    joint target index idx (one, or one per row) and one coupling eps in
    (0, pi/2), each row its one-row values bit for bit.  Raises the first
    failed check of ``ProbeOutcomeStats`` of the first row that fails one."""
    n, dim = rho.shape[:2]
    p_free = np.real((u @ rho @ u.conj().swapaxes(1, 2)).diagonal(axis1=1, axis2=2))
    ancilla = np.array([np.cos(eps), -np.sin(eps)], dtype=complex)
    joint = kron(rho, np.outer(ancilla, ancilla.conj()))
    # V = Pi_perp x I + Pi x sigma_z is diagonal with its one -1 at (target,
    # ancilla |1>), so V joint V^dag flips the sign of that row and column;
    # the result equals the dense products bit for bit
    rows, flip = np.arange(n), 2 * np.asarray(idx) + 1
    joint[rows, flip, :] *= -1.0
    joint[rows, :, flip] *= -1.0
    u_joint = kron(u, np.eye(2))
    # the 2D x 2D operands are freed or reused as soon as they are spent:
    # U_joint^dag is U_joint conjugated in place and seen transposed, the
    # same operand (and BLAS call per matrix) as u_joint.conj().T
    evolved = u_joint @ joint
    del joint
    np.conjugate(u_joint, out=u_joint)
    evolved = evolved @ u_joint.swapaxes(1, 2)
    # the 2 x 2 ancilla block of each outcome f, (n, D, 2, 2), seen in place
    blocks = evolved.reshape(n, dim, 2, dim, 2).diagonal(axis1=1, axis2=3).transpose(0, 3, 1, 2)
    q_plus, q_minus = (np.real((v.conj() @ blocks)[..., None, :] @ v[:, None])[..., 0, 0] for v in (_PLUS, _MINUS))
    _check_outcomes(q_plus, q_minus, p_free)
    return q_plus, q_minus, p_free


def probe_effects(eps: float, dim: int, idx: int) -> tuple[np.ndarray, np.ndarray]:
    """POVM elements of the ancilla outcomes on the system.

    E_pm = (1 -+ sin 2eps) I/2 +- sin 2eps Pi; they sum to the identity.
    """
    s = np.sin(2.0 * eps)
    pi_op = np.zeros((dim, dim), dtype=complex)
    pi_op[idx, idx] = 1.0
    eye = np.eye(dim, dtype=complex)
    e_plus = (1.0 - s) * eye / 2.0 + s * pi_op
    e_minus = (1.0 + s) * eye / 2.0 - s * pi_op
    return e_plus, e_minus


def _reconstruction(eps: float, plus, minus, free):
    """(p_W, sin 2eps): the reconstruction formula of the module docstring,
    elementwise over outcome probabilities or frequencies."""
    s2 = np.sin(2.0 * eps)
    if s2 <= 1e-9:
        raise ValueError("sin(2 eps) too small; reconstruction ill-conditioned")
    return (plus - minus) / (2.0 * s2) + free / 2.0, s2


def reconstruct_quasiprobability(stats: ProbeOutcomeStats) -> np.ndarray:
    """Exact reconstruction of the targeted MH row, any admissible eps."""
    return _reconstruction(stats.eps, stats.q_plus, stats.q_minus, stats.p_undisturbed)[0]


def _counts(probs: np.ndarray, n_shots: int, bit_gen) -> np.ndarray:
    """Multinomial counts of ``n_shots`` outcomes, by one ``multinomial`` call.

    The entries in [-1e-12, 0) that ``ProbeOutcomeStats`` admits count as
    0, and only the outcomes of positive probability are drawn, normalised
    to sum to 1, so an outcome of probability 0 is never drawn.
    """
    probs = np.clip(probs, 0.0, None)
    drawn = probs > 0.0
    counts = np.zeros(probs.size, dtype=np.int64)
    counts[drawn] = np.random.Generator(bit_gen).multinomial(n_shots, probs[drawn] / probs[drawn].sum())
    return counts


@dataclass(frozen=True)
class SampledReconstruction:
    """Finite-statistics reconstruction with per-entry standard errors."""

    values: np.ndarray  # (d_C, d_H)
    stderr: np.ndarray
    n_shots: int
    seed: int
    f_plus: np.ndarray | None = None  # empirical outcome frequencies
    f_minus: np.ndarray | None = None
    f_free: np.ndarray | None = None


def sampled_reconstruction(
    stats: ProbeOutcomeStats, n_shots: int, seed: int
) -> SampledReconstruction:
    """Reconstruct from multinomial samples of both runs.

    The probe run samples the 2*d outcomes (ancilla sign, final state);
    the probe-free run samples the d final states.  Standard errors
    combine the multinomial variances of both runs and shrink as
    n_shots^(-1/2).
    """
    if not 1 <= n_shots <= MAX_SHOTS:
        raise ValueError(f"n_shots must lie in [1, {MAX_SHOTS}], got {n_shots}")
    shape = stats.q_plus.shape
    dim = stats.q_plus.size
    probe_probs = np.concatenate([stats.q_plus.ravel(), stats.q_minus.ravel()])
    children = np.random.SeedSequence(seed).spawn(2)
    probe_counts = _counts(probe_probs, n_shots, np.random.Philox(children[0]))
    free_counts = _counts(stats.p_undisturbed.ravel(), n_shots, np.random.Philox(children[1]))

    f_plus = probe_counts[:dim] / n_shots
    f_minus = probe_counts[dim:] / n_shots
    f_free = free_counts / n_shots
    values, s2 = _reconstruction(stats.eps, f_plus, f_minus, f_free)

    var_delta = (f_plus + f_minus - (f_plus - f_minus) ** 2) / n_shots
    var_free = f_free * (1.0 - f_free) / n_shots
    stderr = np.sqrt(var_delta / (4.0 * s2**2) + var_free / 4.0)
    return SampledReconstruction(
        values=values.reshape(shape),
        stderr=stderr.reshape(shape),
        n_shots=int(n_shots),
        seed=int(seed),
        f_plus=f_plus.reshape(shape),
        f_minus=f_minus.reshape(shape),
        f_free=f_free.reshape(shape),
    )
