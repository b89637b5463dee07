"""Randomized invariant checks runnable from the command line.

Each property draws its own deterministic random stream from the suite
seed, evaluates ``n_trials`` instances (or a grid of comparable size)
and reports the failure count plus the worst deviation seen.  The same
generators back the pytest property tests, so `qheatflow check` is the
packaged, CI-friendly way to re-run them.  A stacked property draws its
trials phase by phase with public ``Generator`` calls (``_draw``): the
states of each local dimension from blocks of candidate rows, checked as
one stack, then the rotations, then its other columns.  Above d = 3 every
candidate is accepted, so d up to 16 takes one block.  The witness-soundness
properties scale each drawn state's coherences in closed form to the edge
of a nonnegative MH table (``_edge_rho``), so nothing is redrawn.

A property maps ``(rng, n)`` to ``(failures, max_dev, note)``.  Most are
all n trials ``(rng, n) -> (deviations, failures)`` that ``_stacked`` runs
on stacks of at most STACK_TRIALS trials: the failures summed, max_dev the
largest deviation floored at 0.0.  Where no state is drawn, the trials keep
their scalar draws in trial order (or one block of them) and are evaluated
as one stack per shape.  The others set their own trial count, start or
note.  No property checks a state alone: a one-cell function gets a
stacked row as a system (``StateStack.system``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dynamics, fluctuations, linalg, probe, states, sweeps, witnesses
from .dynamics import ManifoldRotation
from .states import pymax

MIN_POPULATION = 1e-3  # the least joint population of a drawn two-qubit or two-qutrit state
QUDIT_MIN_POPULATION = 5e-4  # ... and of a drawn d x d state, d >= 4
STACK_TRIALS = 64  # trials drawn and evaluated as one stack; even, so each stack starts on an even trial


# ---------------------------------------------------------------------------
# random instance generators
# ---------------------------------------------------------------------------

TAU = 2.0 * np.pi
ANGLE_HIGH = np.array([np.pi, TAU, TAU, TAU])  # a rotation's theta, then phi, lam and kappa, are uniform on [0, high)


def _uniform(u, lo, hi):
    """``rng.uniform(lo, hi)`` of each double u of ``rng.random()``, bit for bit."""
    return lo + (hi - lo) * u


def _manifolds(d: int) -> list:
    """The exchange manifolds (n, m), n < m, in the order every generator draws them."""
    return [(n, m) for n in range(d) for m in range(n + 1, d)]


def _pairs(d: int) -> list:
    """The joint indices (n*d + m, m*d + n) of each manifold's coherence."""
    return [(n * d + m, m * d + n) for n, m in _manifolds(d)]


def _candidates(u, d: int, coherent: bool):
    """(accepted (m,), levels (m, d), beta_c, beta_h (m,), populations (m, d*d), eta and xi (m, manifolds)) of the
    candidates whose doubles are the rows of u (m, size), made at once with the constructors' float operations.
    Above d = 3: Golomb-ruler levels scaled to a drawn span; (beta_C + beta_H) E_max < log(1 / (2 d**2 floor)), so
    every Gibbs product is over twice the floor; and free populations jittered by at most the least product less
    the floor, which no solved population can move past."""
    pos, none = 0, np.zeros((len(u), len(_manifolds(d))))

    def take(lo, hi, width=None):  # the next uniform of every row, or the next ``width``
        nonlocal pos
        pos += width or 1
        return _uniform(u[:, pos - 1] if width is None else u[:, pos - width: pos], lo, hi)

    if d == 2:
        beta_h = take(0.1, 1.2)
        beta_c = beta_h + take(0.1, 1.5)
        q = states.TwoQubitParams(beta_c, beta_h, 0.0).ground_populations()
        lo, hi = states.TwoQubitParams(beta_c, beta_h, 0.0).p00_bounds(q)
        params = states.TwoQubitParams(beta_c, beta_h, lo + take(0.08, 0.92) * (hi - lo))
        eta = take(-0.95, 0.95, 1) * params.eta_cap(q)[:, None] if coherent else none
        p = params.populations(q)
        xi = take(0.0, TAU, 1) if coherent else none
        return p.min(axis=-1) >= MIN_POPULATION, np.tile([0.0, 1.0], (len(u), 1)), beta_c, beta_h, p, eta, xi
    if d == 3:
        e1 = take(0.7, 1.3)
        e2 = e1 + take(0.2, 0.8)
        levels, ok = np.stack([np.zeros(len(u)), e1, e2], axis=-1), ~(np.abs(e2 - 2.0 * e1) < 5e-3)
        beta_h = take(0.1, 0.8)
        beta_c, floor = beta_h + take(0.2, 1.0), MIN_POPULATION
    else:
        marks, span = states.RULERS[d], take(0.5, 1.7) * (d - 1)
        levels, ok, floor = span[:, None] * np.array(marks) / marks[-1], True, QUDIT_MIN_POPULATION
        budget = math.log(0.5 / (d * d * floor))
        beta_h = take(0.05, 0.25) * budget / span
        beta_c = beta_h + take(0.1, 0.45) * budget / span
    c, h = states.gibbs_stack(levels, beta_c), states.gibbs_stack(levels, beta_h)
    spread = 0.3 if d == 3 else c.min(axis=-1) * h.min(axis=-1) - floor
    keys = [0] + [n * d + m for n in range(1, d) for m in range(1, d) if (n, m) != (1, 1)]
    p = states.solve_populations(c, h, {k: c[:, k // d] * h[:, k % d] * take(1.0 - spread, 1.0 + spread) for k in keys})[0]
    eta, xi = (take(0.2, 0.95, none.shape[1]), take(0.0, TAU, none.shape[1])) if coherent else (none, none)
    return ok & (p.min(axis=-1) >= floor), levels, beta_c, beta_h, p, eta, xi


class _Group(NamedTuple):
    """The accepted draws of the trials ``at`` of one local dimension: their checked ``StateStack``,
    eta and xi (k, manifolds) in the order of ``_manifolds``, rotation angles (k, manifolds, 4) or None."""

    at: np.ndarray
    st: states.StateStack
    eta: np.ndarray
    xi: np.ndarray
    angles: np.ndarray | None = None


def _draw(rng, dims, coherent: bool = True, rotations: bool = True) -> list:
    """A ``_Group`` per local dimension of ``dims`` (n,), ascending, drawn phase by phase: for each d, candidate rows
    ``rng.random((m, size))``, m the states still wanted, until that d's trials have the first accepted, in trial
    order, checked as one stack; then, when ``rotations``, each d's angles as one block.  A property draws its
    other columns after these.  A d outside 2 to 16 is a ValueError before the stream is read."""
    dims = np.asarray(dims)
    kinds = sorted(set(dims.tolist()))
    if unsupported := [d for d in kinds if not 2 <= d <= max(states.RULERS)]:
        raise ValueError(f"no state is drawn at local dimension d = {unsupported[0]}: the draw covers d = 2 to {max(states.RULERS)}")
    groups = []
    for d in kinds:
        at, parts, wanted = np.flatnonzero(dims == d), [], np.count_nonzero(dims == d)
        # a candidate's doubles: 3 at d = 2, 8 at d = 3, 3 + (d - 1)**2 above; then, when coherent, eta and xi per manifold
        size = {2: 3, 3: 8}.get(d, 3 + (d - 1) ** 2) + 2 * len(_manifolds(d)) * coherent
        while wanted:
            ok, *columns = _candidates(rng.random((wanted, size)), d, coherent)
            keep = np.flatnonzero(ok)[:wanted]
            parts.append([column[keep] for column in columns])
            wanted -= len(keep)
        levels, beta_c, beta_h, p, eta, xi = (np.concatenate(column) for column in zip(*parts))
        a, b = np.array(_pairs(d)).T
        coherences = eta * np.exp(1j * xi) if d == 2 else states.exchange_coherence(eta, xi, p[:, a], p[:, b])
        st = states.valid_stack(states.entry_stack(levels, levels, beta_c, beta_h, p, (a, b, coherences)))
        groups.append(_Group(at, st, eta, xi))
    if rotations:
        groups = [g._replace(angles=_angles(rng.random((len(g.at), 4 * len(_manifolds(d)))))) for g, d in zip(groups, kinds)]
    return groups


def _angles(u) -> np.ndarray:
    """The rotation angles (..., manifolds, 4) of the doubles u (..., 4 * manifolds)."""
    return _uniform(u.reshape(*u.shape[:-1], -1, 4), 0.0, ANGLE_HIGH)


def _rotation_list(g: _Group, j: int) -> list:
    """Row j's rotations, as ``random_rotations`` returns them."""
    return [ManifoldRotation(pair, *angles) for pair, angles in zip(_manifolds(g.st.dims[0]), g.angles[j].tolist())]


def random_two_qubit_system(rng, coherent: bool = True):
    """Locally thermal two-qubit state with beta_C > beta_H."""
    ((_, st, eta, xi, _),) = _draw(rng, [2], coherent, rotations=False)
    params = states.TwoQubitParams(*(x.item() for x in (st.beta_c[0], st.beta_h[0], st.populations[0, 0], eta[0, 0], xi[0, 0])))
    return st.system(0), params


def random_two_qutrit_system(rng, coherent: bool = True):
    """Feasible two-qutrit instance; free populations jittered around product values."""
    ((_, st, eta, xi, _),) = _draw(rng, [3], coherent, rotations=False)
    values = st.beta_c[0], st.beta_h[0], *st.levels_c[0, 1:], *st.populations[0, [0, 5, 7, 8]], *eta[0], *xi[0]
    return st.system(0), states.QutritStateParams(*(x.item() for x in values))


def random_qudit_system(rng, d: int = 4):
    """Locally thermal d x d instance, 2 <= d <= 16."""
    return _draw(rng, [d], rotations=False)[0].st.system(0)


def random_rotations(rng, spec: states.EnergySpectrum):
    """One rotation per manifold (n, m), n < m: theta, then phi, lam and kappa."""
    angles = _angles(rng.random(4 * len(_manifolds(spec.dim))))
    return [ManifoldRotation(pair, *a) for pair, a in zip(_manifolds(spec.dim), angles.tolist())]


def random_system_and_unitary(rng, dim: int):
    (g,) = _draw(rng, [dim])
    sys, rots = g.st.system(0), _rotation_list(g, 0)
    return sys, dynamics.energy_preserving_unitary(sys.spectrum_c, rots), rots


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@dataclass
class PropertyResult:
    name: str
    trials: int
    failures: int
    max_dev: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _in_stacks(trials):
    """``trials(rng, n)``, which makes the trial-by-trial draws in order and
    evaluates them as one stack per local dimension or shape (whose kernels give each
    trial's values bit for bit) and returns per-trial arrays, run on
    consecutive stacks of at most STACK_TRIALS trials and joined."""
    def run(rng, n, *args):
        stacks = (trials(rng, min(STACK_TRIALS, n - k), *args) for k in range(0, n, STACK_TRIALS))
        return [np.concatenate(parts) for parts in zip(*stacks)]
    return run


def _stacked(note: str):
    """The property of trials ``(rng, n) -> (deviations, failures)``, run
    by ``_in_stacks``: the failures summed (a nan deviation is one), max_dev
    the largest deviation from 0.0 (a nan or a negative one is never kept)."""
    def wrap(trials):
        def prop(rng, n):
            dev, bad = prop.trials(rng, n)
            return int(np.sum(pymax(bad, np.isnan(dev)))), float(np.fmax.reduce(dev, initial=0.0)), note
        prop.trials = _in_stacks(trials)
        return prop
    return wrap


def _groups(groups: list):
    """(trial indices, their checked ``StateStack``, the ``_unitaries`` of their drawn rotations or None) per ``_Group``."""
    return [(g.at, g.st, None if g.angles is None else _unitaries(g.st, g.angles)) for g in groups]


def _unitaries(st, angles):
    """``energy_preserving_unitary`` of each row's spectrum and rotation angles (n, manifold, 4), as one stack."""
    blocks = [(pair, tuple(angles[:, j].T)) for j, pair in enumerate(_manifolds(st.dims[0]))]
    return dynamics.exchange_unitary_stack(st.levels_c, len(angles), blocks)


def _qubit_exchanges(theta, phi=0.0, lam=0.0):
    """``two_qubit_exchange_unitary(theta, lam=lam, phi=phi)`` per trial, as one stack."""
    return dynamics.exchange_unitary_stack((0.0, 1.0), len(theta), [((0, 1), (np.array(theta), phi, lam, 0.0))])


def _tables(st, u):
    """The MH and TPM values of each row under its unitary."""
    return tuple(fluctuations.table_stack(kind, st, u.matrix, u.adjoint) for kind in ("MH", "TPM"))


def _raise_first(diverged, groups: list, check):
    """Run ``check(sys, u)``, the trial-by-trial path, which raises, on the first diverged trial."""
    for k in np.flatnonzero(diverged)[:1]:
        g = next(g for g in groups if k in g.at)
        j = int(np.flatnonzero(g.at == k)[0])
        sys = g.st.system(j)
        check(sys, dynamics.energy_preserving_unitary(sys.spectrum_c, _rotation_list(g, j)))


def _largest(x) -> np.ndarray:
    """The largest |entry| of each row of a stack (n, ...)."""
    return np.abs(x).reshape(len(x), -1).max(axis=-1)


def _complex_columns(x, sides) -> list:
    """The complex matrices (n, side, side) of the normal draws x (n, 2 * sum(side**2)),
    each ``rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))``."""
    parts = np.split(x, np.cumsum([side * side for side in sides for _ in "ri"]), axis=-1)
    return [(parts[2 * j] + 1j * parts[2 * j + 1]).reshape(-1, side, side) for j, side in enumerate(sides)]


@_stacked("associativity + bilinearity")
def _prop_kron_algebra(rng, n):
    x = rng.standard_normal((n, 36))  # a, b, c (2, 3 and 2 square), then s and t: each trial's draws in order
    a, b, c = _complex_columns(x[:, :34], (2, 3, 2))
    s, t = x[:, 34, None, None], x[:, 35, None, None]
    dev = _largest(linalg.kron(linalg.kron(a, b), c) - linalg.kron(a, linalg.kron(b, c)))
    dev = pymax(dev, _largest(linalg.kron(s * a + t * c, b) - (s * linalg.kron(a, b) + t * linalg.kron(c, b))))
    return dev, dev >= 1e-12


@_stacked("partial trace/transpose identities")
def _prop_partial_ops(rng, n):
    dims, dev = rng.integers(2, 4, (n, 2)), np.zeros(n)  # each trial's (d_C, d_H), then A and B of each pair's trials
    for d_c, d_h in sorted(set(map(tuple, dims.tolist()))):
        at = np.flatnonzero((dims == (d_c, d_h)).all(axis=-1))
        a, b = _complex_columns(rng.standard_normal((len(at), 2 * (d_c * d_c + d_h * d_h))), (d_c, d_h))
        m = linalg.kron(a, b)
        trace_a, trace_b = (np.trace(x, axis1=1, axis2=2)[:, None, None] for x in (a, b))
        d = pymax(_largest(linalg.partial_trace(m, (d_c, d_h), "H") - trace_b * a), _largest(linalg.partial_trace(m, (d_c, d_h), "C") - trace_a * b))
        pt = linalg.partial_transpose(m, (d_c, d_h), "H")
        d = pymax(d, _largest(linalg.partial_transpose(pt, (d_c, d_h), "H") - m))
        # a stack is transposed matrix by matrix (the path of min_pt_eig)
        both = linalg.partial_transpose(np.concatenate([m, pt]), (d_c, d_h), "H") - np.concatenate([pt, m])
        d = pymax(d, _largest(both.reshape(2, len(at), -1).swapaxes(0, 1)))
        # spectrum of a product state is preserved under partial transposition
        rho, sig = (x / np.trace(x, axis1=1, axis2=2).real[:, None, None] for x in (a @ a.conj().swapaxes(1, 2), b @ b.conj().swapaxes(1, 2)))
        prod = linalg.kron(rho, sig)
        ev1, ev2 = (linalg.hermitian_eigenvalues(x) for x in (prod, linalg.partial_transpose(prod, (d_c, d_h), "H")))
        dev[at] = pymax(d, _largest(ev1 - ev2))
    return dev, dev >= 1e-10


@_stacked("unitarity, commutation, manifold confinement")
def _prop_unitarity(rng, n):
    dev = np.zeros(n)
    for at, st, u in _groups(_draw(rng, rng.integers(2, 5, n))):
        eye = np.eye(st.rho.shape[-1])
        d = linalg.spectral_norms(u.matrix @ u.adjoint - eye)
        d = pymax(d, u.commutator_norm)
        d = pymax(d, np.abs(linalg.spectral_norms(u.matrix) - 1.0))
        # identity outside the declared manifolds
        side = st.dims[0]
        mask = np.eye(side * side, dtype=bool)
        for a, b in _pairs(side):
            mask[a, a] = mask[b, b] = mask[a, b] = mask[b, a] = False
        dev[at] = pymax(d, np.abs(u.matrix - eye)[:, mask].max(axis=-1))
    return dev, dev >= 1e-10


@_stacked("constructed states stay thermal and positive")
def _prop_state_validity(rng, n):
    dev = np.zeros(n)
    for at, st, _ in _groups(_draw(rng, ([2, 3] * n)[:n], rotations=False)):
        d = np.abs(st.marginal_c - states.gibbs_stack(st.levels_c, st.beta_c)).max(axis=-1)
        d = pymax(d, np.abs(st.marginal_h - states.gibbs_stack(st.levels_h, st.beta_h)).max(axis=-1))
        d = pymax(d, np.abs(st.rho.trace(axis1=1, axis2=2).real - 1.0))
        dev[at] = pymax(d, pymax(0.0, -np.linalg.eigvalsh(st.rho)[:, 0]))
    return dev, dev >= 1e-9


@_stacked("dephasing idempotent, marginal-preserving")
def _prop_dephase(rng, n):
    ((_, st, _),) = _groups(_draw(rng, [3] * n, rotations=False))
    deph = st.with_rho(states.dephased_rho(st.rho, st.levels_c, st.levels_h))
    twice = deph.with_rho(states.dephased_rho(deph.rho, deph.levels_c, deph.levels_h))
    dev = _largest(twice.rho - deph.rho)
    for side in ("C", "H"):
        lhs, rhs = (linalg.partial_trace(x.rho, st.dims, side) for x in (deph, st))
        # local spectra are nondegenerate, so dephasing the joint state
        # cannot move the marginals
        dev = pymax(dev, _largest(lhs - rhs))
    return dev, dev >= 1e-12


@_stacked("both marginal identities")
def _prop_mh_marginals(rng, n):
    dev = np.zeros(n)
    for at, st, u in _groups(_draw(rng, ([2, 3] * n)[:n])):
        mh, tpm = _tables(st, u)
        dev[at] = pymax(*(fluctuations.marginal_check_stack(t, st, u.matrix, u.adjoint, dephase) for t, dephase in ((mh, False), (tpm, True))))
    return dev, dev >= 1e-10


@_in_stacks
def _table_norm_trials(rng, n):
    """Per trial: |sum - 1| of the MH and the TPM table, the least MH and TPM entries, the largest MH entry."""
    out = np.zeros((5, n))
    for at, st, u in _groups(_draw(rng, ([2, 3] * n)[:n])):
        mh, tpm = _tables(st, u)
        axes = (1, 2, 3, 4)  # each table summed in its own memory order, as its one-cell ``values.sum()`` is (TPM's is strided)
        out[:, at] = np.abs(mh.sum(axes) - 1.0), np.abs(tpm.sum(axes) - 1.0), mh.min(axes), tpm.min(axes), mh.max(axes)
    return out


def _prop_table_norm_range(rng, n):
    sum_mh, sum_tpm, mh_min, tpm_min, mh_max = _table_norm_trials(rng, n)
    ok = (sum_mh < 1e-10) & (sum_tpm < 1e-10) & (mh_min >= fluctuations.MH_LOWER_BOUND - 1e-10) & (tpm_min >= -1e-12)
    failures = np.count_nonzero(~(ok & (mh_max <= 1 + 1e-10)))
    note = f"sum=1; min MH entry seen {np.fmin.reduce(mh_min, initial=0.0):.4f} >= -1/8"
    return int(failures), float(np.fmax.reduce([sum_mh, sum_tpm], axis=None, initial=0.0)), note


@_stacked("table heat = operator heat; Q = Qback - Qdirect")
def _prop_heat_identities(rng, n):
    dev = np.zeros(n)
    for at, st, u in _groups(_draw(rng, ([2, 3] * n)[:n])):
        mh, tpm = _tables(st, u)
        q = fluctuations.table_heat_stack(mh, st.levels_c)
        d = np.abs(q - fluctuations.average_heat_stack(st, u.matrix, u.adjoint))
        diag = st.with_rho(fluctuations.diagonal_matrices(st.rho.diagonal(axis1=1, axis2=2)))
        d = pymax(d, np.abs(fluctuations.table_heat_stack(tpm, st.levels_c) - fluctuations.average_heat_stack(diag, u.matrix, u.adjoint)))
        q_back, q_direct = fluctuations.flow_decomposition_stack(mh, st.levels_c, st.levels_h)
        dev[at] = pymax(d, np.abs(q_back - q_direct - q))
    return dev, dev >= 1e-10


@_stacked("MH = TPM on dephased states")
def _prop_mh_tpm_dephased(rng, n):
    ((_, st, u),) = _groups(_draw(rng, [2] * n))
    mh, tpm = _tables(st.with_rho(fluctuations.diagonal_matrices(st.rho.diagonal(axis1=1, axis2=2))), u)
    dev = _largest(mh - tpm)
    # block dephasing never changes either table under energy-preserving U
    deph = st.with_rho(states.dephased_rho(st.rho, st.levels_c, st.levels_h))
    mh_deph, mh = (fluctuations.table_stack("MH", x, u.matrix, u.adjoint) for x in (deph, st))
    dev = pymax(dev, _largest(mh_deph - mh))
    return dev, dev >= 1e-12


@_stacked("exchange entries, Q, Q_TPM vs matrix route")
def _prop_two_qubit_closed_forms(rng, n):
    (g,) = _draw(rng, [2] * n, rotations=False)
    st, (theta, phi, lam) = g.st, (rng.uniform(0.0, hi, n) for hi in (np.pi, TAU, TAU))
    u = _qubit_exchanges(theta, phi, lam)
    mh, tpm = _tables(st, u)
    q, q_tpm = fluctuations.average_heat_stack(st, u.matrix, u.adjoint), fluctuations.table_heat_stack(tpm, st.levels_c)
    dev = np.zeros(n)
    params = (column.tolist() for column in (theta, g.eta[:, 0], g.xi[:, 0], st.beta_c, st.beta_h, st.populations[:, 0]))
    for k, (th, eta, xi, beta_c, beta_h, p00) in enumerate(zip(*params)):  # floats, as drawn; phi and lam numpy's
        cf = fluctuations.two_qubit_exchange_probs(th, eta, xi, beta_c, beta_h, p00, phi=phi[k], lam=lam[k])
        # the MH, then the TPM entries 01 -> 10 and 10 -> 01
        d = max(abs(cf[f"{name}_{a}{b}_{b}{a}"] - float(t[k, a, b, b, a])) for name, t in (("mh", mh), ("tpm", tpm)) for a, b in ((0, 1), (1, 0)))
        d = max(d, abs(fluctuations.two_qubit_heat(th, eta, xi, beta_c, beta_h, phi=phi[k], lam=lam[k]) - float(q[k])))
        dev[k] = max(d, abs(fluctuations.two_qubit_tpm_heat(th, beta_c, beta_h) - float(q_tpm[k])))
    return dev, dev >= 1e-12


@_stacked("manifold closed forms, d = 3 and 4")
def _prop_qudit_closed_forms(rng, n):
    groups = _draw(rng, ([3, 4] * n)[:n])
    dev = np.zeros(n)
    for g, (at, st, u) in zip(groups, _groups(groups)):
        for j, (k, mh, tpm) in enumerate(zip(at, *_tables(st, u))):
            sys, rots = st.system(j), _rotation_list(g, j)
            pw, tp = fluctuations.exchange_manifold_pw(sys, rots), fluctuations.exchange_manifold_tpm(sys, rots)
            dev[k] = max([0.0, *(abs(v - float(mh[key])) for key, v in pw.items()), *(abs(v - float(tpm[key])) for key, v in tp.items())])
    return dev, dev >= 1e-12


@_stacked("<e^{dI+dB dE}> = 1 + chi_bar")
def _prop_xft_identity(rng, n):
    groups = _draw(rng, ([2, 3] * n)[:n])
    dev, diverged = np.zeros(n), np.zeros(n, bool)
    for at, st, u in _groups(groups):
        mh = _tables(st, u)[0]
        lhs, _, vanishing = fluctuations.xft_average_stack(mh, st)
        resonance_ok = fluctuations.resonance_stack(mh, st.levels_c, st.levels_h)[0]
        chi, starved = fluctuations.xft_coherence_stack(st, u.matrix, u.adjoint)
        dev[at] = np.where(resonance_ok, np.abs(lhs - 1.0 - chi), np.inf)
        diverged[at] = ~fluctuations.xft_evaluable(starved, vanishing)

    def check(sys, u):
        fluctuations.xft_average(fluctuations.mh_distribution(sys, u), sys)
        fluctuations.xft_coherence_term(sys, u)

    _raise_first(diverged, groups, check)
    return dev, dev >= 1e-8


@_stacked("1 + J = <e^{dB dE}>; J <= ||c|| + ||q||")
def _prop_j_identity(rng, n):
    groups = _draw(rng, ([2, 3] * n)[:n])
    dev, bad, diverged = np.zeros(n), np.zeros(n, bool), np.zeros(n, bool)
    for at, st, u in _groups(groups):
        mh = _tables(st, u)[0]
        operators = fluctuations._correction_operators(st)
        j = fluctuations._correction_j(operators, u.matrix, u.adjoint)
        norm_bound = linalg.spectral_norms(fluctuations.diagonal_matrices(operators[1])) + linalg.spectral_norms(operators[2])
        dbeta = (st.beta_c - st.beta_h)[:, None, None, None, None]
        direct = (mh * np.exp(dbeta * fluctuations.energy_changes(st.levels_c, st.levels_h)[0])).reshape(len(at), -1).sum(axis=-1)
        dev[at] = np.abs(1.0 + j - direct)
        bad[at] = (dev[at] >= 1e-10) | (j > norm_bound + 1e-10)
        diverged[at] = operators[3]
    _raise_first(diverged, groups, fluctuations.heat_exp_correction)
    return dev, bad


def _edge_rho(rho, mh, tpm):
    """``rho`` (n, D, D) with each row's coherences scaled by s so that its
    MH table ``mh`` is nonnegative.  MH is linear in rho and is the TPM
    table ``tpm`` on diag rho, so MH(s) = TPM + s (MH - TPM) first reaches
    0 at s* = min TPM / (TPM - MH) over MH < TPM.  s = 1 (rho bit for bit)
    where MH >= 0 already, else s* (1 - 1e-9); rho(s) mixes rho with its
    diagonal, so it keeps rho's marginals and stays PSD."""
    mh, tpm = (t.reshape(len(rho), -1) for t in (mh, tpm))
    edge = np.divide(tpm, tpm - mh, out=np.full_like(tpm, np.inf), where=mh < tpm).min(axis=-1)
    s = np.where(mh.min(axis=-1) >= 0.0, 1.0, edge * (1.0 - 1e-9))
    return np.where(np.eye(rho.shape[-1], dtype=bool), rho, s[:, None, None] * rho)


def _nonneg_instance(rng, dims):
    """``_groups`` of one ``_draw`` of ``dims``, as a list, each state scaled by ``_edge_rho``."""
    return [(at, st.with_rho(_edge_rho(st.rho, *_tables(st, u))), u) for at, st, u in _groups(_draw(rng, dims))]


@_in_stacks
def _soundness_trials(rng, n, dim):
    """Per nonnegative instance at local dimension ``dim``: the witness
    flags of the sweeps' evaluator that read 1 (T2 at eps = 0 on qubits)."""
    ((_, st, u),) = _nonneg_instance(rng, [dim] * n)
    u = u._replace(epsilon=np.zeros(n)) if dim == 2 else u  # the evaluator gates T2 on epsilon alone
    columns = sweeps._evaluate_stack(st, u, {}, sweeps.FLAG_COLUMNS)[0]
    return (np.sum([flags == 1 for flags, _ in columns.values()], axis=0),)


def _prop_witness_soundness(rng, n):
    bad = np.concatenate([_soundness_trials(rng, max(1, n // 2), dim)[0] for dim in (2, 3)])
    return int(bad.sum()), float(bad.max()), "no violation on fully nonnegative MH tables"


@_in_stacks
def _nonideal_soundness_trials(rng, n):
    """Per nonnegative two-qubit instance under a drawn perturbed XY unitary: how many of T2 and
    T3-nonideal read violated, T3 where chi_bar and the XFT average are finite and 1 + chi_bar > 0."""
    ((_, st, _),) = _groups(_draw(rng, [2] * n, rotations=False))
    j_hz, t, jx = (rng.uniform(lo, hi, n) for lo, hi in ((100.0, 400.0), (0.0, 6e-3), (0.0, 60.0)))
    u = dynamics.perturbed_xy_unitary_stack(j_hz, jx, t, 1.0, 1.0)
    st = st.with_rho(_edge_rho(st.rho, *_tables(st, u)))
    columns, mh, _ = sweeps._evaluate_stack(st, u, {}, ("Q", "t2_violated"))
    q, t2 = columns["Q"][0], columns["t2_violated"][0]
    chi, starved = fluctuations.xft_coherence_stack(st, u.matrix, u.adjoint)
    lhs, avg_di, vanishing = fluctuations.xft_average_stack(mh, st)
    finite = (1.0 + chi > 0.0) & fluctuations.xft_evaluable(starved, vanishing)
    slack = fluctuations.resonance_stack(mh, st.levels_c, st.levels_h)[1]  # the work slack: the table's own energy mismatch
    t3 = witnesses.xft_flow_stack(q, np.where(finite, chi, 0.0), lhs, avg_di, None, st.beta_c, st.beta_h, slack, slack)
    return ((t2 == 1).astype(int) + (finite & t3.violated).astype(int),)  # bool + bool would be a logical or


def _prop_witness_soundness_nonideal(rng, n):
    failures = int(_nonideal_soundness_trials(rng, n)[0].sum())
    return failures, float(failures), "perturbed dynamics: T2 / nonideal T3 stay sound"


@_in_stacks
def _exchange_qubit_trials(rng, n, coherent=True):
    """Per trial of a drawn qubit pair under the exchange by a drawn theta:
    T1 violated, Q of the MH table and the operator, Q_tpm, the least MH entry."""
    ((_, st, _),) = _groups(_draw(rng, [2] * n, coherent, rotations=False))
    u = _qubit_exchanges(rng.uniform(0.0, np.pi, n))
    mh, tpm = _tables(st, u)
    q, q_tpm = (fluctuations.table_heat_stack(t, st.levels_c) for t in (mh, tpm))
    # read for coherent pairs only
    t1 = witnesses.two_qubit_flow_stack(q, q_tpm, st.beta_c, st.beta_h).violated if coherent else np.zeros(n, bool)
    return t1, q, fluctuations.average_heat_stack(st, u.matrix, u.adjoint), q_tpm, mh.reshape(n, -1).min(axis=-1)


def _prop_t1_violation_implies_strong_flow(rng, n):
    t1, q, _, q_tpm, mh_min = _exchange_qubit_trials(rng, n)
    failures = np.count_nonzero(t1 & ~(np.abs(q) > np.abs(q_tpm))) + np.count_nonzero(t1 & ~(mh_min < 0.0))
    seen = int(np.count_nonzero(t1))
    return int(failures), float(seen), f"violations carry |Q| > |Q_tpm| ({seen} seen)"


def _prop_tpm_no_backflow(rng, n):
    _, _, q, q_tpm, _ = _exchange_qubit_trials(rng, n, False)
    failures = np.count_nonzero((q_tpm > 1e-12) | (np.abs(q - q_tpm) > 1e-12))
    return int(failures), np.fmax.reduce(q_tpm, initial=-np.inf), "Q_tpm <= 0 and Q(eta=0) = Q_tpm"


@_in_stacks
def _all_negative_trials(rng, n):
    """Per drawn two-qutrit state under the rotations that aim to make each
    MH entry (n, m) -> (m, n) negative: whether all three are and the state's
    coherences reach 1e-6 (the trial is checked), and whether |Q| > |Q_tpm| then fails."""
    ((_, st, _),) = _groups(_draw(rng, [3] * n, rotations=False))
    a, b = np.array(_pairs(3)).T
    coherences, populations = st.rho[:, a, b], st.populations[:, a]
    # pick each angle so the coherence term defeats the population term
    angles = [
        [(np.pi - 0.5 * np.arctan(abs(c) / max(pop, 1e-12)), 0.0, -float(np.angle(c)), 0.0) for c, pop in zip(*row)]
        for row in zip(coherences, populations)
    ]
    mh, tpm = _tables(st, _unitaries(st, np.array(angles)))
    checked = np.array([not min(abs(c) for c in row) < 1e-6 for row in coherences])
    checked &= np.all([mh[:, lo, hi, hi, lo] < 0.0 for lo, hi in ((0, 1), (0, 2), (1, 2))], axis=0)
    q, q_tpm = (fluctuations.table_heat_stack(t, st.levels_c) for t in (mh, tpm))
    return checked, checked & ~(np.abs(q) > np.abs(q_tpm))


def _prop_all_negative_direction(rng, n):
    checked, failed = _all_negative_trials(rng, n)
    seen, failures = int(checked.sum()), int(failed.sum())
    note = f"all-negative direction => |Q| > |Q_tpm| ({seen} instances)"
    if seen == 0:
        failures += 1
        note += " [generator produced none]"
    return failures, float(seen), note


@_stacked("max |Q - Q_tpm| attained at quarter rotations")
def _prop_delta_q_max(rng, n):
    ((_, st, _),) = _groups(_draw(rng, [3] * n, rotations=False))
    a, b = np.array(_pairs(3)).T
    # phases tuned so cos(xi + phi + lam) = 1, theta = pi/4 on all manifolds
    u = _unitaries(st, np.stack(np.broadcast_arrays(np.pi / 4.0, 0.0, -np.angle(st.rho[:, a, b]), 0.0), axis=-1))
    q = fluctuations.average_heat_stack(st, u.matrix, u.adjoint)
    q_tpm = fluctuations.table_heat_stack(_tables(st, u)[1], st.levels_c)
    target = np.array([fluctuations.max_heat_coherence_shift(st.system(k)) for k in range(n)])
    dev = np.abs(np.abs(q - q_tpm) - target)
    return dev, dev >= 1e-12


@_stacked("reconstruction exact for eps in {0.05, 0.2, pi/4}")
def _prop_probe_exactness(rng, n):
    dims = np.array(([2, 3] * n)[:n])
    groups = _groups(_draw(rng, dims))
    targets = rng.integers(0, dims, (2, n))  # each trial's target row (i_C, i_H), after the rotations
    worst, failures = np.zeros(n), np.zeros(n, int)
    for at, st, u in groups:
        side, (i_c, i_h) = st.dims[0], targets[:, at]
        # the MH row (i_C, i_H) of each trial's table, (k, d, d)
        row = fluctuations.table_stack("MH", st, u.matrix, u.adjoint)[np.arange(len(at)), i_c, i_h].reshape(len(at), -1)
        idx, recs = i_c * side + i_h, []
        for eps in (0.05, 0.2, np.pi / 4.0):
            q_plus, q_minus, p_free = probe.probe_stack(st.rho, u.matrix, idx, eps)
            recs.append(probe._reconstruction(eps, q_plus, q_minus, p_free)[0])
            dev = _largest(recs[-1] - row)
            worst[at] = pymax(worst[at], dev)
            failures[at] += dev >= 1e-10
            povm = {i: np.max(np.abs(np.add(*probe.probe_effects(eps, side * side, i)) - np.eye(side * side))) for i in set(idx.tolist())}
            dev = pymax(np.array([povm[i] for i in idx.tolist()]), _largest(q_plus - q_minus - np.sin(2 * eps) * (2 * row - p_free)))
            worst[at] = pymax(worst[at], dev)
            failures[at] += dev >= 1e-12
        failures[at] += _largest(recs[0] - recs[2]) >= 1e-10
    return worst, failures


@_stacked("smaller coupling disturbs less")
def _prop_probe_disturbance(rng, n):
    ((_, st, _),) = _groups(_draw(rng, [2] * n, rotations=False))
    idx = rng.integers(0, 4, n)
    pi_op = np.zeros((n, 4, 4), dtype=complex)
    pi_op[range(n), idx, idx] = 1.0
    flip = 2.0 * pi_op - np.eye(4)
    failures, prev = np.zeros(n, int), np.full(n, np.inf)
    for eps in (0.6, 0.3, 0.1, 0.02):
        post = np.cos(eps) ** 2 * st.rho + np.sin(eps) ** 2 * (flip @ st.rho @ flip)
        tdist = 0.5 * np.abs(linalg.hermitian_eigenvalues(st.rho - post)).sum(axis=-1)
        failures += tdist > prev + 1e-15
        prev = tdist
    return prev, failures


def _prop_probe_sampling(rng, n):
    ((_, st, u),) = _groups(_draw(rng, [2] * max(1, min(n, 20))))
    failures, worst = 0, 0.0
    for k, seed in enumerate(rng.integers(0, 2**31, len(st.rho)).tolist()):
        stats = probe.probe_statistics(st.system(k), u.matrix[k], (0, 1), 0.2)
        s1 = probe.sampled_reconstruction(stats, 10**5, seed)
        s2 = probe.sampled_reconstruction(stats, 10**5, seed)
        failures += not (np.array_equal(s1.values, s2.values) and np.array_equal(s1.stderr, s2.stderr))
        exact = probe.reconstruct_quasiprobability(stats)
        dev = np.abs(s1.values - exact)
        failures += not bool((dev <= 5.0 * s1.stderr + 1e-12).all())
        worst = max(worst, float(np.max(dev / np.maximum(s1.stderr, 1e-15))))
    return failures, worst, "deterministic seeding; 5-sigma agreement at 1e5 shots"


@_stacked("PSD holds iff P00 bounds and eta cap hold")
def _prop_p00_bounds(rng, n):
    beta_h, gap, u = (rng.uniform(lo, hi, n) for lo, hi in ((0.1, 1.2), (0.1, 1.5), (0.0, 1.0)))
    beta_c = beta_h + gap
    lo, hi = states.TwoQubitParams(beta_c, beta_h, 0.0).p00_bounds()
    inside = lo + u * (hi - lo)
    cap = states.TwoQubitParams(beta_c, beta_h, inside).eta_cap()
    # four blocks of n rows: inside the bounds, at the eta cap, then P00 and eta past their bounds
    p00 = np.concatenate([inside, inside, hi + pymax(1e-6, 0.05 * (hi - lo)), inside])
    eta = np.concatenate([np.zeros(n), cap, np.zeros(n), cap * 1.05 + 1e-6])
    errors, st = states.two_qubit_rows(states.TwoQubitParams(*np.tile([beta_c, beta_h], 4), p00, eta, np.zeros(4 * n), np.ones(4 * n)))
    states.valid_stack((errors[: 2 * n], None))
    failures = np.array([error is None for error in errors[2 * n:]]).reshape(2, n).sum(axis=0)
    # each state inside the bounds is valid, and at the boundary eta PSD up to tolerance
    return pymax(0.0, -np.linalg.eigvalsh(st.rho[n: 2 * n])[:, 0]), failures


@_stacked("threshold log(d)/dBeta behaves")
def _prop_strong_backflow(rng, n):
    beta_h, gap = rng.uniform(0.1, 1.0, (2, n))
    beta_c, d = beta_h + gap, rng.integers(2, 5, n)
    threshold = np.log(d) / (beta_c - beta_h)
    above, below, zero = (witnesses.strong_backflow_stack(q, beta_c, beta_h, d).violated for q in (threshold * 1.001, threshold * 0.999, 0.0))
    return np.zeros(n), np.sum([~above, below, zero], axis=0)


PROPERTIES = {
    "kron-algebra": _prop_kron_algebra, "partial-ops": _prop_partial_ops, "unitarity": _prop_unitarity,
    "state-validity": _prop_state_validity, "dephase": _prop_dephase, "mh-marginals": _prop_mh_marginals,
    "table-norm-range": _prop_table_norm_range, "heat-identities": _prop_heat_identities,
    "mh-tpm-dephased": _prop_mh_tpm_dephased, "two-qubit-closed-forms": _prop_two_qubit_closed_forms,
    "qudit-closed-forms": _prop_qudit_closed_forms, "xft-identity": _prop_xft_identity, "j-identity": _prop_j_identity,
    "witness-soundness": _prop_witness_soundness, "witness-soundness-nonideal": _prop_witness_soundness_nonideal,
    "t1-strong-flow": _prop_t1_violation_implies_strong_flow, "tpm-no-backflow": _prop_tpm_no_backflow,
    "all-negative-direction": _prop_all_negative_direction, "delta-q-max": _prop_delta_q_max,
    "probe-exactness": _prop_probe_exactness, "probe-disturbance": _prop_probe_disturbance,
    "probe-sampling": _prop_probe_sampling, "p00-bounds": _prop_p00_bounds, "strong-backflow-threshold": _prop_strong_backflow,
}

# heavier checks run a reduced number of trials relative to the suite setting
TRIAL_SCALE = {
    "witness-soundness": 0.5, "witness-soundness-nonideal": 0.2, "qudit-closed-forms": 0.3, "probe-exactness": 0.2,
    "probe-sampling": 0.04, "delta-q-max": 0.3, "all-negative-direction": 0.3, "xft-identity": 0.6,
}


def run_property_suite(
    seed: int = 7, n_trials: int = 500, names: list[str] | None = None
) -> list[PropertyResult]:
    """Run the registered properties with deterministic per-property
    streams: every one, or the ``names`` given, each once."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    selected = list(PROPERTIES) if names is None else list(names)
    if not selected:
        raise ValueError("no properties selected")
    unknown = [name for name in selected if name not in PROPERTIES]
    if unknown:
        raise ValueError(f"unknown properties: {unknown}; valid: {', '.join(PROPERTIES)}")
    if twice := sorted({name for name in selected if selected.count(name) > 1}):
        raise ValueError(f"properties listed twice: {twice}")
    root = np.random.SeedSequence(seed)
    streams = root.spawn(len(PROPERTIES))
    order = {name: k for k, name in enumerate(PROPERTIES)}
    results = []
    for name in selected:
        rng = np.random.default_rng(streams[order[name]])
        trials = max(1, int(n_trials * TRIAL_SCALE.get(name, 1.0)))
        failures, max_dev, note = PROPERTIES[name](rng, trials)
        results.append(PropertyResult(name=name, trials=trials, failures=int(failures), max_dev=float(max_dev), note=note))
    return results
