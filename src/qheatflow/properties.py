"""Randomized invariant checks runnable from the command line.

Each property draws its own deterministic random stream from the suite
seed, evaluates ``n_trials`` instances (or a grid of comparable size)
and reports the failure count plus the worst deviation seen.  The same
generators back the pytest property tests, so `qheatflow check` is the
packaged, CI-friendly way to re-run them.  A stacked property draws the
states of its trials as one block (``_draw``): the attempt that would
start at every offset of a block of the stream is made at once, a walk
in whole attempts finds the accepted ones, and the generator is rewound
and advanced by exactly the words the walk used, so every state is the
scalar generators', bit for bit, checked as one stack.  The witness-soundness
properties scale each drawn state's coherences in closed form to the edge
of a nonnegative MH table (``_edge_rho``), so nothing is redrawn.

A property maps ``(rng, n)`` to ``(failures, max_dev, note)``.  Most are
all n trials ``(rng, n) -> (deviations, failures)`` that ``_stacked`` runs,
or, where no state is drawn, one trial ``(rng, k) -> (deviation, failures)``
that ``_trials`` runs for k = 0..n-1 in order: the failures summed, max_dev
the largest deviation floored at 0.0.  The others set their own trial
count, start or note.  No property checks a state alone: a one-cell
function gets a stacked row as a system (``StateStack.system``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dynamics, fluctuations, linalg, probe, states, sweeps, witnesses
from .dynamics import ManifoldRotation
from .states import pymax

MIN_POPULATION = 1e-3  # the least joint population of a drawn two-qubit or two-qutrit state
QUDIT_MIN_POPULATION = 5e-4  # ... and of a drawn d x d state
STACK_TRIALS = 64  # trials drawn and evaluated as one stack; even, so each stack starts on an even trial


# ---------------------------------------------------------------------------
# random instance generators
# ---------------------------------------------------------------------------

TAU = 2.0 * np.pi
ANGLE_HIGH = np.array([np.pi, TAU, TAU, TAU])  # a rotation's theta, then phi, lam and kappa, are uniform on [0, high)


def _doubles(words: np.ndarray) -> np.ndarray:
    """``rng.random()`` of each 64-bit word: its top 53 bits times 2**-53."""
    return (words >> np.uint64(11)) * 2.0**-53


def _uniform(u, lo, hi):
    """``rng.uniform(lo, hi)`` of each double u of ``rng.random()``, bit for bit."""
    return lo + (hi - lo) * u


def _manifolds(d: int) -> list:
    """The exchange manifolds (n, m), n < m, in the order every generator draws them."""
    return [(n, m) for n in range(d) for m in range(n + 1, d)]


def _pairs(d: int) -> list:
    """The joint indices (n*d + m, m*d + n) of each manifold's coherence."""
    return [(n * d + m, m * d + n) for n, m in _manifolds(d)]


def _attempts(x, d: int, coherent: bool):
    """(steps, accepted, columns) of the attempt at local dimension d that
    draws each row of x (m, size) as its doubles, made at once with the
    generator's and the constructor's float operations: its length (short
    on a near-degenerate spectrum) and acceptance, as lists, and its levels
    (m, d), beta_c, beta_h (m,), populations (m, d*d), eta and xi (m, manifolds)."""
    pos, none = 0, np.zeros((len(x), len(_manifolds(d))))

    def take(lo, hi, width=None):  # the next uniform of every attempt, or the next ``width``
        nonlocal pos
        pos += width or 1
        return _uniform(x[:, pos - 1] if width is None else x[:, pos - width: pos], lo, hi)

    if d == 2:
        beta_h = take(0.1, 1.2)
        beta_c = beta_h + take(0.1, 1.5)
        z = states.TwoQubitParams(beta_c, beta_h, 0.0).partition_values()
        lo, hi = states.TwoQubitParams(beta_c, beta_h, 0.0).p00_bounds(z)
        params = states.TwoQubitParams(beta_c, beta_h, lo + take(0.08, 0.92) * (hi - lo))
        eta = take(-0.95, 0.95, 1) * params.eta_cap(z)[:, None] if coherent else none
        p = params.populations(z)
        columns = np.tile([0.0, 1.0], (len(x), 1)), beta_c, beta_h, p, eta, take(0.0, TAU, 1) if coherent else none
        return [x.shape[1]] * len(x), (p.min(axis=-1) >= MIN_POPULATION).tolist(), columns
    if d == 3:
        e1 = take(0.7, 1.3)
        e2 = e1 + take(0.2, 0.8)
        levels, skip = np.stack([np.zeros(len(x)), e1, e2], axis=-1), np.abs(e2 - 2.0 * e1) < 5e-3
        beta_h = take(0.1, 0.8)
        beta_c, jitter, floor = beta_h + take(0.2, 1.0), (0.7, 1.3), MIN_POPULATION
    else:
        levels = np.concatenate([np.zeros((len(x), 1)), np.add.accumulate(take(0.5, 1.7, d - 1), axis=-1)], axis=-1)
        skip = ~states.bohr_nondegenerate(levels, 1e-3)
        beta_h = take(0.1, 0.6)
        beta_c, jitter, floor = beta_h + take(0.2, 0.8), (0.8, 1.2), QUDIT_MIN_POPULATION
    c, h = states.gibbs_stack(levels, beta_c), states.gibbs_stack(levels, beta_h)
    keys = [0] + [n * d + m for n in range(1, d) for m in range(1, d) if (n, m) != (1, 1)]
    p = states.solve_populations(c, h, {k: c[:, k // d] * h[:, k % d] * take(*jitter) for k in keys})[0]
    ok = ~skip & (p.min(axis=-1) >= floor)
    if d > 3:  # ``qudit_entries`` also checks that the marginals agree
        ok &= ~(states.marginal_residual(c, h) > 1e-9)
    eta, xi = (take(0.2, 0.95, none.shape[1]), take(0.0, TAU, none.shape[1])) if coherent else (none, none)
    return np.where(skip, d - 1, x.shape[1]).tolist(), ok.tolist(), (levels, beta_c, beta_h, p, eta, xi)


def _integer(words, i: int, stash: tuple, lo: int, hi: int):
    """(``rng.integers(lo, hi)``, the next word, the stash (has, half)) as numpy draws a bounded integer
    below 2**32 from the words at i: Lemire's method on the low half of a fresh word, its high half stashed."""
    span = hi - lo
    while True:
        if stash[0]:
            half, stash = stash[1], (0, stash[1])
        else:
            word = int(words[i])
            i, half, stash = i + 1, word & 0xFFFFFFFF, (1, word >> 32)
        if (half * span) & 0xFFFFFFFF >= (2**32 - span) % span:  # else a biased draw: redrawn
            return lo + (half * span >> 32), i, stash


class _Group(NamedTuple):
    """The accepted draws of the trials ``at`` of one local dimension: their checked ``StateStack``, eta, xi and
    coherences (k, manifolds) in the order of ``_manifolds``, rotation angles (k, manifolds, 4) or None."""

    at: np.ndarray
    st: states.StateStack
    eta: np.ndarray
    xi: np.ndarray
    coherences: np.ndarray
    angles: np.ndarray | None


class _Draws(NamedTuple):
    groups: list  # a ``_Group`` per local dimension, ascending
    uniforms: tuple  # a column (n,) per trailing uniform
    integers: np.ndarray  # (n, trailing integers)


def _draw(rng, dims, coherent: bool = True, rotations: bool = True, uniforms=(), integers=()) -> _Draws:
    """The draws of trials as the scalar generators make them, one after
    another: trial k draws a state at local dimension dims[k] (drawn first
    by ``rng.integers(*dims[k])`` for a (lo, hi) pair), then its rotations
    when ``rotations``, ``rng.uniform(lo, hi)`` of each (lo, hi) of
    ``uniforms`` and ``rng.integers(0, hi)`` of each hi of ``integers``
    (None: the trial's d).  A block of the stream's 64-bit words has the
    attempt at every offset made at once; a walk in whole attempts, with
    numpy's 32-bit stash for the integers, finds the accepted ones.  The
    generator is then rewound and advanced by the words the walk used."""
    bits = rng.bit_generator
    saved = bits.state
    if "has_uint32" not in saved:
        raise TypeError(f"the block draw reads 64-bit words; {saved['bit_generator']} draws 32-bit ones")
    kinds = sorted({d for spec in dims for d in ([spec] if isinstance(spec, int) else range(*spec))})
    # the doubles of one attempt: beta_H, beta_C and P00 at d = 2, else the levels, betas and free populations; then etas, xis
    size = {d: (3 if d == 2 else d + 1 + (d - 1) ** 2) + 2 * len(_manifolds(d)) * coherent for d in kinds}
    span = {d: size[d] + 4 * len(_manifolds(d)) * rotations + len(uniforms) for d in kinds}  # a state, rotations, uniforms
    per_trial = sum(span[d] + size[d] // 2 for d in kinds) / len(kinds) + len(integers) + 1  # words, rejects included
    most = max(2**18 // kinds[-1] ** 2, 4 * max(span.values()))  # words in a block: ~8 MB of columns at most
    words, used, i, stash = np.zeros(0, np.uint64), 0, 0, (saved["has_uint32"], saved["uinteger"])
    walked, drawn, steps, k, d = [], [], None, 0, None
    while k < len(dims):
        if steps is None:  # the next block, from the current attempt on
            ask = min(most, 64 + (len(dims) - k) * per_trial)
            words, used, i = np.concatenate([words[i:], bits.random_raw(int(ask))]), used + i, 0
            u = _doubles(words)
            steps = {dim: _attempts(np.lib.stride_tricks.sliding_window_view(u, size[dim]), dim, coherent)[:2] for dim in kinds}
        try:
            if d is None:
                d, i, stash = (dims[k], i, stash) if isinstance(dims[k], int) else _integer(words, i, stash, *dims[k])
            step, accepted = steps[d]
            while not accepted[i]:
                i += step[i]
            end, after, values = i + span[d], stash, []
            for hi in integers:
                value, end, after = _integer(words, end, after, 0, hi or d)
                values.append(value)
            if end > len(words):
                raise IndexError
        except IndexError:  # past the block's end
            steps = None
            continue
        walked.append((k, d, words[i: i + span[d]].copy()))
        drawn += values
        i, stash, k, d = end, after, k + 1, None
    bits.state = {**saved, "has_uint32": stash[0], "uinteger": stash[1]}
    bits.random_raw(used + i)
    groups, tails = [], np.zeros((len(uniforms), len(dims)))
    for d in kinds:
        if mine := [(trial, w) for trial, dim, w in walked if dim == d]:
            at, u = np.array([trial for trial, _ in mine]), _doubles(np.array([w for _, w in mine]))
            levels, beta_c, beta_h, p, eta, xi = _attempts(u[:, : size[d]], d, coherent)[2]  # the accepted attempts, again
            (a, b), n = np.array(_pairs(d)).T, len(at)
            coherences = eta * np.exp(1j * xi) if d == 2 else states.exchange_coherence(eta, xi, p[:, a], p[:, b])
            entries = np.arange(n).repeat(len(a)), np.tile(a, n), np.tile(b, n), coherences.ravel()
            st = states.valid_stack(states.entry_stack(levels, levels, beta_c, beta_h, p, entries))
            tails[:, at] = u[:, span[d] - len(uniforms):].T
            angles = _angles(u[:, size[d]: span[d] - len(uniforms)]) if rotations else None
            groups.append(_Group(at, st, eta, xi, coherences, angles))
    columns = tuple(_uniform(tail, lo, hi) for tail, (lo, hi) in zip(tails, uniforms))
    return _Draws(groups, columns, np.array(drawn, dtype=int).reshape(len(dims), len(integers)))


def _angles(u) -> np.ndarray:
    """The rotation angles (..., manifolds, 4) of the doubles u (..., 4 * manifolds)."""
    return _uniform(u.reshape(*u.shape[:-1], -1, 4), 0.0, ANGLE_HIGH)


def _rotation_list(g: _Group, j: int) -> list:
    """Row j's rotations, as ``random_rotations`` returns them."""
    return [ManifoldRotation(pair, *angles) for pair, angles in zip(_manifolds(g.st.dims[0]), g.angles[j].tolist())]


def random_two_qubit_system(rng, coherent: bool = True):
    """Locally thermal two-qubit state with beta_C > beta_H."""
    ((_, st, eta, xi, _, _),) = _draw(rng, [2], coherent, rotations=False).groups
    params = states.TwoQubitParams(*(x.item() for x in (st.beta_c[0], st.beta_h[0], st.populations[0, 0], eta[0, 0], xi[0, 0])))
    return st.system(0), params


def random_two_qutrit_system(rng, coherent: bool = True):
    """Feasible two-qutrit instance; free populations jittered around product values."""
    ((_, st, eta, xi, _, _),) = _draw(rng, [3], coherent, rotations=False).groups
    values = st.beta_c[0], st.beta_h[0], *st.levels_c[0, 1:], *st.populations[0, [0, 5, 7, 8]], *eta[0], *xi[0]
    return st.system(0), states.QutritStateParams(*(x.item() for x in values))


def random_qudit_system(rng, d: int = 4):
    """Locally thermal d x d instance via the general constructor."""
    return _draw(rng, [d], rotations=False).groups[0].st.system(0)


def random_rotations(rng, spec: states.EnergySpectrum):
    """One rotation per manifold (n, m), n < m: theta, then phi, lam and kappa."""
    angles = _angles(rng.random(4 * len(_manifolds(spec.dim))))
    return [ManifoldRotation(pair, *a) for pair, a in zip(_manifolds(spec.dim), angles.tolist())]


def random_system_and_unitary(rng, dim: int):
    (g,) = _draw(rng, [dim]).groups
    sys, rots = g.st.system(0), _rotation_list(g, 0)
    return sys, dynamics.energy_preserving_unitary(sys.spectrum_c, rots), rots


def _random_complex(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


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


def _trials(note: str):
    """The property ``(rng, n) -> (failures, max_dev, note)`` of a trial
    ``(rng, k) -> (deviation, failures)``: k = 0..n-1 in order, the failures
    summed, max_dev the largest deviation from 0.0 (a nan is never kept)."""
    def wrap(trial):
        def prop(rng, n):
            failures, worst = 0, 0.0
            for k in range(n):
                dev, bad = trial(rng, k)
                failures += bad
                worst = max(worst, dev)
            return failures, worst, note
        return prop
    return wrap


def _in_stacks(trials):
    """``trials(rng, n)``, which makes the trial-by-trial draws in order and
    evaluates them as one stack per local dimension (whose kernels give each
    trial's values bit for bit) and returns per-trial arrays, run on
    consecutive stacks of at most STACK_TRIALS trials and joined."""
    def run(rng, n, *args):
        stacks = (trials(rng, min(STACK_TRIALS, n - k), *args) for k in range(0, n, STACK_TRIALS))
        return [np.concatenate(parts) for parts in zip(*stacks)]
    return run


def _stacked(note: str):
    """The property of trials ``(rng, n) -> (deviations, failures)``, run
    by ``_in_stacks`` and reduced as ``_trials`` reduces them."""
    def wrap(trials):
        def prop(rng, n):
            dev, bad = prop.trials(rng, n)
            return int(np.sum(bad)), float(np.fmax.reduce(dev, initial=0.0)), note
        prop.trials = _in_stacks(trials)
        return prop
    return wrap


def _groups(draws: _Draws):
    """(trial indices, their checked ``StateStack``, the ``_unitaries`` of their drawn rotations or None) per local dimension."""
    return [(g.at, g.st, None if g.angles is None else _unitaries(g.st, g.angles)) for g in draws.groups]


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


def _raise_first(diverged, draws: _Draws, check):
    """Run ``check(sys, u)``, the trial-by-trial path, which raises, on the first diverged trial."""
    for k in np.flatnonzero(diverged)[:1]:
        g = next(g for g in draws.groups if k in g.at)
        j = int(np.flatnonzero(g.at == k)[0])
        sys = g.st.system(j)
        check(sys, dynamics.energy_preserving_unitary(sys.spectrum_c, _rotation_list(g, j)))


@_trials("associativity + bilinearity")
def _prop_kron_algebra(rng, k):
    a, b, c = (_random_complex(rng, side) for side in (2, 3, 2))
    dev = np.max(np.abs(linalg.kron(linalg.kron(a, b), c) - linalg.kron(a, linalg.kron(b, c))))
    s, t = rng.standard_normal(2)
    dev = max(dev, np.max(np.abs(linalg.kron(s * a + t * c, b) - (s * linalg.kron(a, b) + t * linalg.kron(c, b)))))
    return dev, dev >= 1e-12


@_trials("partial trace/transpose identities")
def _prop_partial_ops(rng, k):
    d_c, d_h = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    a, b = _random_complex(rng, d_c), _random_complex(rng, d_h)
    m = linalg.kron(a, b)
    dev = np.max(np.abs(linalg.partial_trace(m, (d_c, d_h), "H") - np.trace(b) * a))
    dev = max(dev, np.max(np.abs(linalg.partial_trace(m, (d_c, d_h), "C") - np.trace(a) * b)))
    pt = linalg.partial_transpose(m, (d_c, d_h), "H")
    dev = max(dev, np.max(np.abs(linalg.partial_transpose(pt, (d_c, d_h), "H") - m)))
    # a stack is transposed matrix by matrix (the path of min_pt_eig)
    dev = max(dev, np.max(np.abs(linalg.partial_transpose(np.stack([m, pt]), (d_c, d_h), "H") - [pt, m])))
    # spectrum of a product state is preserved under partial transposition
    rho, sig = a @ a.conj().T, b @ b.conj().T
    rho /= np.trace(rho).real
    sig /= np.trace(sig).real
    prod = linalg.kron(rho, sig)
    ev1 = linalg.hermitian_eigenvalues(prod)
    ev2 = linalg.hermitian_eigenvalues(linalg.partial_transpose(prod, (d_c, d_h), "H"))
    dev = max(dev, np.max(np.abs(ev1 - ev2)))
    return dev, dev >= 1e-10


@_stacked("unitarity, commutation, manifold confinement")
def _prop_unitarity(rng, n):
    dev = np.zeros(n)
    for at, st, u in _groups(_draw(rng, [(2, 5)] * n)):
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
    dev = np.abs(twice.rho - deph.rho).reshape(n, -1).max(axis=-1)
    shape = (n, *st.dims, *st.dims)
    for trace in ("nijil->njl", "nijkj->nik"):  # ``linalg.partial_trace`` over C, then over H
        lhs, rhs = (np.einsum(trace, x.rho.reshape(shape)) for x in (deph, st))
        # local spectra are nondegenerate, so dephasing the joint state
        # cannot move the marginals
        dev = pymax(dev, np.abs(lhs - rhs).reshape(n, -1).max(axis=-1))
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
        mh, tpm = (t.reshape(len(at), -1) for t in _tables(st, u))
        out[:, at] = np.abs(mh.sum(axis=-1) - 1.0), np.abs(tpm.sum(axis=-1) - 1.0), mh.min(axis=-1), tpm.min(axis=-1), mh.max(axis=-1)
    return out


def _prop_table_norm_range(rng, n):
    sum_mh, sum_tpm, mh_min, tpm_min, mh_max = _table_norm_trials(rng, n)
    bad = (pymax(sum_mh, sum_tpm) >= 1e-10) | (mh_min < fluctuations.MH_LOWER_BOUND - 1e-10) | (tpm_min < -1e-12)
    failures = np.count_nonzero(bad | (mh_max > 1 + 1e-10))
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
    dev = np.abs(mh - tpm).reshape(n, -1).max(axis=-1)
    # block dephasing never changes either table under energy-preserving U
    deph = st.with_rho(states.dephased_rho(st.rho, st.levels_c, st.levels_h))
    mh_deph, mh = (fluctuations.table_stack("MH", x, u.matrix, u.adjoint) for x in (deph, st))
    dev = pymax(dev, np.abs(mh_deph - mh).reshape(n, -1).max(axis=-1))
    return dev, dev >= 1e-12


@_stacked("exchange entries, Q, Q_TPM vs matrix route")
def _prop_two_qubit_closed_forms(rng, n):
    draws = _draw(rng, [2] * n, rotations=False, uniforms=((0.0, np.pi), (0.0, TAU), (0.0, TAU)))
    ((_, st, _),), (g,), (theta, phi, lam) = _groups(draws), draws.groups, draws.uniforms
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
    draws = _draw(rng, ([3, 4] * n)[:n])
    dev = np.zeros(n)
    for g, (at, st, u) in zip(draws.groups, _groups(draws)):
        for j, (k, mh, tpm) in enumerate(zip(at, *_tables(st, u))):
            sys, rots = st.system(j), _rotation_list(g, j)
            pw, tp = fluctuations.exchange_manifold_pw(sys, rots), fluctuations.exchange_manifold_tpm(sys, rots)
            dev[k] = max([0.0, *(abs(v - float(mh[key])) for key, v in pw.items()), *(abs(v - float(tpm[key])) for key, v in tp.items())])
    return dev, dev >= 1e-12


@_stacked("<e^{dI+dB dE}> = 1 + chi_bar")
def _prop_xft_identity(rng, n):
    draws = _draw(rng, ([2, 3] * n)[:n])
    dev, diverged = np.zeros(n), np.zeros(n, bool)
    for at, st, u in _groups(draws):
        mh = _tables(st, u)[0]
        lhs, _, vanishing = fluctuations.xft_average_stack(mh, st)
        resonance_ok = fluctuations.resonance_stack(mh, st.levels_c, st.levels_h)[0]
        chi, starved = fluctuations.xft_coherence_stack(st, u.matrix, u.adjoint)
        dev[at] = np.where(resonance_ok, np.abs(lhs - 1.0 - chi), np.inf)
        diverged[at] = ~fluctuations.xft_evaluable(starved, vanishing)

    def check(sys, u):
        fluctuations.xft_average(fluctuations.mh_distribution(sys, u), sys)
        fluctuations.xft_coherence_term(sys, u)

    _raise_first(diverged, draws, check)
    return dev, dev >= 1e-8


@_stacked("1 + J = <e^{dB dE}>; J <= ||c|| + ||q||")
def _prop_j_identity(rng, n):
    draws = _draw(rng, ([2, 3] * n)[:n])
    dev, bad, diverged = np.zeros(n), np.zeros(n, bool), np.zeros(n, bool)
    for at, st, u in _groups(draws):
        mh = _tables(st, u)[0]
        operators = fluctuations._correction_operators(st)
        j = fluctuations._correction_j(operators, u.matrix, u.adjoint)
        norm_bound = linalg.spectral_norms(fluctuations.diagonal_matrices(operators[1])) + linalg.spectral_norms(operators[2])
        dbeta = (st.beta_c - st.beta_h)[:, None, None, None, None]
        direct = (mh * np.exp(dbeta * fluctuations.energy_changes(st.levels_c, st.levels_h)[0])).reshape(len(at), -1).sum(axis=-1)
        dev[at] = np.abs(1.0 + j - direct)
        bad[at] = (dev[at] >= 1e-10) | (j > norm_bound + 1e-10)
        diverged[at] = operators[3]
    _raise_first(diverged, draws, fluctuations.heat_exp_correction)
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
    draws = _draw(rng, [2] * n, rotations=False, uniforms=((100.0, 400.0), (0.0, 6e-3), (0.0, 60.0)))
    ((_, st, _),), (j_hz, t, jx) = _groups(draws), draws.uniforms
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
    draws = _draw(rng, [2] * n, coherent, rotations=False, uniforms=((0.0, np.pi),))
    ((_, st, _),) = _groups(draws)
    u = _qubit_exchanges(draws.uniforms[0])
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
    draws = _draw(rng, [3] * n, rotations=False)
    ((_, st, _),), (g,) = _groups(draws), draws.groups
    populations = st.populations[:, [a for a, _ in _pairs(3)]]
    # pick each angle so the coherence term defeats the population term
    angles = [
        [(np.pi - 0.5 * np.arctan(abs(c) / max(pop, 1e-12)), 0.0, -float(np.angle(c)), 0.0) for c, pop in zip(*row)]
        for row in zip(g.coherences, populations)
    ]
    mh, tpm = _tables(st, _unitaries(st, np.array(angles)))
    checked = np.array([not min(abs(c) for c in row) < 1e-6 for row in g.coherences])
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
    draws = _draw(rng, [3] * n, rotations=False)
    ((_, st, _),), (g,) = _groups(draws), draws.groups
    # phases tuned so cos(xi + phi + lam) = 1, theta = pi/4 on all manifolds
    u = _unitaries(st, np.stack(np.broadcast_arrays(np.pi / 4.0, 0.0, -np.angle(g.coherences), 0.0), axis=-1))
    q = fluctuations.average_heat_stack(st, u.matrix, u.adjoint)
    q_tpm = fluctuations.table_heat_stack(_tables(st, u)[1], st.levels_c)
    target = np.array([fluctuations.max_heat_coherence_shift(st.system(k)) for k in range(n)])
    dev = np.abs(np.abs(q - q_tpm) - target)
    return dev, dev >= 1e-12


@_stacked("reconstruction exact for eps in {0.05, 0.2, pi/4}")
def _prop_probe_exactness(rng, n):
    draws = _draw(rng, ([2, 3] * n)[:n], integers=(None, None))  # each trial's target row (i_C, i_H) after its rotations
    dev, failures = np.zeros(n), np.zeros(n, int)
    for at, st, u in _groups(draws):
        for j, (k, mh) in enumerate(zip(at, fluctuations.table_stack("MH", st, u.matrix, u.adjoint))):
            dev[k], failures[k] = _probe_exactness_trial(st.system(j), u.matrix[j], mh, draws.integers[k].tolist())
    return dev, failures


def _probe_exactness_trial(sys, u, mh, target):
    """(deviation, failures) of the probe reconstruction of MH row ``target`` of one cell."""
    i_c, i_h = target
    failures, worst, recs = 0, 0.0, []
    for eps in (0.05, 0.2, np.pi / 4.0):
        stats = probe.probe_statistics(sys, u, (i_c, i_h), eps)
        rec = probe.reconstruct_quasiprobability(stats)
        recs.append(rec)
        dev = float(np.max(np.abs(rec - mh[i_c, i_h])))
        worst = max(worst, dev)
        failures += dev >= 1e-10
        e_plus, e_minus = probe.probe_effects(eps, sys.d_c * sys.d_h, i_c * sys.d_h + i_h)
        pov = np.max(np.abs(e_plus + e_minus - np.eye(sys.d_c * sys.d_h)))
        dq = stats.q_plus - stats.q_minus
        ident = np.sin(2 * eps) * (2 * mh[i_c, i_h] - stats.p_undisturbed)
        dev2 = max(pov, float(np.max(np.abs(dq - ident))))
        worst = max(worst, dev2)
        failures += dev2 >= 1e-12
    failures += float(np.max(np.abs(recs[0] - recs[2]))) >= 1e-10
    return worst, failures


@_stacked("smaller coupling disturbs less")
def _prop_probe_disturbance(rng, n):
    draws = _draw(rng, [2] * n, rotations=False, integers=(4,))
    ((_, st, _),), idx = _groups(draws), draws.integers[:, 0]
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
    draws = _draw(rng, [2] * max(1, min(n, 20)), integers=(2**31,))
    ((_, st, u),) = _groups(draws)
    failures, worst = 0, 0.0
    for k, seed in enumerate(draws.integers[:, 0].tolist()):
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
    drawn, failures = [], np.zeros(n, int)
    for k in range(n):
        beta_h = rng.uniform(0.1, 1.2)
        beta_c = beta_h + rng.uniform(0.1, 1.5)
        lo, hi = states.TwoQubitParams(beta_c, beta_h, 0.0).p00_bounds()
        inside = lo + rng.uniform(0.0, 1.0) * (hi - lo)
        cap = states.TwoQubitParams(beta_c, beta_h, inside).eta_cap()
        drawn.append(states.two_qubit_entries(states.TwoQubitParams(beta_c, beta_h, inside)))
        for outside in ((hi + max(1e-6, 0.05 * (hi - lo)), 0.0), (inside, cap * 1.05 + 1e-6)):  # P00, then eta
            try:
                states.two_qubit_state(states.TwoQubitParams(beta_c, beta_h, *outside))
                failures[k] += 1
            except states.InfeasibleStateError:
                pass
        drawn.append(states.two_qubit_entries(states.TwoQubitParams(beta_c, beta_h, inside, eta=cap)))
    # each state inside the bounds is valid, and at the boundary eta PSD up to tolerance
    rho = states.valid_stack(states.exchange_stack(drawn)).rho[1::2]
    return pymax(0.0, -np.linalg.eigvalsh(rho)[:, 0]), failures


@_trials("threshold log(d)/dBeta behaves")
def _prop_strong_backflow(rng, k):
    beta_h = rng.uniform(0.1, 1.0)
    beta_c = beta_h + rng.uniform(0.1, 1.0)
    d = int(rng.integers(2, 5))
    threshold = np.log(d) / (beta_c - beta_h)
    above = witnesses.strong_backflow_witness(threshold * 1.001, beta_c, beta_h, d)
    below = witnesses.strong_backflow_witness(threshold * 0.999, beta_c, beta_h, d)
    zero = witnesses.strong_backflow_witness(0.0, beta_c, beta_h, d)
    return 0.0, (not above.violated) + below.violated + zero.violated


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
