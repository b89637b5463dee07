"""Transition tables, heat functionals and exchange-fluctuation identities.

Two distributions over energy transitions (i_C, i_H) -> (f_C, f_H):

  * TPM:            p[i -> f] = rho_ii |<f|U|i>|^2   (a true probability;
                    the first projective measurement removes coherences);
  * Margenau-Hill:  p[i -> f] = Re <f|U|i><i| rho U^dag |f>   (real, sums
                    to one, entries in [-1/8, 1], reproduces the heat of
                    the undisturbed state).

Heat bookkeeping: dE_C = E(i_C) - E(f_C) per entry, and
Q = sum p * dE_C, so Q > 0 means net energy leaving C (backflow C -> H).
Only the real part of the Margenau-Hill expression is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import unwrap
from .states import BipartiteSystem, StateStack

MH_LOWER_BOUND = -0.125
NEGLIGIBLE_WEIGHT = 1e-12
NEGATIVE_ENTRY_TOL = 1e-14

CSV_HEADER = "i_C,i_H,f_C,f_H,value,dE_C,dE_H"


class DivergenceError(ValueError):
    """A fluctuation functional hit a vanishing population or domain edge."""


def energy_changes(energies_c, energies_h) -> tuple[np.ndarray, np.ndarray]:
    """(dE_C, dE_H) at each entry [i_C, i_H, f_C, f_H] of a transition table;
    per cell for (n, d) level arrays."""
    ec, eh = np.asarray(energies_c), np.asarray(energies_h)
    shape = ec.shape[:-1] + (ec.shape[-1], eh.shape[-1]) * 2
    de_c = ec[..., :, None, None, None] - ec[..., None, None, :, None]
    de_h = eh[..., None, :, None, None] - eh[..., None, None, None, :]
    return np.broadcast_to(de_c, shape), np.broadcast_to(de_h, shape)


def _formatted(x, template: str = "{:.17g}") -> np.ndarray:
    """``template`` applied to each entry of ``x``, as an object array of the
    same shape; each distinct bit pattern (so -0.0 apart from 0.0) is
    formatted once."""
    x = np.ascontiguousarray(x, dtype=float)
    bits, index = np.unique(x.reshape(-1).view(np.int64), return_inverse=True)
    text = np.array(list(map(template.format, bits.view(float).tolist())), dtype=object)
    return text[index].reshape(x.shape)


def transition_csv(energies_c, energies_h, initial, values, stderr=None) -> str:
    """Transition-table CSV of the rows with initial levels ``initial``.

    ``values`` (and ``stderr``, which adds a last column) hold each initial
    pair's weights over the final levels (f_C, f_H) in C order, pair after
    pair.  Every number is written with 17 significant digits.  Each
    distinct value is formatted once, and each index and dE string once
    per level pair; the rows are laid out as an object array of those
    strings, one column per field, and joined once.
    """
    fmt = "{:.17g}".format
    d_c, d_h = len(energies_c), len(energies_h)
    i_c, i_h = np.array(list(initial), dtype=int).reshape(-1, 2).T
    end, header = ("\n", CSV_HEADER) if stderr is None else ("", CSV_HEADER + ",stderr")
    pairs = np.array([[f"{a},{b}," for b in range(d_h)] for a in range(d_c)], dtype=object)
    parts = np.empty((len(i_c), d_c, d_h, 5 if stderr is None else 6), dtype=object)
    parts[..., 0] = pairs[i_c, i_h][:, None, None]
    parts[..., 1] = pairs
    parts[..., 2] = _formatted(values).reshape(-1, d_c, d_h)
    de_c = np.array([[f",{fmt(e - f)}," for f in energies_c] for e in energies_c], dtype=object)
    de_h = np.array([[f"{fmt(e - f)}{end}" for f in energies_h] for e in energies_h], dtype=object)
    parts[..., 3] = de_c[i_c][:, :, None]
    parts[..., 4] = de_h[i_h][:, None, :]
    if stderr is not None:
        parts[..., 5] = _formatted(stderr, ",{:.17g}\n").reshape(-1, d_c, d_h)
    return header + "\n" + "".join(parts.reshape(-1).tolist())


@dataclass(frozen=True)
class TransitionTable:
    """Dense table of transition weights with the local spectra attached.

    ``values`` has shape (d_C, d_H, d_C, d_H) indexed [i_C, i_H, f_C, f_H].
    """

    kind: str  # "TPM" or "MH"
    values: np.ndarray
    energies_c: tuple[float, ...]
    energies_h: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("TPM", "MH"):
            raise ValueError(f"kind must be 'TPM' or 'MH', got {self.kind!r}")
        v = np.array(self.values, dtype=float)
        d_c, d_h = len(self.energies_c), len(self.energies_h)
        if v.shape != (d_c, d_h, d_c, d_h):
            raise ValueError(f"values shape {v.shape} does not match spectra")
        check_tables(self.kind, v[None])
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "energies_c", tuple(float(e) for e in self.energies_c))
        object.__setattr__(self, "energies_h", tuple(float(e) for e in self.energies_h))

    @classmethod
    def _checked(cls, kind: str, values: np.ndarray, energies_c, energies_h) -> "TransitionTable":
        """The table of values ``check_tables`` passed (levels: tuples of floats), built without checking again."""
        table = object.__new__(cls)
        values.setflags(write=False)
        table.__dict__.update(kind=kind, values=values, energies_c=energies_c, energies_h=energies_h)
        return table

    @property
    def dims(self) -> tuple[int, int]:
        return (len(self.energies_c), len(self.energies_h))

    def entry(self, i_c: int, i_h: int, f_c: int, f_h: int) -> float:
        return float(self.values[i_c, i_h, f_c, f_h])

    def min_entry(self) -> float:
        return float(self.values.min())

    def initial_marginal(self) -> np.ndarray:
        """Sum over final indices -> (d_C, d_H)."""
        return self.values.sum(axis=(2, 3))

    def final_marginal(self) -> np.ndarray:
        """Sum over initial indices -> (d_C, d_H)."""
        return self.values.sum(axis=(0, 1))

    def delta_e_c(self) -> np.ndarray:
        return energy_changes(self.energies_c, self.energies_h)[0]

    def delta_e_h(self) -> np.ndarray:
        return energy_changes(self.energies_c, self.energies_h)[1]

    def negative_entries(self) -> list[tuple[tuple[int, int, int, int], float]]:
        out = []
        for idx in np.argwhere(self.values < -NEGATIVE_ENTRY_TOL):
            key = tuple(int(k) for k in idx)
            out.append((key, float(self.values[key])))
        return out

    def to_csv(self) -> str:
        """CSV serialization, 17 significant digits per value."""
        return transition_csv(self.energies_c, self.energies_h, np.ndindex(self.dims), self.values)


@dataclass(frozen=True)
class HeatReport:
    """Net heat, its TPM counterpart, and the direct/back decomposition."""

    q: float
    q_back: float
    q_direct: float
    q_tpm: float | None = None
    negative_entries: tuple = ()


@dataclass(frozen=True)
class XftReport:
    """Exchange-fluctuation average <e^{dI + dBeta dE}> over an MH table.

    When the dynamics conserves energy entry-by-entry (resonance_ok) and
    the coherence term chi_bar is supplied, lhs = 1 + chi_bar holds to
    numerical precision.
    """

    lhs: float
    avg_delta_i: float
    resonance_ok: bool
    max_energy_mismatch: float
    chi_bar: float | None = None

    def with_chi(self, chi: float) -> "XftReport":
        return replace(self, chi_bar=chi)

    def identity_gap(self) -> float:
        if self.chi_bar is None:
            raise ValueError("chi_bar not attached")
        return abs(self.lhs - 1.0 - self.chi_bar)


def tpm_distribution(sys: BipartiteSystem, u) -> TransitionTable:
    """Two-point-measurement transition probabilities."""
    return _one_table("TPM", sys, u)


def mh_distribution(sys: BipartiteSystem, u) -> TransitionTable:
    """Margenau-Hill quasiprobability table (real part only)."""
    return _one_table("MH", sys, u)


def marginal_check(
    table: TransitionTable,
    sys: BipartiteSystem,
    u,
    against_dephased: bool | None = None,
) -> float:
    """Max deviation of the table marginals from the state's energy statistics.

    The initial-index marginal is compared with diag(rho) and the
    final-index marginal with diag(U rho U^dag).  TPM tables compare
    against the dephased state by default (their defining property);
    pass against_dephased=False to quantify how far the TPM marginals
    sit from the undisturbed statistics.
    """
    u = unwrap(u)
    if against_dephased is None:
        against_dephased = table.kind == "TPM"
    rho = np.diag(np.diag(sys.rho)) if against_dephased else sys.rho
    d_c, d_h = sys.dims
    init = np.real(np.diag(rho)).reshape(d_c, d_h)
    final = np.real(np.diag(u @ rho @ u.conj().T)).reshape(d_c, d_h)
    dev_i = np.max(np.abs(table.initial_marginal() - init))
    dev_f = np.max(np.abs(table.final_marginal() - final))
    return float(max(dev_i, dev_f))


def average_heat(sys: BipartiteSystem, u) -> float:
    """Q = tr(rho H_C) - tr(U rho U^dag H_C); Q > 0 is backflow C -> H."""
    u = unwrap(u)
    h_c = np.kron(sys.spectrum_c.hamiltonian(), np.eye(sys.d_h))
    rho_t = u @ sys.rho @ u.conj().T
    return float(np.real(np.trace(sys.rho @ h_c) - np.trace(rho_t @ h_c)))


def table_heat(table: TransitionTable) -> float:
    """Q = sum of entry * (E_iC - E_fC)."""
    return float(table_heat_stack(table.values[None], table.energies_c)[0])


def flow_decomposition(table: TransitionTable, q_tpm: float | None = None) -> HeatReport:
    """Split the net heat into back (C -> H) and direct (H -> C) flows.

    With p+ / p- the positive / negative parts of the table, summing over
    index pairs with E_iC > E_fC:

        Q_back   = sum (p+[i->f] - p-[f->i]) * dE
        Q_direct = sum (p+[f->i] - p-[i->f]) * dE

    so a negative entry contributes to the flow *opposite* to its
    transition direction.  Q_back - Q_direct equals the table heat.
    """
    q_back, q_direct = flow_decomposition_stack(table.values[None], table.energies_c, table.energies_h)
    return HeatReport(
        q=table_heat(table),
        q_back=float(q_back[0]),
        q_direct=float(q_direct[0]),
        q_tpm=q_tpm,
        negative_entries=tuple(table.negative_entries()),
    )


def heat_report(sys: BipartiteSystem, u) -> HeatReport:
    """Full heat bookkeeping for one state/protocol pair."""
    mh = mh_distribution(sys, u)
    tpm = tpm_distribution(sys, u)
    return flow_decomposition(mh, q_tpm=table_heat(tpm))


def exchange_manifold_pw(sys: BipartiteSystem, rotations) -> dict[tuple, float]:
    """Closed-form MH entries on the exchange manifolds.

    For a manifold (n, m) with n < m, indices a = n*d+m, b = m*d+n and a
    block rotation by theta with phases (phi, lam):

        p[a -> b] = rho_aa sin^2(theta) + Re(rho_ab e^{i(phi+lam)}) sin cos
        p[b -> a] = rho_bb sin^2(theta) - Re(rho_ab e^{i(phi+lam)}) sin cos

    Keys are (i_C, i_H, f_C, f_H).  Requires equal local spectra with
    nondegenerate gaps; matches the generic matrix computation exactly.
    """
    if sys.spectrum_c != sys.spectrum_h:
        raise ValueError("exchange closed forms need equal local spectra")
    if not sys.spectrum_c.bohr_nondegenerate():
        raise DivergenceError("degenerate Bohr spectrum")
    d = sys.d_c
    pops = sys.populations()
    out: dict[tuple, float] = {}
    for rot in rotations:
        n, m = rot.level_pair
        a, b = n * d + m, m * d + n
        st, ct = np.sin(rot.theta), np.cos(rot.theta)
        coh = float(np.real(sys.rho[a, b] * np.exp(1j * (rot.phi + rot.lam)))) * st * ct
        out[(n, m, m, n)] = pops[a] * st**2 + coh
        out[(m, n, n, m)] = pops[b] * st**2 - coh
    return out


def exchange_heat_shift(sys: BipartiteSystem, rotations) -> float:
    """Closed-form Q - Q_TPM for manifold protocols.

    Sum over manifolds n < m of -Re(rho_ab e^{i(phi+lam)}) sin(2 theta)
    times the gap E_m - E_n; the coherence is the only source of the
    shift, so it vanishes on dephased states.
    """
    if sys.spectrum_c != sys.spectrum_h:
        raise ValueError("exchange closed forms need equal local spectra")
    d = sys.d_c
    levels = sys.spectrum_c.levels
    total = 0.0
    for rot in rotations:
        n, m = rot.level_pair
        a, b = n * d + m, m * d + n
        coh = float(np.real(sys.rho[a, b] * np.exp(1j * (rot.phi + rot.lam))))
        total -= coh * np.sin(2.0 * rot.theta) * (levels[m] - levels[n])
    return total


def exchange_manifold_tpm(sys: BipartiteSystem, rotations) -> dict[tuple, float]:
    """Closed-form TPM entries on the exchange manifolds."""
    if sys.spectrum_c != sys.spectrum_h:
        raise ValueError("exchange closed forms need equal local spectra")
    d = sys.d_c
    pops = sys.populations()
    out: dict[tuple, float] = {}
    for rot in rotations:
        n, m = rot.level_pair
        a, b = n * d + m, m * d + n
        s2 = np.sin(rot.theta) ** 2
        out[(n, m, m, n)] = pops[a] * s2
        out[(m, n, n, m)] = pops[b] * s2
    return out


def two_qubit_exchange_probs(
    theta: float,
    eta: float,
    xi: float,
    beta_c: float,
    beta_h: float,
    p00: float,
    gap: float = 1.0,
    phi: float = 0.0,
    lam: float = 0.0,
) -> dict[str, float]:
    """Closed-form two-qubit exchange entries.

    Returns the four interesting entries keyed 'tpm_01_10', 'tpm_10_01',
    'mh_01_10', 'mh_10_01' (initial -> final in C-major labels).
    """
    z_c = 1.0 + np.exp(-beta_c * gap)
    z_h = 1.0 + np.exp(-beta_h * gap)
    s2 = np.sin(theta) ** 2
    coh = eta * np.cos(xi + phi + lam) * np.sin(theta) * np.cos(theta)
    tpm_01 = (1.0 / z_c - p00) * s2
    tpm_10 = (1.0 / z_h - p00) * s2
    return {
        "tpm_01_10": tpm_01,
        "tpm_10_01": tpm_10,
        "mh_01_10": tpm_01 + coh,
        "mh_10_01": tpm_10 - coh,
    }


def two_qubit_heat(
    theta: float,
    eta: float,
    xi: float,
    beta_c: float,
    beta_h: float,
    gap: float = 1.0,
    phi: float = 0.0,
    lam: float = 0.0,
) -> float:
    """Closed-form net heat for the resonant two-qubit exchange.

    Q = -eta cos(xi+phi+lam) sin(2 theta) E
        + sin^2(theta) E (1/(1+e^{beta_C E}) - 1/(1+e^{beta_H E})).
    Independent of P00.
    """
    coherent = -eta * np.cos(xi + phi + lam) * np.sin(2.0 * theta) * gap
    return float(coherent + two_qubit_tpm_heat(theta, beta_c, beta_h, gap))


def two_qubit_tpm_heat(
    theta: float, beta_c: float, beta_h: float, gap: float = 1.0
) -> float:
    """Closed-form TPM heat; never positive when beta_C > beta_H."""
    diff = 1.0 / (1.0 + np.exp(beta_c * gap)) - 1.0 / (1.0 + np.exp(beta_h * gap))
    return float(np.sin(theta) ** 2 * gap * diff)


def xft_coherence_term(sys: BipartiteSystem, u) -> float:
    """Coherence correction chi_bar to the exchange-fluctuation average.

    chi_bar = sum over l and pairs k != m of
              (rho_ll / rho_kk) Re{ rho_km <l|U|k> <m|U^dag|l> }.

    Diverges when a population rho_kk vanishes while its coherence row
    still carries weight; that case raises DivergenceError.
    """
    states, u, uh = _one_cell(sys, u)
    chi, starved = xft_coherence_stack(states, u, uh)
    if starved.any():
        k = int(np.argmax(starved[0]))
        raise DivergenceError(
            f"population rho_{k}{k} = {states.populations[0, k]:.3e} divides a nonzero coherence term"
        )
    return float(chi[0])


def xft_average(table: TransitionTable, sys: BipartiteSystem) -> XftReport:
    """<e^{dI + dBeta dE_C}> over an MH table, plus <dI>.

    dI uses the correlation elements I = log(rho_ii / (p_C p_H)) of the
    initial state.  Entries with |p| <= 1e-12 are skipped (0 log 0
    convention); a vanishing population or marginal that is actually
    needed raises DivergenceError instead of being clamped.  The report
    flags whether every contributing entry conserves energy (the regime
    in which the identity lhs = 1 + chi_bar applies).  The table's spectra
    are the system's.
    """
    if table.kind != "MH":
        raise ValueError("the exchange-fluctuation average is defined on MH tables")
    if sys.beta_c is None or sys.beta_h is None:
        raise ValueError("system must carry its inverse temperatures")
    lhs, avg_di, resonance_ok, max_mismatch, vanishing = xft_average_stack(table.values[None], sys.stack)
    for label, bad in vanishing.items():  # the first vanishing value, in this order
        if bad.any():
            idx = np.argwhere(bad[0])[0]
            raise DivergenceError(f"{label}{tuple(int(i) for i in idx)} vanishes inside a log")
    return XftReport(
        lhs=float(lhs[0]),
        avg_delta_i=float(avg_di[0]),
        resonance_ok=bool(resonance_ok[0]),
        max_energy_mismatch=float(max_mismatch[0]),
    )


@dataclass(frozen=True)
class HeatExpCorrection:
    """Correction J with <e^{dBeta dE_C}>_MH = 1 + J, plus its norm bound.

    J splits into a population part (zero when the joint populations are
    the product of the marginals) and a coherence part (zero for states
    diagonal in the energy basis).  ``c`` and ``q`` are the operators of
    the two parts; their spectral norms (``population_norm``,
    ``coherence_norm``) are computed on access, since most callers read
    only ``j``.
    """

    j: float
    c: np.ndarray = field(repr=False, compare=False)
    q: np.ndarray = field(repr=False, compare=False)

    @property
    def population_norm(self) -> float:
        return float(np.linalg.norm(self.c, 2))

    @property
    def coherence_norm(self) -> float:
        return float(np.linalg.norm(self.q, 2))

    @property
    def norm_bound(self) -> float:
        return self.population_norm + self.coherence_norm


def heat_exp_correction(sys: BipartiteSystem, u) -> HeatExpCorrection:
    """J = Re tr{ U^dag (rho_C x rho_H) U (c + q) } for energy-preserving U;
    raises DivergenceError when a product-marginal population vanishes."""
    states, u, uh = _one_cell(sys, u)
    operators = _correction_operators(states)
    _, c, q, divergent = operators
    if divergent[0]:
        raise DivergenceError("a product-marginal population vanishes")
    j = _correction_j(operators, u, uh)
    return HeatExpCorrection(j=float(j[0]), c=np.diag(c[0].astype(complex)), q=q[0])


def max_heat_coherence_shift(sys: BipartiteSystem) -> float:
    """Largest |Q - Q_TPM| reachable by energy-preserving protocols.

    Equals sum over manifolds of |coherence| * gap; attained at
    quarter rotations with the phases tuned so cos(xi+phi+lam) = +-1.
    """
    if sys.spectrum_c != sys.spectrum_h:
        raise ValueError("defined for equal local spectra")
    d = sys.d_c
    levels = sys.spectrum_c.levels
    total = 0.0
    for m in range(d):
        for n in range(m + 1, d):  # n > m so E_n > E_m
            a, b = n * d + m, m * d + n
            total += abs(sys.rho[a, b]) * (levels[n] - levels[m])
    return float(total)


# --- stacks of cells ------------------------------------------------------
# The functions below evaluate an (n, D, D) stack of unitaries, each on
# its own cell's state: they read a ``StateStack`` (or per-cell level
# arrays) where the single-cell functions above read a BipartiteSystem.
# They are the one implementation of the MH and TPM tables, the heat
# split, chi_bar, the XFT average and J: the single-cell names above check
# their arguments, run their kernel on the system's one-row ``stack`` and
# raise where the kernel marks that cell.  Every value equals the scalar
# reference kept in the tests bit for bit: an elementwise op, a per-slice
# matmul/trace and a reduction over a contiguous last axis all compute per
# cell exactly what the single-matrix call does.  ``uh`` is the stack's
# U^dag, conjugated once per stack and seen through ``swapaxes(-1, -2)``
# as ``u.conj().swapaxes(-1, -2)`` would be, so each product makes the
# BLAS call a single-matrix one makes.


def _one_cell(sys: BipartiteSystem, u):
    """(state stack, unitary stack, its U^dag) of one cell."""
    u = unwrap(u)[None]
    return sys.stack, u, u.conj().swapaxes(-1, -2)


def _one_table(kind: str, sys: BipartiteSystem, u) -> TransitionTable:
    """The MH or TPM table of one cell, by ``table_stack``."""
    values = table_stack(kind, *_one_cell(sys, u))[0]
    return TransitionTable._checked(kind, values, sys.spectrum_c.levels, sys.spectrum_h.levels)


def masked_sums(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per cell k, ``x[k][mask[k]].sum()``, adding the same elements in the
    same order; ``mask`` is one mask for every cell (with or without a
    leading axis of 1) or one per cell.

    The selected entries of a cell form one C-contiguous row, summed as
    the 1-D selection is (``x[:, mask]`` comes out column-major and sums
    in another order).  Per-cell masks are grouped by pattern: zero-filling
    the unselected entries would move elements between the pairwise
    partial sums and change the rounding.
    """
    n = len(x)
    flat = x.reshape(n, -1)
    mask = mask.reshape(-1, flat.shape[1])
    if (mask == mask[:1]).all():  # one pattern (one shared mask, or per-cell masks that agree)
        return np.compress(mask[0], flat, axis=1).sum(axis=-1)
    packed = np.packbits(mask, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]  # one bytes key per cell
    order = np.argsort(keys, kind="stable")
    out = np.empty(n)
    for cells in np.split(order, np.flatnonzero(keys[order][1:] != keys[order][:-1]) + 1):
        out[cells] = np.compress(mask[cells[0]], flat[cells], axis=1).sum(axis=-1)
    return out


def check_tables(kind: str, values: np.ndarray) -> None:
    """Raise unless each MH or TPM table of an (n, d_C, d_H, d_C, d_H) stack
    sums to 1 and has its entries in range; the error names the first bad
    table's first failed check."""
    flat = values.reshape(len(values), -1)
    total = flat.sum(axis=-1)
    floor, ceiling = (MH_LOWER_BOUND - 1e-10 if kind == "MH" else -1e-12), 1.0 + 1e-10
    # a screen of every table at once passes when every table does (rounding
    # is monotone; fmax and fmin skip nan, and a table with a nan passes)
    if (
        np.fmax.reduce(total, initial=-np.inf) - 1.0 <= 1e-10
        and 1.0 - np.fmin.reduce(total, initial=np.inf) <= 1e-10
        and np.fmin.reduce(flat, axis=None, initial=np.inf) >= floor
        and np.fmax.reduce(flat, axis=None, initial=-np.inf) <= ceiling
    ):
        return
    for table_total, lo, hi in zip(total, flat.min(axis=-1), flat.max(axis=-1)):
        if abs(table_total - 1.0) > 1e-10:
            raise ValueError(f"table sums to {table_total}, expected 1")
        if lo < floor:
            raise ValueError(f"MH entry {lo} below -1/8" if kind == "MH" else f"TPM entry {lo} below 0")
        if hi > ceiling:
            raise ValueError(f"entry {hi} above 1")


def table_stack(kind: str, states: StateStack, u: np.ndarray, uh: np.ndarray) -> np.ndarray:
    """MH or TPM values of each unitary of a stack, shape (n, d_C, d_H, d_C, d_H).

    Every table gets the checks of ``check_tables``.  MH reads ``uh``, the
    stack's U^dag.
    """
    if u.shape[-1] != states.rho.shape[-1]:
        raise ValueError("unitary dimension does not match the system")
    ut = u.swapaxes(-1, -2)
    # each product is formed in place (the same ufuncs, operands and order
    # as the single-cell expression), and MH keeps only its real part
    if kind == "MH":
        vals = states.rho @ uh
        vals = np.multiply(ut, vals, out=vals).real.copy()
    else:
        vals = np.square(np.abs(ut))
        np.multiply(vals, states.populations[:, :, None], out=vals)
        np.clip(vals, 0.0, None, out=vals)
    vals = vals.reshape(len(u), *states.dims * 2)
    check_tables(kind, vals)
    return vals


def table_heat_stack(values: np.ndarray, energies_c) -> np.ndarray:
    """``table_heat`` of each table of a stack; one spectrum or one per cell."""
    m = values.sum(axis=(2, 4))
    ec = np.asarray(energies_c)
    return (m * (ec[..., :, None] - ec[..., None, :])).reshape(len(values), -1).sum(axis=-1)


def flow_decomposition_stack(values: np.ndarray, energies_c, energies_h):
    """(Q_back, Q_direct) of ``flow_decomposition`` for each table of a
    stack; one pair of spectra or one per cell."""
    pos = np.clip(values, 0.0, None)
    neg = np.clip(values, None, 0.0)
    pos_rev = pos.transpose(0, 3, 4, 1, 2)
    neg_rev = neg.transpose(0, 3, 4, 1, 2)
    de = energy_changes(energies_c, energies_h)[0]
    mask = de > 1e-12
    q_back = masked_sums((pos - neg_rev) * de, mask)
    q_direct = masked_sums((pos_rev - neg) * de, mask)
    return q_back, q_direct


def xft_coherence_stack(states: StateStack, u: np.ndarray, uh: np.ndarray):
    """(chi_bar, starved) of ``xft_coherence_term`` for each unitary of a stack.

    ``starved`` (n, D) marks each population rho_kk that is negligible but
    divides a nonzero coherence term: the cells with one are those where
    ``xft_coherence_term`` raises DivergenceError, and their chi_bar is
    meaningless.
    """
    pops = states.populations
    # term[k, m] = rho_km (U^dag diag(pops) U)_mk
    num = states.rho * (uh @ (pops[:, :, None] * u)).swapaxes(-1, -2)
    diag = np.arange(num.shape[-1])
    num[:, diag, diag] = 0.0
    needed = np.abs(num) > 1e-15
    starved = (needed & (pops[:, :, None] <= NEGLIGIBLE_WEIGHT)).any(axis=2)
    safe = np.where(pops > NEGLIGIBLE_WEIGHT, pops, 1.0)
    chi = np.real(np.divide(num, safe[:, :, None], out=num)).reshape(len(u), -1).sum(axis=-1)
    return chi, starved


def xft_average_stack(values: np.ndarray, states: StateStack):
    """(lhs, avg_delta_i, resonance_ok, max_energy_mismatch, vanishing) of
    ``xft_average`` for each MH table of a stack.

    ``vanishing`` maps "population", "marginal_C" and "marginal_H" to
    per-cell masks, (n, d_C, d_H), (n, d_C) and (n, d_H), of the values
    that vanish although a contributing entry needs their log: the cells
    with one are those where ``xft_average`` raises DivergenceError.  The
    |p| > 1e-12 mask differs from cell to cell, so its sums go through
    ``masked_sums``.
    """
    n = len(values)
    d_c, d_h = states.dims
    p = values
    mask = np.abs(p) > NEGLIGIBLE_WEIGHT

    pops = states.populations.reshape(-1, d_c, d_h)
    pc, ph = states.marginal_c, states.marginal_h
    needed = mask.any(axis=(3, 4)) | mask.any(axis=(1, 2))
    vanishing = {
        "population": needed & (pops <= 0.0),
        "marginal_C": needed.any(axis=2) & (pc <= 0.0),
        "marginal_H": needed.any(axis=1) & (ph <= 0.0),
    }
    log_pop, log_pc, log_ph = (np.log(np.where(x > 0.0, x, 1.0)) for x in (pops, pc, ph))
    info = log_pop - log_pc[:, :, None] - log_ph[:, None, :]  # I at each (c, h)

    # [k, i_C, i_H, f_C, f_H] = I_f - I_i
    delta_i = info[:, None, None, :, :] - info[:, :, :, None, None]
    de_c, de_h = energy_changes(states.levels_c, states.levels_h)
    mismatch = np.abs(de_c + de_h)
    levels = np.concatenate([states.levels_c, states.levels_h], axis=-1)
    energy_scale = np.maximum(1.0, np.abs(levels).max(axis=-1))
    max_mismatch = np.where(mask, mismatch, 0.0).reshape(n, -1).max(axis=-1)
    resonance_ok = max_mismatch <= 1e-9 * energy_scale

    delta_beta = (states.beta_c - states.beta_h)[:, None, None, None, None]
    weight = np.exp(np.where(mask, delta_i + delta_beta * de_c, 0.0))
    lhs = masked_sums(p * weight, mask)
    avg_di = masked_sums(p * np.where(mask, delta_i, 0.0), mask)
    return lhs, avg_di, resonance_ok, max_mismatch, vanishing


def _correction_operators(states: StateStack):
    """(product populations, diagonal of c, q, divergent) of the correction
    J, per state row: c = diag(rho_ii / (p_C p_H) - 1) and q is rho / (p_C
    p_H) off the diagonal.  ``divergent`` marks the rows where a
    product-marginal population vanishes; their operators are
    meaningless."""
    side = states.rho.shape[-1]
    qpop = (states.marginal_c[:, :, None] * states.marginal_h[:, None, :]).reshape(-1, side)
    divergent = qpop.min(axis=-1) <= NEGLIGIBLE_WEIGHT
    qpop = np.where(divergent[:, None], 1.0, qpop)
    q = states.rho / qpop[:, :, None]
    diag = np.arange(side)
    q[:, diag, diag] = 0.0
    return qpop, states.populations / qpop - 1.0, q, divergent


def _correction_j(operators, u: np.ndarray, uh: np.ndarray) -> np.ndarray:
    """J of each unitary of a stack, from its state's ``_correction_operators``."""
    qpop, c, q, _ = operators
    # c + q, each entry plus the other operator's +0.0 (c is never -0.0)
    c_plus_q = q + 0.0
    diag = np.arange(q.shape[-1])
    c_plus_q[:, diag, diag] = c
    evolved_product = uh @ (qpop[:, :, None] * u)
    return np.real(np.trace(evolved_product @ c_plus_q, axis1=-2, axis2=-1))


def heat_exp_j_stack(states: StateStack, u: np.ndarray, uh: np.ndarray):
    """(j, divergent) of ``heat_exp_correction(sys, u).j`` for each unitary
    of a stack.

    ``divergent`` marks the cells where ``heat_exp_correction`` raises
    DivergenceError, as a product-marginal population vanishes; their j
    is meaningless.
    """
    operators = _correction_operators(states)
    return _correction_j(operators, u, uh), np.broadcast_to(operators[3], (len(u),))
