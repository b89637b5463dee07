"""Workload inputs generated from a seed.

Seed 0 reproduces the shipped configs exactly.  Any other seed shifts each
sweep axis by a fraction of one grid step and jitters the fixed parameters
by about 1%, keeping every cell count fixed.  Jitter directions are chosen
so that the set of infeasible cells does not change with the seed: the
shipped grids sit within ~1% of their feasibility edges, and a workload
whose infeasible-cell count moved with the seed would change its cost.

Inputs are plain data (config dicts and qudit parameters); nothing here
imports the program.
"""

from __future__ import annotations

import math
import random

JITTER = 0.01

# Per fixed parameter: (key, seed-0 value, jitter mode).  Modes: "+" / "-"
# move the value up / down by up to 1%, "~" either way, "abs" adds up to
# +-0.01 (for parameters whose shipped value is 0), None keeps it fixed.
# "-" on the gamma-correlated betas, gap and |gamma| (and "+" on the
# qubit-grid betas with "-" on P00) only ever widen the coherence cap,
# which the shipped grids approach to within 1.1%.
_GAMMA_PAIR = [
    ("state.beta_C", 1.13, "-"),
    ("state.beta_H", 0.9618, "-"),
    ("state.gamma", -0.19, "-"),
]
_QUTRIT_STATE = [
    ("state.beta_C", 1.3, "~"),
    ("state.beta_H", 0.3, "~"),
    ("state.E1", 1.0, "~"),
    ("state.E2", 1.15, "~"),
    ("state.rho_0", 0.3, "~"),
    ("state.rho_5", 0.03, "~"),
    ("state.rho_7", 0.07, "~"),
    ("state.rho_8", 0.06, "~"),
    ("state.eta", 1.0, "-"),
    ("state.xi", 0.0, "abs"),
]

# Sweep configs: fixed parameters, axes (name, min, max, points, largest
# shift as a fraction of a step), outputs, and whether the dynamics is
# energy preserving (then Q_tpm <= 0 must hold in every ok cell).
SWEEPS = {
    "experiment_time": dict(
        scenario="experiment-time",
        fixed=_GAMMA_PAIR + [("state.E", 1.0, "-"), ("unitary.J", 215.1, "~")],
        axes=[("t", 0.0, 0.009298, 187, 0.5)],
        outputs="theta,Q,Q_tpm,min_pw,negativity,t1_violated,t1_bound,"
        "strong_backflow_violated,min_pt_eig",
        energy_preserving=True,
    ),
    "qubit_grid": dict(
        scenario="qubit-theta-eta",
        fixed=[
            ("state.beta_C", 1.13, "+"),
            ("state.beta_H", 0.962, "+"),
            ("state.P00", 0.547, "-"),
            ("state.xi", 0.0, "abs"),
        ],
        # eta spans the full coherence cap (0.1920 at seed 0), so its
        # shift stays below 0.1 step = 0.00095.
        axes=[("theta", 0.010, 3.131, 61, 0.5), ("eta", -0.19, 0.19, 41, 0.1)],
        outputs="Q,Q_tpm,min_pw,negativity,t1_violated",
        energy_preserving=True,
    ),
    "qutrit_xft": dict(
        scenario="qutrit-theta-grid",
        fixed=_QUTRIT_STATE,
        axes=[
            ("theta01", 0.0, 3.14159265358979, 41, 0.5),
            ("theta02", 0.0, 3.14159265358979, 41, 0.5),
        ],
        outputs="Q,Q_tpm,min_pw,negativity,t3_violated,t3_bound,i4_violated",
        energy_preserving=True,
    ),
    "qutrit_bounds": dict(
        scenario="qutrit-theta-grid",
        fixed=_QUTRIT_STATE,
        axes=[
            ("theta01", 0.0, 3.14159265358979, 41, 0.5),
            ("theta02", 0.0, 3.14159265358979, 41, 0.5),
        ],
        outputs="Q,Q_tpm,min_pw,negativity,t4_lower_violated,t4_upper_violated",
        energy_preserving=True,
    ),
    "nonideal_tolerance": dict(
        scenario="nonideal-eps-delta",
        # The positivity edge in Delta (0.02492 at seed 0) moves by 0.002
        # per 0.1% change of gamma or the betas, so the state is kept
        # fixed; only the dynamics is jittered.  A Delta shift below one
        # step keeps the same 48 cells infeasible.
        fixed=[(k, v, None) for k, v, _ in _GAMMA_PAIR]
        + [("unitary.J", 220.0, "~"), ("unitary.t", 0.004, "~")],
        axes=[("eps", 0.0, 0.0015, 16, 0.5), ("Delta", 0.0, 0.03, 13, 0.5)],
        outputs="Q,Q_tpm,eps_actual,jx,t2_violated,t2_bound,negativity",
        energy_preserving=False,
    ),
}

GRIDS = ("experiment_time", "qutrit_xft", "qubit_grid", "qutrit_bounds")
NONIDEAL = ("nonideal_tolerance",)

POINT_D2 = dict(
    scenario="experiment-time",
    fixed=_GAMMA_PAIR
    + [
        ("unitary.J", 215.1, "~"),
        ("unitary.t", 0.0006, "~"),
        ("probe.i_C", 0, None),
        ("probe.i_H", 1, None),
        ("probe.eps", 0.2, "~"),
    ],
)

POINT_D3 = dict(
    scenario="custom",
    fixed=[
        ("state.kind", "two-qutrit", None),
        ("unitary.kind", "exchange", None),
    ]
    + [item for item in _QUTRIT_STATE if item[0] not in ("state.eta", "state.xi")]
    + [
        ("state.eta_13", 0.9, "-"),
        ("state.eta_26", 0.6, "~"),
        ("state.eta_57", 0.8, "~"),
        ("state.xi_13", 0.4, "~"),
        ("state.xi_26", 1.3, "~"),
        ("state.xi_57", 2.2, "~"),
        ("unitary.theta01", 0.7, "~"),
        ("unitary.theta02", 1.9, "~"),
        ("unitary.theta12", 2.5, "~"),
        ("probe.i_C", 1, None),
        ("probe.i_H", 2, None),
        ("probe.eps", 0.3, "~"),
    ],
)

# Optimal Golomb rulers: every pairwise difference is distinct, so the
# scaled level sets have nondegenerate Bohr spectra at every d.
GOLOMB = {
    4: (0, 1, 4, 6),
    8: (0, 1, 4, 9, 15, 22, 32, 34),
    12: (0, 2, 6, 24, 29, 40, 43, 55, 68, 75, 76, 85),
    16: (0, 1, 4, 11, 26, 32, 56, 68, 76, 115, 117, 134, 150, 163, 168, 177),
}
QUDIT_SPAN = 4.0
QUDIT_BETA_C = 1.2
QUDIT_BETA_H = 0.5
QUDIT_DIMS = (4, 8, 12, 16)


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _jitter(rng: random.Random, value, mode):
    if mode is None:
        return value
    r = rng.random()
    if mode == "abs":
        return value + JITTER * (2.0 * r - 1.0)
    factor = {"+": 1.0 + JITTER * r, "-": 1.0 - JITTER * r, "~": 1.0 + JITTER * (2.0 * r - 1.0)}
    return value * factor[mode]


def _fixed(spec: dict, seed: int, name: str) -> tuple[dict, random.Random]:
    rng = _rng(seed, name)
    cfg = {"scenario": spec["scenario"]}
    for key, value, mode in spec["fixed"]:
        cfg[key] = value if seed == 0 else _jitter(rng, value, mode)
    return cfg, rng


def sweep_config(name: str, seed: int) -> dict:
    """Config dict of one sweep, in shipped key order."""
    spec = SWEEPS[name]
    cfg, rng = _fixed(spec, seed, name)
    for k, (axis, lo, hi, points, max_shift) in enumerate(spec["axes"], start=1):
        if seed:
            shift = max_shift * (0.2 + 0.8 * rng.random()) * (hi - lo) / (points - 1)
            lo, hi = lo + shift, hi + shift
        cfg[f"sweep.axis{k}.name"] = axis
        cfg[f"sweep.axis{k}.min"] = lo
        cfg[f"sweep.axis{k}.max"] = hi
        cfg[f"sweep.axis{k}.points"] = points
    cfg["outputs"] = spec["outputs"]
    return cfg


def sweep_cells(name: str) -> int:
    return math.prod(axis[3] for axis in SWEEPS[name]["axes"])


def point_config(d: int, seed: int) -> dict:
    """Config dict of the d = 2 or d = 3 single-point analysis."""
    spec = POINT_D2 if d == 2 else POINT_D3
    cfg, _ = _fixed(spec, seed, f"point_d{d}")
    return cfg


def config_text(cfg: dict) -> str:
    lines = []
    for key, value in cfg.items():
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def qudit_spectrum(d: int) -> tuple[float, ...]:
    marks = GOLOMB[d]
    return tuple(QUDIT_SPAN * m / marks[-1] for m in marks)


def qudit_draw(d: int, seed: int, attempt: int) -> dict:
    """Populations, coherences, rotation angles and probe row for one qudit point.

    ``attempt`` re-draws when the implied populations are infeasible; the
    caller validates with the program's constructor.
    """
    rng = _rng(seed, f"qudit_d{d}_{attempt}")
    levels = qudit_spectrum(d)

    def gibbs(beta):
        w = [math.exp(-beta * e) for e in levels]
        z = sum(w)
        return [x / z for x in w]

    c, h = gibbs(QUDIT_BETA_C), gibbs(QUDIT_BETA_H)
    free = {0: c[0] * h[0] * rng.uniform(0.95, 1.05)}
    for n in range(1, d):
        for m in range(1, d):
            if (n, m) != (1, 1):
                free[n * d + m] = c[n] * h[m] * rng.uniform(0.95, 1.05)
    pairs = [(n, m) for n in range(d) for m in range(n + 1, d)]
    return dict(
        d=d,
        levels=levels,
        beta_c=QUDIT_BETA_C,
        beta_h=QUDIT_BETA_H,
        free=free,
        eta={p: rng.uniform(0.2, 0.95) for p in pairs},
        xi={p: rng.uniform(0.0, 2.0 * math.pi) for p in pairs},
        theta={p: rng.uniform(0.0, math.pi) for p in pairs},
        target=(rng.randrange(d), rng.randrange(d)),
        eps=rng.uniform(0.1, 0.7),
    )


def generator_seed(seed: int, d: int) -> int:
    """Seed of the traced random_qudit_system draw at dimension d."""
    return _rng(seed, f"generator_d{d}").randrange(2**31)
