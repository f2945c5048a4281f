"""Declarative parameter sweeps: config files in, CSV tables out.

A config is flat ``key = value`` text (``#`` comments allowed).  Each
scenario names one way of producing the coherence/phase factors over a
grid of interrogation times or pulse counts; the plane-coordinate kernel
(:mod:`mcmag.plane`) solves the whole grid at once in real arithmetic,
and every point lands as one CSV row.  Rows are pure functions of the
config, so output bytes are identical across runs.  A sweep loads only
:mod:`mcmag.channel` and :mod:`mcmag.plane`: the matrix solver
(:mod:`mcmag.discrim`), the dilation and the Monte Carlo load inside
:func:`neumark_report` and :func:`validate_report`, which use them.

Four tables define the format: the fields of :class:`SweepConfig` are
the config keys (a field's annotation is how its value parses, a field
without a default is a required key), :data:`DOMAINS` holds the values
each key may take, the fields of :class:`SweepRow` are the CSV columns,
in order, and :data:`SCENARIOS` names the keys each scenario reads.  A
key that some scenarios read and others do not may be set, for a
scenario that does not read it, only to the value that scenario uses
anyway.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable, NamedTuple, get_args, get_type_hints

import numpy as np

from . import channel, plane
from .errors import ConfigError, DomainError, read_utf8
from .plot import plot_csv  # noqa: F401  (also reachable as mcmag.sweep.plot_csv)

#: Coherence floor substituted for an underflowed dephasing factor so the
#: far tail of a sweep stays well-defined (the solver then reports the
#: identical-state limit).
NU_FLOOR = 1e-300


@dataclass(frozen=True)
class SweepConfig:
    """One sweep.  Made from a file, in Python or by ``dataclasses.replace``,
    it passes the same checks, which raise :class:`~mcmag.errors.ConfigError`
    naming the key, and takes the scenario's defaults in its unset keys."""

    scenario: str
    grid_start: float
    grid_stop: float
    grid_points: int
    grid_scale: str = "lin"
    b0_uT: float = 0.0
    sigma_b_uT: float = 0.0
    f_MHz: float | None = None
    kappa_per_us: float | None = None
    tau_c_us: float | None = None
    T2_star_us: float | None = None
    p: float | None = None
    s: float | None = None
    T2_us: float | None = None
    delta_ms: int | None = None
    eta0: float = 0.5
    p_inc_threshold: float | None = None
    seed: int = 0
    shots: int = 100_000
    n_traj: int = 20_000
    point: float | None = None
    out: str | None = None

    def __post_init__(self) -> None:
        for key, kind in _KEYS.items():  # None only where the key may be unset
            value = getattr(self, key)
            if isinstance(value, bool) or not (
                isinstance(value, kind) or kind is float and isinstance(value, int)
                or value is None and _DEFAULTS[key] is None
            ):
                raise ConfigError(f"key {key!r} must be {kind.__name__}, got {value!r}")
        scenario = SCENARIOS.get(self.scenario)
        if scenario is None:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        for key, caster in _KEYS.items():
            value = getattr(self, key)
            if caster is float and value is not None and not math.isfinite(value):
                raise ConfigError(f"key {key!r} must be finite, got {value!r}")
        for key in scenario.required:
            if getattr(self, key) is None:
                raise ConfigError(f"scenario {self.scenario!r} requires key {key!r}")
        reads = scenario.required + scenario.optional
        for key in _SCENARIO_KEYS:
            used = scenario.defaults.get(key, _DEFAULTS[key])
            if key not in reads and getattr(self, key) not in (None, used):
                rule = "does not read it" if used is None else f"takes only {key} = {used:g}"
                raise ConfigError(f"key {key!r}: scenario {self.scenario!r} {rule}")
        for key, (test, rule) in DOMAINS.items():
            value = getattr(self, key)
            if value is not None and not test(value):
                raise ConfigError(f"key {key!r} must be {rule}")
        if not self.grid_start < self.grid_stop:
            raise ConfigError("grid_start must be < grid_stop")
        if self.grid_scale == "log" and self.grid_start <= 0:
            raise ConfigError("log grid requires grid_start > 0")
        for key in ("grid_start", "point"):
            value = getattr(self, key)
            if value is not None and value < scenario.lowest:
                raise ConfigError(f"key {key!r}: {scenario.axis} must be >= {scenario.lowest:g}")
        for key, other in (("kappa_per_us", "tau_c_us"), ("tau_c_us", "kappa_per_us")):
            if getattr(self, key) is not None and getattr(self, other) is None:
                bath = f"the OU bath takes it together with {key!r}"
                raise ConfigError(f"missing key {other!r}: {bath}")
        for key, value in scenario.defaults.items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        # The train length and the phase grow with the axis, so the axis end
        # bounds them; every other argument of the phase factor is in its domain.
        end = scenario.snap(max(self.grid_stop, self.point or 0.0))
        if scenario.axis == "pulse count" and end > _PULSE_BUDGET:
            key = "grid_stop" if self.grid_stop >= (self.point or 0.0) else "point"
            raise ConfigError(
                f"key {key!r}: N = {end:.17g} pulses is over the budget of {_PULSE_BUDGET} pulses"
            )
        if self.f_MHz is not None and not end * (1.0 / (2.0 * self.f_MHz)) < math.inf:
            raise ConfigError(f"key 'f_MHz': the train N/(2*f_MHz) overflows at N = {end:g}")
        try:
            scenario.mu(self, [end])
        except DomainError as exc:
            raise ConfigError(f"key 'b0_uT': {exc}") from exc


class SweepRow(NamedTuple):
    axis: float
    nu: float
    mu_abs: float
    mu_arg: float
    c0_max: float
    c1_max: float
    p_inc_opt: float
    c0_thresh: float | None
    c1_thresh: float | None
    p_inc_thresh: float | None
    helstrom_err: float
    cond_err: float | None
    rel_err: float | None
    branch: str


def _parser(hint) -> type:
    """How a key's value parses: its annotation without ``| None``."""
    return next((t for t in get_args(hint) if t is not type(None)), hint)


_KEYS = {key: _parser(hint) for key, hint in get_type_hints(SweepConfig).items()}
_DEFAULTS = {field.name: field.default for field in fields(SweepConfig)}
CSV_HEADER = ",".join(SweepRow._fields)


@dataclass(frozen=True)
class Scenario:
    """What the sweep layer knows about one scenario.

    ``axis`` is ``"time"`` (interrogation time in us, >= 0) or ``"pulse
    count"`` (even, >= 2).  ``required`` and ``optional`` name the
    scenario-dependent keys it reads that a config must and may set;
    ``defaults`` holds the values it uses for unset keys where these are
    not the :class:`SweepConfig` defaults (a config puts them in when it
    is made).  ``nu(cfg, values)`` and ``mu(cfg, values)`` list the coherence
    and phase factors of a grid of axis values, from one call of a channel
    grid kernel with the config's keys.
    ``dephasing(cfg, values)`` lists validate's Monte Carlo checks of the
    OU bath (``kappa_per_us``, ``tau_c_us``) as (label, imaginary-part
    label or None, switching, dt); None: the scenario has no bath.
    """

    axis: str
    required: tuple[str, ...]
    optional: tuple[str, ...]
    defaults: dict[str, float]
    nu: Callable[[SweepConfig, list[float]], list[float]]
    mu: Callable[[SweepConfig, list[float]], list[complex]]
    dephasing: Callable[[SweepConfig, list[float]], list[tuple]] | None

    @property
    def lowest(self) -> float:
        """Smallest value on the axis."""
        return 0.0 if self.axis == "time" else 2.0

    def snap(self, value: float) -> float:
        """``value`` on the axis: a pulse count rounds to the nearest even count >= 2."""
        if self.axis == "time":
            return float(value)
        return float(max(2, int(round(value / 2.0)) * 2))


def _nu_free(cfg: SweepConfig, times: list[float]) -> list[float]:
    return channel.nu_stretched_grid(cfg.T2_star_us, cfg.p, map(float, times))


def _mu_free(cfg: SweepConfig, times: list[float]) -> list[complex]:
    """A constant field; a known field is one with ``sigma_b_uT = 0``."""
    return channel.mu_static_grid(cfg.b0_uT, cfg.sigma_b_uT, cfg.delta_ms, map(float, times))


def _nu_bath_train(cfg: SweepConfig, counts: list[float]) -> list[float]:
    """The OU bath under every train of the grid, from one walk to the longest."""
    tau = 1.0 / (2.0 * cfg.f_MHz)
    return channel.nu_ou_cpmg(cfg.kappa_per_us, cfg.tau_c_us, [int(n) for n in counts], tau)


def _nu_ensemble(cfg: SweepConfig, counts: list[float]) -> list[float]:
    return channel.nu_ensemble_cpmg_grid(cfg.T2_us, cfg.s, cfg.p, map(int, counts), cfg.f_MHz)


def _mu_train(cfg: SweepConfig, counts: list[float]) -> list[complex]:
    return channel.mu_cpmg_grid(cfg.b0_uT, cfg.sigma_b_uT, cfg.f_MHz, map(int, counts))


def _mc_train(cfg: SweepConfig, values: list[float]) -> list[tuple]:
    """The OU bath under the pulse train at the first, middle and last pulse count."""
    tau = 1.0 / (2.0 * cfg.f_MHz)
    dt = min(cfg.tau_c_us / 50.0, tau / 50.0)
    picks = sorted({values[0], values[len(values) // 2], values[-1]})
    return [(f"nu_cpmg[N={int(n)}]", None, channel.cpmg_switching(int(n), tau), dt) for n in picks]


def _mc_free(cfg: SweepConfig, values: list[float]) -> list[tuple]:
    """The OU bath in free decay at 1/4, 1/2 and all of the last grid time."""
    checks = []
    for t in (0.25 * values[-1], 0.5 * values[-1], values[-1]):
        dt = min(cfg.tau_c_us / 50.0, t / 100.0)
        checks.append((f"nu_free[T={t:g}]", f"nu_free_imag[T={t:g}]", channel.free_decay(t), dt))
    return checks


def _free(p: float, delta_ms: int, reads_sigma_b: bool = False) -> Scenario:
    """A free-decay scenario with defaults ``p`` and ``delta_ms``: it may set
    the T2* stretch, the readout transition, the OU bath that validate checks
    and, if ``reads_sigma_b``, ``sigma_b_uT``."""
    optional = ("p", "delta_ms", "kappa_per_us", "tau_c_us") + ("sigma_b_uT",) * reads_sigma_b
    defaults = {"p": p, "delta_ms": delta_ms}
    return Scenario("time", ("T2_star_us",), optional, defaults, _nu_free, _mu_free, _mc_free)


#: Every scenario by name: axis, required and optional keys it reads, its
#: defaults, factor functions, OU bath checks.
SCENARIOS = {
    "static_single": _free(2.0, 1),
    "static_gaussian_single": _free(2.0, 1, reads_sigma_b=True),
    "cpmg_single": Scenario(
        "pulse count", ("kappa_per_us", "tau_c_us", "f_MHz"), ("sigma_b_uT",), {"delta_ms": 1},
        _nu_bath_train, _mu_train, _mc_train,
    ),
    "static_ensemble": _free(1.0, 1),
    "static_ensemble_dq": _free(1.0, 2),
    "gaussian_ensemble": _free(1.0, 1, reads_sigma_b=True),
    "cpmg_ensemble": Scenario(
        "pulse count", ("T2_us", "s", "f_MHz"), ("p", "sigma_b_uT"), {"p": 1.0, "delta_ms": 1},
        _nu_ensemble, _mu_train, None,
    ),
}

#: Keys that some scenarios read and others do not, in SweepConfig order.
_SCENARIO_KEYS = [
    key for key in _KEYS
    if 0 < sum(key in s.required + s.optional for s in SCENARIOS.values()) < len(SCENARIOS)
]

#: Work budgets: the most points of a grid (a sweep takes 33-45 us and
#: 2.6 KB of peak memory per point, its CSV and SVG included) and the
#: longest train at the end of a pulse-count axis (``grid_stop``, or
#: ``point`` where it is larger; the OU bath walks the longest train at
#: 0.34-0.9 us per pulse).  README gives the sizes they allow.
_GRID_BUDGET = 100_000
_PULSE_BUDGET = 1_000_000

#: The domain of each key that has one, as (test, rule); a set key outside
#: it is refused with "key '<key>' must be <rule>".  Float keys must also
#: be finite.
DOMAINS: dict[str, tuple[Callable[[object], bool], str]] = {
    "grid_points": (lambda v: 2 <= v <= _GRID_BUDGET, f"in [2, {_GRID_BUDGET}]"),
    "grid_scale": (lambda v: v in ("lin", "log"), "'lin' or 'log'"),
    "sigma_b_uT": (lambda v: v >= 0, ">= 0"),
    "f_MHz": (lambda v: v > 0 and 0 < 1 / (2 * v) < math.inf, "> 0 with 1/(2*f_MHz) in (0, inf)"),
    "kappa_per_us": (lambda v: v >= 0, ">= 0"),
    "tau_c_us": (lambda v: v > 0, "> 0"),
    "T2_star_us": (lambda v: v > 0, "> 0"),
    "p": (lambda v: v > 0, "> 0"),
    "s": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "T2_us": (lambda v: v > 0, "> 0"),
    "delta_ms": (lambda v: v in (1, 2), "1 or 2"),
    "eta0": (lambda v: 0 < v < 1, "in (0, 1)"),
    "p_inc_threshold": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "seed": (lambda v: v >= 0, ">= 0"),
    "shots": (lambda v: v >= 1, ">= 1"),
    "n_traj": (lambda v: v >= 2, ">= 2 (one trajectory has no standard error)"),
}


def parse_config_text(text: str) -> SweepConfig:
    """Parse flat ``key = value`` config text into a validated SweepConfig."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    typed: dict[str, object] = {}
    for key, value in raw.items():
        caster = _KEYS[key]
        try:
            typed[key] = caster(value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {value!r}") from exc

    for key, default in _DEFAULTS.items():
        if default is MISSING and key not in typed:
            raise ConfigError(f"missing required key {key!r}")
    return SweepConfig(**typed)


def load_config(path: str) -> SweepConfig:
    """The SweepConfig of the config file at ``path`` (UTF-8 text)."""
    return parse_config_text(read_utf8(path))


def grid_values(cfg: SweepConfig) -> list[float]:
    """Strictly increasing axis values; pulse counts snap to even integers."""
    if cfg.grid_scale == "log":
        values = np.geomspace(cfg.grid_start, cfg.grid_stop, cfg.grid_points)
    else:
        values = np.linspace(cfg.grid_start, cfg.grid_stop, cfg.grid_points)
    values = values.tolist()
    scenario = SCENARIOS[cfg.scenario]
    if scenario.axis == "time":
        return values
    evens: list[float] = []
    for v in values:
        n = scenario.snap(v)
        if not evens or n > evens[-1]:
            evens.append(n)
    return evens


def factors_at(cfg: SweepConfig, axis_value: float) -> tuple[float, complex]:
    """Coherence and phase factors of one grid point."""
    scenario = SCENARIOS[cfg.scenario]
    return scenario.nu(cfg, [axis_value])[0], scenario.mu(cfg, [axis_value])[0]


def _evaluate(cfg: SweepConfig, values: list[float]) -> list[SweepRow]:
    """Rows of the given grid points, solved as one stack."""
    scenario = SCENARIOS[cfg.scenario]
    nus = scenario.nu(cfg, values)
    mus = scenario.mu(cfg, values)
    nu, mu = channel.pair_factors(np.maximum(nus, NU_FLOOR), mus)
    optimum, branch, effective = plane.plane_optimum(nu, mu, cfg.eta0)
    p_inc_opt, c0_max, c1_max = optimum.T
    helstrom = plane.helstrom_error(nu, mu, cfg.eta0)

    c0_t = c1_t = p_inc_t = [None] * len(values)
    if cfg.p_inc_threshold is not None:
        c0, c1, p_inc, effective = plane.plane_capped(
            nu, mu, cfg.eta0, optimum, effective, cfg.p_inc_threshold
        )
        c0_t = [None if math.isnan(c) else c for c in c0.tolist()]
        c1_t = [None if math.isnan(c) else c for c in c1.tolist()]
        p_inc_t = p_inc.tolist()

    cond = plane.plane_conditional_error(nu, mu, cfg.eta0, effective)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(helstrom > 1e-300, cond / helstrom, np.nan)

    columns = (  # one per SweepRow field
        map(float, values),
        nus,
        map(abs, mus),
        # atan2(imag, real) bit for bit; cmath.phase raises where that
        # underflows to 0, which needs |real| > 1, and |mu| <= 1.
        map(cmath.phase, mus),
        c0_max.tolist(),
        c1_max.tolist(),
        p_inc_opt.tolist(),
        c0_t,
        c1_t,
        p_inc_t,
        helstrom.tolist(),
        [None if math.isnan(e) else e for e in cond.tolist()],
        [None if math.isnan(r) else r for r in rel.tolist()],
        map(plane.BRANCHES.__getitem__, branch.tolist()),
    )
    return list(map(tuple.__new__, itertools.repeat(SweepRow), zip(*columns)))


def evaluate_point(cfg: SweepConfig, axis_value: float) -> SweepRow:
    """One CSV row: the grid of :func:`run_sweep` cut down to one point."""
    return _evaluate(cfg, [axis_value])[0]


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """Evaluate every grid point as one stacked solve; rows come back in grid order."""
    return _evaluate(cfg, grid_values(cfg))


def rows_to_csv(rows: list[SweepRow]) -> str:
    """CSV text of ``rows``: the header line, then one line per row with each
    number to 17 significant digits and ``NA`` for an unavailable cell; the
    text ends in a newline.  Formatted one column at a time.  Every number
    must be a ``float``, as :class:`SweepRow` annotates it: another type
    (an ``int``) is a TypeError."""
    if not rows:
        return CSV_HEADER + "\n"
    *numbers, branches = zip(*rows)
    # Every cell but NA is a float (SweepRow's annotation), so the unbound
    # float.__format__ gives format()'s text without its per-cell method lookup.
    fmt = float.__format__
    columns = [["NA" if x is None else fmt(x, ".17g") for x in column] for column in numbers]
    return "\n".join([CSV_HEADER, *map(",".join, zip(*columns, branches))]) + "\n"


# ---------------------------------------------------------------------------
# Monte Carlo validation report
# ---------------------------------------------------------------------------


def _zline(name: str, analytic: float, observed: float, se: float) -> tuple[str, bool]:
    if se == 0.0:
        z = 0.0 if observed == analytic else math.inf
    else:
        z = (observed - analytic) / se
    # An infinite standard error makes z = 0 whatever was observed.
    ok = math.isfinite(se) and abs(z) <= 3.0
    line = (
        f"{name}: analytic={analytic:.9g} observed={observed:.9g} "
        f"std_err={se:.3g} z={z:+.3f} {'PASS' if ok else 'FAIL'}"
    )
    return line, ok


def validate_report(cfg: SweepConfig) -> tuple[str, bool]:
    """Cross-check analytics against the stochastic estimators.

    The scenario's OU bath check (:attr:`Scenario.dephasing`) runs when the
    config sets the bath (a :class:`SweepConfig` takes ``kappa_per_us`` and
    ``tau_c_us`` only together, and only for a scenario that reads them); click
    checks run for every scenario at the middle grid point, skipping a detector
    that never fires.  A check passes when |z| <= 3.
    """
    from . import discrim, noise_sim

    lines = [f"validation report: scenario={cfg.scenario} seed={cfg.seed}"]
    oks = []

    def check(name: str, analytic: float, observed: float, se: float) -> None:
        line, ok = _zline(name, analytic, observed, se)
        lines.append(line)
        oks.append(ok)

    values = grid_values(cfg)
    dephasing = SCENARIOS[cfg.scenario].dephasing
    kappa, tau_c = cfg.kappa_per_us, cfg.tau_c_us
    if kappa is not None:
        checks = dephasing(cfg, values)
        # One draw of each trajectory's normals serves every check.
        estimates = noise_sim.empirical_dephasings([
            (noise_sim.OuParams(kappa, tau_c, dt, switching.total_time, cfg.seed, cfg.n_traj),
             switching)
            for _label, _imag_label, switching, dt in checks
        ])
        for (label, imag_label, switching, _dt), est in zip(checks, estimates):
            check(label, channel.nu_ou(kappa, tau_c, switching), est.nu_hat, est.std_err)
            if imag_label is not None:
                check(imag_label, 0.0, est.imag_hat, est.imag_std_err)

    mid = values[len(values) // 2]
    nu, mu = factors_at(cfg, mid)
    pair = channel.build_state_pair(max(nu, NU_FLOOR), mu, cfg.eta0)
    sol = discrim.solve_max_confidence(pair)
    tally = noise_sim.simulate_clicks(sol.povm, pair, cfg.shots, cfg.seed)
    (n00, n01, n0i), (n10, n11, n1i) = tally.counts.tolist()  # [state][outcome]
    lines.append(f"clicks at axis={mid:g}: shots={cfg.shots} branch={sol.branch}")
    for name, analytic, hits, trials in (
        ("C0", sol.c0_max, n00, n00 + n10),
        ("C1", sol.c1_max, n11, n01 + n11),
        ("P_inc", sol.p_inc_opt, n0i + n1i, cfg.shots),
    ):
        if trials:
            # Score-style standard error: binomial spread at the analytic value,
            # so a zero observed count against a tiny true rate stays a pass.
            se = math.sqrt(max(0.0, analytic * (1.0 - analytic)) / trials)
            check(name, analytic, hits / trials, se)

    all_ok = all(oks)
    lines.append("RESULT: " + ("PASS" if all_ok else "FAIL"))
    return "\n".join(lines) + "\n", all_ok


# ---------------------------------------------------------------------------
# Measurement-dilation report
# ---------------------------------------------------------------------------


def neumark_report(cfg: SweepConfig) -> str:
    """Text dump of the projective extension of the optimum at one parameter
    point.  A capped measurement is not rank one: ``p_inc_threshold`` is refused."""
    from . import dilation, discrim

    if cfg.point is None:
        raise ConfigError("neumark requires key 'point' (time or pulse count)")
    if cfg.p_inc_threshold is not None:
        raise ConfigError("neumark dilates the uncapped optimum: remove key 'p_inc_threshold'")
    axis_value = SCENARIOS[cfg.scenario].snap(cfg.point)
    nu, mu = factors_at(cfg, axis_value)
    pair = channel.build_state_pair(max(nu, NU_FLOOR), mu, cfg.eta0)
    sol = discrim.solve_max_confidence(pair)
    dil = dilation.dilate_povm(sol.povm)
    factors = dilation.decompose_two_level(dil.u)
    residual = dilation.born_residual(dil, sol.povm, pair.states)
    unit_dev = float(np.max(np.abs(dil.u.conj().T @ dil.u - np.eye(3))))

    def cell(z: complex) -> str:
        return f"{z.real:+.17g}{z.imag:+.17g}j"

    def mat_lines(name: str, m: np.ndarray) -> list[str]:
        return [f"{name}:"] + ["  " + "  ".join(map(cell, row)) for row in m]

    lines = [
        f"neumark dump: scenario={cfg.scenario} axis={axis_value:g}",
        f"nu={nu:.17g} mu={cell(mu)} eta0={cfg.eta0:g}",
        f"branch={sol.branch} C0={sol.c0_max:.17g} C1={sol.c1_max:.17g} "
        f"P_inc={sol.p_inc_opt:.17g}",
    ]
    for name, op in zip(("Pi0", "Pi1", "Pi_inc"), sol.povm.ops):
        lines.extend(mat_lines(name, op))
    lines.append(f"ancilla coefficients: c0={cell(dil.c0)} c1={cell(dil.c1)} c_inc={cell(dil.c2)}")
    lines.extend(mat_lines("U", dil.u))
    lines.append(f"two-level factors: {len(factors)}")
    for i, f in enumerate(factors):
        lines.extend(mat_lines(f"factor[{i}]", f))
    lines.append(f"born_residual={residual:.3e}")
    lines.append(f"unitarity_residual={unit_dev:.3e}")
    return "\n".join(lines) + "\n"

