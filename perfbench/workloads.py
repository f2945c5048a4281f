"""The four benchmark workloads.

Each workload has the same shape: ``setup()`` builds its seeded inputs,
parses them and warms up (this is what ``setup_s`` times, import aside);
``ops()`` lists one pass of operations, each a callable ``fn(traced)``
returning ``(output, work)``; ``same(a, b)`` says whether two outputs of
one op are identical; ``check(i, out)`` and ``oracle(i, out)`` return the
problems of op ``i``'s first output (see checks.py).  The runner times
the ops and does everything else outside the timed region.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from functools import reduce

import numpy as np

import checks
import inputs
import layers

#: Oracle re-solves per sweep config, and per api_pointwise pass.
ORACLE_ROWS = 3
ORACLE_PAIRS = 8


def _fmt(x) -> str:
    return "NA" if x is None else format(x, ".17g")


class Workload:
    """Defaults shared by the workloads."""

    name = ""
    work_unit = ""

    def __init__(self, seed: int, mcmag, reference: dict | None, work_dir) -> None:
        self.seed, self.m, self.reference = seed, mcmag, reference

    def prepare(self) -> None:
        """Untimed work after set-up: expected outputs and check selections."""

    @staticmethod
    def same(a, b) -> bool:
        return a == b

    def grid_points(self, firsts) -> int:
        """Sweep rows produced by one pass (0 when the workload runs no sweep)."""
        return 0


class SweepFigures(Workload):
    """One op turns one sweep config into CSV text and then SVG text."""

    name = "sweep_figures"
    work_unit = "grid_points"

    def setup(self) -> None:
        configs = inputs.jittered_configs(self.seed)
        self.names = inputs.sweep_names(configs)
        self.texts = {n: configs[n] for n in self.names}
        self.cfgs = {n: self.m.sweep.parse_config_text(self.texts[n]) for n in self.names}
        smallest = min(self.names, key=lambda n: self.cfgs[n].grid_points)
        self._op(smallest, False)

    def _op(self, name: str, traced: bool):
        sw = self.m.sweep
        cfg = sw.parse_config_text(self.texts[name])
        rows = sw.run_sweep(cfg)
        csv_text = sw.rows_to_csv(rows)
        svg = sw.plot_csv(csv_text, title=name)
        return (csv_text, svg), len(rows)

    def ops(self):
        return [(n, lambda traced, n=n: self._op(n, traced)) for n in self.names]

    def check(self, i: int, out) -> list[str]:
        name = self.names[i]
        cfg = self.cfgs[name]
        csv_text, svg = out
        problems = checks.csv_problems(csv_text, cfg.grid_points, cfg.p_inc_threshold)
        problems += checks.svg_problems(svg, csv_text)
        if self.reference is not None:
            problems += checks.compare_csv(csv_text, self.reference["sweep"][name])
        return [f"{name}: {p}" for p in problems]

    def oracle(self, i: int, out) -> list[str]:
        name = self.names[i]
        return [f"{name}: {p}" for p in csv_oracle(self.m, out[0], self.cfgs[name].eta0,
                                                    np.random.default_rng([self.seed, i]))]

    def grid_points(self, firsts) -> int:
        return sum(len(checks.parse_csv(f[0])[1]) for f in firsts if f is not None)


def csv_oracle(m, csv_text: str, eta0: float, rng) -> list[str]:
    """Re-solve a few seeded rows of a sweep CSV and check them against the oracle."""
    header, rows = checks.parse_csv(csv_text)
    if len(rows) == 0 or header != checks.COLUMNS:
        return ["no rows to re-solve"]
    col = {c: k for k, c in enumerate(header)}
    out = []
    for k in sorted(rng.choice(len(rows), size=min(ORACLE_ROWS, len(rows)), replace=False)):
        row = rows[k]
        try:
            nu = max(float(row[col["nu"]]), checks.NU_FLOOR)
            mu = float(row[col["mu_abs"]]) * complex(np.exp(1j * float(row[col["mu_arg"]])))
            pair = m.channel.build_state_pair(nu, mu, eta0)
            sol = m.discrim.solve_max_confidence(pair)
            where = f"row {k + 1}"
            out += checks.solution_problems(pair, sol, where)
            out += checks.oracle_problems(m.discrim, pair, float(row[col["c0_max"]]),
                                          float(row[col["c1_max"]]), where)
        except Exception as exc:  # noqa: BLE001 - any failure of a check fails the op
            out.append(f"row {k + 1}: re-solve raised {exc!r}")
    return out


class ApiPointwise(Workload):
    """One op takes one seeded state pair through the README's Python API."""

    name = "api_pointwise"
    work_unit = "pairs"
    HEADER = (
        "branch,c0_max,c1_max,p_inc_opt,helstrom_err,c0_capped,c1_capped,p_inc_capped,"
        "mix,cond_err,n_factors," + ",".join(f"u{r}{c}_{p}" for r in range(3) for c in range(3)
                                               for p in ("re", "im"))
    )

    def setup(self) -> None:
        self.draws = inputs.pair_draws(self.seed)
        for d in self.draws[:16]:
            self._op(d, False)

    def _op(self, d, traced: bool):
        ch, dc, dl = self.m.channel, self.m.discrim, self.m.dilation
        pair = ch.build_state_pair(d.nu, d.mu, d.eta0)
        sol = dc.solve_max_confidence(pair)
        helstrom = dc.min_error_probability(pair)
        capped = dc.threshold_inconclusive(sol, pair, d.p_thresh)
        try:
            cond = dc.conditional_error(capped.povm, pair)
        except self.m.errors.UndefinedConditionalError:
            cond = None
        dil = dl.dilate_povm(sol.povm)
        factors = dl.decompose_two_level(dil.u)
        residual = dl.born_residual(dil, sol.povm, (pair.rho0, pair.rho1))
        return (pair, sol, helstrom, capped, cond, dil, factors, residual), 1

    def ops(self):
        return [(str(i), lambda traced, d=d: self._op(d, traced)) for i, d in enumerate(self.draws)]

    @staticmethod
    def key(out):
        pair, sol, helstrom, capped, cond, dil, factors, residual = out
        return (
            sol.branch, sol.c0_max, sol.c1_max, sol.p_inc_opt, sol.povm.pi0.tobytes(),
            sol.povm.pi1.tobytes(), helstrom, capped.c0, capped.c1, capped.p_inc, capped.mix,
            cond, dil.u.tobytes(), tuple(f.tobytes() for f in factors), residual,
        )

    def same(self, a, b) -> bool:
        return self.key(a) == self.key(b)

    @staticmethod
    def row(out) -> str:
        pair, sol, helstrom, capped, cond, dil, factors, residual = out
        cells = [sol.branch] + [_fmt(x) for x in (
            sol.c0_max, sol.c1_max, sol.p_inc_opt, helstrom, capped.c0, capped.c1,
            capped.p_inc, capped.mix, cond)]
        cells.append(str(len(factors)))
        for z in dil.u.ravel():
            cells += [_fmt(z.real), _fmt(z.imag)]
        return ",".join(cells)

    def check(self, i: int, out) -> list[str]:
        pair, sol, helstrom, capped, cond, dil, factors, residual = out
        d = self.draws[i]
        where = f"pair {i} ({d.kind})"
        problems = checks.solution_problems(pair, sol, "optimum")
        p = capped.povm
        problems += checks.povm_problems(p.pi0, p.pi1, p.pi_inc, "capped")
        if not capped.p_inc <= d.p_thresh + checks.POVM_TOL:
            problems.append(f"cap {d.p_thresh!r} not met: p_inc={capped.p_inc!r}")
        if sol.p_inc_opt > d.p_thresh and not abs(capped.p_inc - d.p_thresh) <= checks.POVM_TOL:
            problems.append(f"capped p_inc {capped.p_inc!r} != cap {d.p_thresh!r}")
        for name, x in (("c0_capped", capped.c0), ("c1_capped", capped.c1)):
            if x is not None and not 0.0 <= x <= 1.0:
                problems.append(f"{name}={x!r} outside [0, 1]")
        if not 0.0 <= helstrom <= 0.5:
            problems.append(f"helstrom_err={helstrom!r} outside [0, 1/2]")
        if cond is not None:
            problems += checks.cond_err_problem(cond, checks.is_pure(pair.nu), "capped")
        u = dil.u
        unit_dev = float(np.max(np.abs(u.conj().T @ u - np.eye(3))))
        prod = reduce(np.matmul, factors, np.eye(3, dtype=complex))
        prod_dev = float(np.max(np.abs(prod - u)))
        devs = (("unitarity", unit_dev), ("born", residual), ("factor product", prod_dev))
        for name, dev in devs:
            if not dev <= checks.POVM_TOL:
                problems.append(f"dilation {name} residual {dev:.3g}")
        if self.reference is not None:
            ref = self.reference["pointwise"]
            problems += checks.compare_csv(
                f"{self.HEADER}\n{self.row(out)}\n", f"{self.HEADER}\n{ref[i]}\n"
            )
        return [f"{where}: {p}" for p in problems]

    def oracle(self, i: int, out) -> list[str]:
        if i not in self._oracle:
            return []
        pair, sol = out[0], out[1]
        return [f"pair {i}: {p}" for p in
                checks.oracle_problems(self.m.discrim, pair, sol.c0_max, sol.c1_max, "oracle")]

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self._oracle = {int(i) for i in rng.choice(len(self.draws), ORACLE_PAIRS, replace=False)}


_REPORT_LINE = re.compile(
    r"^(?P<name>[^:]+): analytic=(?P<a>\S+) observed=(?P<o>\S+) std_err=(?P<se>\S+) "
    r"z=(?P<z>\S+) (?P<verdict>PASS|FAIL)$"
)


class McValidate(Workload):
    """One op is one Monte Carlo validate report, free decay or pulse train."""

    name = "mc_validate"
    work_unit = "traj_steps"

    def setup(self) -> None:
        sw = self.m.sweep
        self.texts = inputs.validate_configs(self.seed)
        self.names = list(self.texts)
        self.cfgs = {n: sw.parse_config_text(t) for n, t in self.texts.items()}
        tiny = inputs.set_values(self.texts[self.names[0]], {"n_traj": "64", "shots": "1000"})
        sw.validate_report(sw.parse_config_text(tiny))

    def prepare(self) -> None:
        self.work = {
            n: self.cfgs[n].n_traj * sum(layers.trajectory_steps(sw, dt)
                                         for _, sw, dt in self.dephasing_checks(self.cfgs[n]))
            for n in self.names
        }

    def dephasing_checks(self, cfg):
        """(report label, switching function, time step) of each dephasing check.

        Mirrors the report's own choice of checked points and grid step;
        the work of an op is trajectories x time steps over these.
        """
        ch = self.m.channel
        values = self.m.sweep.grid_values(cfg)
        if cfg.scenario == "cpmg_single":
            tau = 1.0 / (2.0 * cfg.f_MHz)
            for n in sorted({values[0], values[len(values) // 2], values[-1]}):
                yield (f"nu_cpmg[N={int(n)}]", ch.cpmg_switching(int(n), tau),
                       min(cfg.tau_c_us / 50.0, tau / 50.0))
        else:
            t_hi = values[-1]
            for t in (0.25 * t_hi, 0.5 * t_hi, t_hi):
                yield f"nu_free[T={t:g}]", ch.free_decay(t), min(cfg.tau_c_us / 50.0, t / 100.0)

    def _op(self, name: str, traced: bool):
        sw = self.m.sweep
        report, ok = sw.validate_report(sw.parse_config_text(self.texts[name]))
        return (report, ok), self.work[name]

    def ops(self):
        return [(n, lambda traced, n=n: self._op(n, traced)) for n in self.names]

    def check(self, i: int, out) -> list[str]:
        name = self.names[i]
        cfg = self.cfgs[name]
        report, ok = out
        problems = []
        lines = report.split("\n")
        header = f"validation report: scenario={cfg.scenario} seed={cfg.seed}"
        if lines[-1] != "" or lines[0] != header:
            problems.append("report does not start with its header line or end with a newline")
        ch = self.m.channel
        expected = {label: f"{ch.nu_ou(cfg.kappa_per_us, cfg.tau_c_us, sw):.9g}"
                    for label, sw, _ in self.dephasing_checks(cfg)}
        z_fail = 0
        for line in lines[1:-2]:
            if line.startswith("clicks at axis="):
                continue
            m = _REPORT_LINE.match(line)
            if m is None:
                problems.append(f"unparsable report line {line!r}")
                continue
            z_fail += m["verdict"] == "FAIL"
            if m["name"] in expected and m["a"] != expected.pop(m["name"]):
                problems.append(f"{m['name']}: analytic {m['a']} is not the closed form")
            if m["name"] in ("C0", "C1", "P_inc"):
                if not (0.0 <= float(m["a"]) <= 1.0 and 0.0 <= float(m["o"]) <= 1.0):
                    problems.append(f"{m['name']}: value outside [0, 1]")
            if not math.isfinite(float(m["se"])):
                problems.append(f"{m['name']}: std_err {m['se']} is not finite")
        if expected:
            problems.append(f"missing checks {sorted(expected)}")
        verdict = "RESULT: PASS" if z_fail == 0 else "RESULT: FAIL"
        if lines[-2] != verdict or ok != (z_fail == 0):
            problems.append(f"verdict {lines[-2]!r} does not match {z_fail} failed z lines")
        if self.reference is not None and report != self.reference["validate"][name]:
            problems.append("report differs from the reference bytes")
        return [f"{name}: {p}" for p in problems]

    def oracle(self, i: int, out) -> list[str]:
        """The click check's analytic confidences against the grid oracle."""
        name = self.names[i]
        cfg = self.cfgs[name]
        found = dict(re.findall(r"^(C[01]): analytic=(\S+) ", out[0], re.MULTILINE))
        if set(found) != {"C0", "C1"}:
            return []  # a detector that never fires has no confidence line to check
        values = self.m.sweep.grid_values(cfg)
        nu, mu = self.m.sweep.factors_at(cfg, values[len(values) // 2])
        pair = self.m.channel.build_state_pair(max(nu, checks.NU_FLOOR), mu, cfg.eta0)
        # The report prints 9 significant digits.
        problems = checks.oracle_problems(self.m.discrim, pair, float(found["C0"]),
                                          float(found["C1"]), "clicks")
        return [f"{name}: {p}" for p in problems]


class CliOneshot(Workload):
    """Sequential ``python -m mcmag.cli sweep|neumark|plot`` calls on small configs."""

    name = "cli_oneshot"
    work_unit = "calls"

    def __init__(self, seed: int, mcmag, reference: dict | None, work_dir) -> None:
        super().__init__(seed, mcmag, reference, work_dir)
        self.dir = work_dir / f"cli-seed{seed}"
        self.rel = os.path.relpath(self.dir, inputs.ROOT)
        self.env = dict(os.environ, PYTHONPATH=str(inputs.ROOT / "src"))
        self.tracer = None  # the runner's Tracer, set for a traced run

    def setup(self) -> None:
        configs = inputs.jittered_configs(self.seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.sweep_text = configs[inputs.CLI_SWEEP]
        self.neumark_text = configs[inputs.CLI_NEUMARK]
        (self.dir / "sweep.cfg").write_text(self.sweep_text, encoding="utf-8")
        (self.dir / "neumark.cfg").write_text(self.neumark_text, encoding="utf-8")
        self.sweep_cfg = self.m.sweep.parse_config_text(self.sweep_text)
        self.neumark_cfg = self.m.sweep.parse_config_text(self.neumark_text)

    def prepare(self) -> None:
        """Expected file contents, computed in-process through the same package."""
        sw = self.m.sweep
        csv_text = sw.rows_to_csv(sw.run_sweep(self.sweep_cfg))
        self.calls = {
            "sweep": (["sweep", f"{self.rel}/sweep.cfg", "--out", f"{self.rel}/sweep.csv"],
                      "sweep.csv", csv_text),
            "neumark": (["neumark", f"{self.rel}/neumark.cfg", "--out", f"{self.rel}/dump.txt"],
                        "dump.txt", sw.neumark_report(self.neumark_cfg)),
            "plot": (["plot", f"{self.rel}/sweep.csv", "--out", f"{self.rel}/sweep.svg"],
                     "sweep.svg", sw.plot_csv(csv_text, title=f"{self.rel}/sweep.csv")),
        }

    def _op(self, label: str, traced: bool):
        argv, out_name, _ = self.calls[label]
        out_path = self.dir / out_name
        out_path.unlink(missing_ok=True)
        if traced:
            spans_path = self.dir / "child-spans.json"
            cmd = [sys.executable, str(inputs.ROOT / "perfbench" / "cli_child.py"), str(spans_path)]
        else:
            cmd = [sys.executable, "-m", "mcmag.cli"]
        proc = subprocess.run(cmd + argv, cwd=inputs.ROOT, env=self.env, capture_output=True,
                              text=True, timeout=120)
        if traced:
            with open(spans_path, encoding="utf-8") as fh:
                child = json.load(fh)
            self.tracer.adopt(child["spans"], child["counts"])
        text = out_path.read_text(encoding="utf-8") if out_path.exists() else None
        return (proc.returncode, proc.stdout, proc.stderr, text), 1

    def ops(self):
        return [(k, lambda traced, k=k: self._op(k, traced)) for k in ("sweep", "neumark", "plot")]

    def check(self, i: int, out) -> list[str]:
        label = ("sweep", "neumark", "plot")[i]
        argv, out_name, expected = self.calls[label]
        rc, stdout, stderr, text = out
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}: {stderr.strip()[-200:]}")
        if stdout != f"wrote {argv[3]}\n":
            problems.append(f"unexpected stdout {stdout!r}")
        if text != expected:
            problems.append(f"{out_name} differs from the in-process result")
        if text is not None and label == "sweep":
            problems += checks.csv_problems(text, self.sweep_cfg.grid_points,
                                            self.sweep_cfg.p_inc_threshold)
            if self.reference is not None:
                problems += checks.compare_csv(text, self.reference["sweep"][inputs.CLI_SWEEP])
        if text is not None and label == "neumark" and self.reference is not None:
            if text != self.reference["neumark"]:
                problems.append("neumark dump differs from the reference bytes")
        if text is not None and label == "plot":
            problems += checks.svg_problems(text, self.calls["sweep"][2])
        return [f"cli {label}: {p}" for p in problems]

    def oracle(self, i: int, out) -> list[str]:
        if i != 0 or out[3] is None:
            return []
        rng = np.random.default_rng([self.seed, 2])
        return [f"cli sweep: {p}" for p in csv_oracle(self.m, out[3], self.sweep_cfg.eta0, rng)]

    def grid_points(self, firsts) -> int:
        first = firsts[0]
        return len(checks.parse_csv(first[3])[1]) if first and first[3] else 0


WORKLOADS = {w.name: w for w in (SweepFigures, ApiPointwise, McValidate, CliOneshot)}
