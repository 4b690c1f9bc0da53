"""Experiment harness: config parsing, the five commands, CSV/JSON reports.

Usage:  ksctl <command> --config <path> [--section.key=value ...]

Commands: simulate, carleman, control-linear, control-nonlinear, eps-sweep.
Outputs land in ``<outdir>/<command>-<hash>.csv`` and ``.json`` where the
hash digests the fully resolved configuration; rerunning an identical
config reproduces the CSV byte for byte (timings live only in the JSON
record).  Exit codes: 0 success, 1 configuration or usage error, 2 solver
non-convergence or input rejected by the solvers, 3 invariant
falsification, 4 internal error (traceback printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import numbers
import os
import sys
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np
import yaml

from .carleman_check import adjoint_reports, lemmaA1_report, weight_families
from .grid import ConfigError, Grid, build_grid, l2_norm, mass
from .hum_control import ControlProblem, SolverSettings, extract_control, solve_dual
from .ks_model import Control, KSParams, smooth_cutoff, solve_forward_pp, solve_linearized
from .nonlinear_control import e_norm, eps_sweep, forward_residual, picard_solve
from .weights import (Eta0, WeightParams, WeightTable, build_eta0, check_boxes,
                      refined_weights, weight_params)

__all__ = ["ExperimentConfig", "parse_config", "run", "main", "ConfigError"]

COMMANDS = ("simulate", "carleman", "control-linear", "control-nonlinear", "eps-sweep")

DEFAULTS: dict = {
    "grid": {"dim": 1, "L": 1.0, "n": 50, "T": 2.4, "m": 100},
    "physics": {
        "a": 10.0, "b": 1.0, "eps": 1.0,
        "eps_list": [1.0, 0.5, 0.1, 0.01, 0.001],
        "M1": 1.0, "M2": 10.0, "delta": 0.01, "mode": 1,
    },
    "weights": {
        "lambda": 1.5, "sigma0": 0.05, "s": None, "s_scan": [1.0, 2.0, 4.0],
        "omega0": [0.30, 0.40], "omega_prime": [0.25, 0.45],
        "omega": [0.20, 0.50],
    },
    "solver": asdict(SolverSettings()),
    "io": {"outdir": "out", "format": "both"},
}


@dataclass
class ExperimentConfig:
    grid: dict
    physics: dict
    weights: dict
    solver: dict
    io: dict

    @property
    def content_hash(self) -> str:
        # identifies the experiment: io plumbing (output paths) excluded
        payload = {k: v for k, v in asdict(self).items() if k != "io"}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    # -- builders ---------------------------------------------------------

    def build_grid(self) -> Grid:
        g = self.grid
        return build_grid(g["dim"], g["L"], g["n"], g["T"], g["m"])

    def params(self, eps: float | None = None) -> KSParams:
        ph = self.physics
        return KSParams(a=ph["a"], b=ph["b"],
                        eps=ph["eps"] if eps is None else float(eps),
                        M1=ph["M1"], M2=ph["M2"])

    def settings(self) -> SolverSettings:
        return SolverSettings(**self.solver)

    def carleman_params(self, T: float) -> WeightParams:
        """``weights.s`` when given (0 included), else s derived from sigma0."""
        w = self.weights
        return weight_params(T, w["lambda"], s=w["s"], sigma0=w["sigma0"])

    def eta0(self, grid: Grid) -> Eta0:
        w = self.weights
        return build_eta0(grid, w["omega0"], w["omega_prime"], w["omega"])

    def refined_table(self, grid: Grid) -> WeightTable:
        return refined_weights(self.eta0(grid), self.carleman_params(grid.T))

    def cutoff(self, grid: Grid) -> np.ndarray:
        return smooth_cutoff(grid, self.weights["omega_prime"], self.weights["omega"])

    def initial_data(self, grid: Grid):
        ph = self.physics
        bump = np.prod(np.cos(ph["mode"] * np.pi * grid.node_coords / np.asarray(grid.L)), axis=1)
        u0 = ph["M1"] + ph["delta"] * bump
        v0 = np.full(grid.num_nodes, ph["M2"])
        return u0, v0


# numeric fields that take a list of numbers (per axis, or one per run)
_NUMBER_LISTS = ("grid.n", "grid.L", "physics.eps_list", "weights.s_scan")
# numeric fields whose default is null
_OPTIONAL_NUMBERS = ("weights.s",)


def _coerce(default, value, key: str, violations: list):
    """Type-guided coercion: YAML reads '1e-14' as a string, so numeric
    fields convert string leaves back to numbers; an int field stores an
    integral finite number as an int and a float field any number as a
    float, so that equal numbers hash alike; a section merges a mapping into
    its defaults; anything else (a list, a mapping, a word, 2.5 for a count,
    a number for a section) is a violation, reported before any use."""
    if isinstance(default, dict):
        if value is not None and not isinstance(value, dict):
            violations.append(f"'{key}' must be a mapping, got {value!r}")
            value = None
        return _merge(default, value or {}, f"{key}.", violations)
    if key in _NUMBER_LISTS and isinstance(value, list):   # each item a number, under its index
        item = default[0] if isinstance(default, list) else default
        return [_coerce(item, x, f"{key}[{i}]", violations) for i, x in enumerate(value)]
    if isinstance(default, list) and key in _NUMBER_LISTS:
        violations.append(f"'{key}' must be a list of numbers, got {value!r}")
        return default
    if key in _OPTIONAL_NUMBERS:
        if value is None:
            return None
    elif not isinstance(default, (int, float)) or isinstance(default, bool):
        return value
    num = value
    if isinstance(value, str):
        try:
            num = float(value)
        except ValueError:
            pass
    if isinstance(default, int):
        if isinstance(num, float) and num.is_integer():  # False on inf and nan
            num = int(num)
        if isinstance(num, numbers.Integral) and not isinstance(num, bool):
            return int(num)
        violations.append(f"'{key}' must be an integer, got {value!r}")
        return default
    if isinstance(num, bool) or not isinstance(num, numbers.Real):
        violations.append(f"'{key}' must be a number, got {value!r}")
        return default
    try:
        return float(num)
    except OverflowError:   # an integer beyond double range
        violations.append(f"'{key}' must be a number within double range")
        return default


def _merge(base: dict, override: dict, path: str, violations: list) -> dict:
    out = {}
    for key, val in base.items():
        if key in override or isinstance(val, dict):   # a section is always copied
            out[key] = _coerce(val, override.get(key), f"{path}{key}", violations)
        else:
            out[key] = val
    for key in override:
        if key not in base:
            violations.append(f"unknown key '{path}{key}'")
    return out


def _validate(cfg: dict) -> list:
    """Rules of the fields no domain object owns; the other rules live in
    the constructors (see :func:`_domain_violations`)."""
    v = []
    ph, w = cfg["physics"], cfg["weights"]
    if not ph["eps_list"]:
        v.append("physics.eps_list must not be empty")
    if not 0 <= ph["delta"] < np.inf:
        v.append("physics.delta must be nonnegative and finite")
    if not ph["mode"] >= 1:
        v.append("physics.mode must be a positive integer")
    if not (w["s_scan"] and all(x > 0 for x in w["s_scan"])):
        v.append("weights.s_scan must be a non-empty list of positive numbers")
    if cfg["io"]["format"] not in ("csv", "json", "both"):
        v.append("io.format must be csv|json|both")
    return v


def _domain_violations(cfg: ExperimentConfig) -> list:
    """Build the grid, the physics for every eps, the Carleman parameters and
    the solver settings, check the control boxes, and collect the rejects."""
    g, ph, w = cfg.grid, cfg.physics, cfg.weights
    v: list = []

    def collect(section: str, build, *args, key=("eps", "eps")):
        try:
            return build(*args)
        except ConfigError as exc:  # a list entry reports under its own key
            v.extend(f"{section}.{x}".replace(f".{key[0]} ", f".{key[1]} ", 1)
                     for x in exc.violations)

    grid = collect("grid", cfg.build_grid)
    collect("physics", cfg.params, ph["eps"])
    for i, eps in enumerate(ph["eps_list"]):
        collect("physics", cfg.params, eps, key=("eps", f"eps_list[{i}]"))
    if grid is None and w["s"] is None:  # s derives from a valid T only: check lambda at s = 1
        collect("weights", weight_params, 1.0, w["lambda"], 1.0)
    elif base := collect("weights", cfg.carleman_params, g["T"]):
        for i, mult in enumerate(w["s_scan"]):   # each s carleman scans; _validate names mult <= 0
            if mult > 0:
                collect("weights", weight_params, g["T"], w["lambda"], mult * base.s,
                        key=("s", f"s_scan[{i}]"))
    if grid is not None:
        dim, L = grid.dim, grid.L
    else:  # check the nesting anyway; the domain only if L fits the axes
        dim = g["dim"] if g["dim"] in (1, 2) else 1
        L = np.atleast_1d(g["L"])
        L = tuple(np.broadcast_to(L, dim)) if L.size in (1, dim) else None
    collect("weights", check_boxes, dim, L, w["omega0"], w["omega_prime"], w["omega"])
    collect("solver", cfg.settings)
    return list(dict.fromkeys(v))


def parse_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    """Load, merge with defaults, apply overrides, and validate fully."""
    violations: list = []
    data = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = yaml.safe_load(fh) or {}
        except (OSError, yaml.YAMLError) as exc:   # a YAML message spans lines
            raise ConfigError([f"cannot read config {path}: " + " ".join(str(exc).split())])
        if not isinstance(data, dict):
            raise ConfigError([f"config {path} is not a key-value mapping"])
    merged = _merge(DEFAULTS, data, "", violations)
    for dotted, value in (overrides or {}).items():
        *sections, leaf = dotted.split(".")
        node, default = merged, DEFAULTS   # merged has the sections of DEFAULTS
        for part in sections:
            if not isinstance(default.get(part), dict):
                violations.append(f"unknown override section '{dotted}'")
                break
            node, default = node[part], default[part]
        else:
            if leaf not in default:
                violations.append(f"unknown override key '{dotted}'")
            elif isinstance(default[leaf], dict) and not isinstance(value, (dict, type(None))):
                violations.append(f"'{dotted}' must be a mapping, got {value!r}")
            else:   # coerced against the default, as the file's values are
                if isinstance(default[leaf], dict):   # a section keeps the file's other keys
                    value = {**node[leaf], **(value or {})}
                node[leaf] = _coerce(default[leaf], value, dotted, violations)
    cfg = ExperimentConfig(**merged)
    violations += _domain_violations(cfg) + _validate(merged)
    if violations:
        raise ConfigError(violations)
    return cfg


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    return str(x)


def _decimal_from_log(log_value: float) -> str:
    """Scientific-notation literal of exp(log_value) for magnitudes beyond
    the double exponent range."""
    d = log_value / np.log(10.0)
    expo = int(np.floor(d))
    mant = round(10.0 ** (d - expo), 6)
    if mant == 10.0:   # rounded up to 10: carry into the exponent
        mant, expo = 1.0, expo + 1
    return f"{mant:.6f}e{expo:+d}"


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[h]) for h in header) + "\n")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if np.isnan(x):
            return "nan"
        if np.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    return obj


class _Runner:
    def __init__(self, command: str, cfg: ExperimentConfig):
        self.command = command
        self.cfg = cfg
        self.t_start = time.time()
        self.phases: dict = {}

    def phase(self, name: str):
        self.phases[name] = time.time()
        return self

    def finish(self, header, rows, summary, exit_code: int) -> int:
        cfg = self.cfg
        stem = os.path.join(cfg.io["outdir"], f"{self.command}-{cfg.content_hash}")
        manifest = []
        if cfg.io["format"] in ("csv", "both"):
            _write_csv(stem + ".csv", header, rows)
            manifest.append(stem + ".csv")
        if cfg.io["format"] in ("json", "both"):
            record = {
                "command": self.command,
                "config": asdict(cfg),
                "config_hash": cfg.content_hash,
                "wall_seconds": time.time() - self.t_start,
                "phase_marks": {
                    k: v - self.t_start for k, v in self.phases.items()
                },
                "outputs": manifest + [stem + ".json"],
                "exit_code": exit_code,
                "summary": _jsonify(summary),
            }
            with open(stem + ".json", "w") as fh:
                json.dump(record, fh, indent=2)
        return exit_code


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg: ExperimentConfig, runner: _Runner) -> int:
    grid = cfg.build_grid()
    p = cfg.params()
    chi = cfg.cutoff(grid)
    u0, v0 = cfg.initial_data(grid)
    ctl = Control.zero(grid, chi)
    runner.phase("setup")
    pp, pe = solve_forward_pp([p, p], u0, v0, [ctl, ctl], grid, ["lagged", "elliptic"])
    runner.phase("solves")
    cols = {
        "t": grid.times,
        "mass_u_pp": mass(pp.u, grid),
        "mass_u_pe": mass(pe.u, grid),
        "min_u_pp": pp.u.min(axis=1),
        "max_u_pp": pp.u.max(axis=1),
        "dev_u_pp": l2_norm(pp.u - p.M1, grid),
        "dev_v_pp": l2_norm(pp.v - p.M2, grid),
        "dev_u_pe": l2_norm(pe.u - p.M1, grid),
        "dev_v_pe": l2_norm(pe.v - p.M2, grid),
    }
    rows = [dict(zip(cols, row)) for row in zip(*cols.values())]
    m0 = cols["mass_u_pp"][0]
    drift_pp, drift_pe = (np.abs(cols[f"mass_u_{s}"] - m0).max() / abs(m0) for s in ("pp", "pe"))
    summary = {
        "mass_drift_pp": drift_pp, "mass_drift_pe": drift_pe,
        "final_dev_u_pp": cols["dev_u_pp"][-1], "final_dev_u_pe": cols["dev_u_pe"][-1],
        "negative_density_detected": bool(cols["min_u_pp"].min() < 0),
    }
    header = list(cols)
    code = 0 if max(drift_pp, drift_pe) < 1e-11 else 3
    if code == 3:
        print(f"ksctl simulate: mass-conservation invariant violated "
              f"(drift {max(drift_pp, drift_pe):.3e})", file=sys.stderr)
    return runner.finish(header, rows, summary, code)


def _cmd_carleman(cfg: ExperimentConfig, runner: _Runner) -> int:
    grid = cfg.build_grid()
    chi = cfg.cutoff(grid)
    eta = cfg.eta0(grid)
    s_base = cfg.carleman_params(grid.T).s
    alpha, beta = weight_families(
        eta, [mult * s_base for mult in cfg.weights["s_scan"]], cfg.weights["lambda"])
    settings = cfg.settings()
    eps_list = tuple(cfg.physics["eps_list"][:3])
    runner.phase("setup")

    reports, rep31 = adjoint_reports(cfg.params(), alpha, beta, eta, chi, eps_list=eps_list,
                                     n_samples=settings.n_samples, seed=settings.seed)
    runner.phase("thm2.2+lem3.1")
    repA = lemmaA1_report(alpha, eta, n_samples=settings.n_samples, seed=settings.seed)
    runner.phase("lemA.1")

    header = ["inequality", "sample_id", "s", "lambda", "eps", "lhs", "rhs", "ratio"]
    rows = []
    falsified = []
    summary: dict = {"c_emp_log": {}, "falsifications": 0, "log_integrals": {
        "calls": sum(w.calls for w in alpha + beta),
        "digests": sum(w.digests_built for w in alpha + beta)}}
    for rep in reports + [rep31, repA]:
        for r in rep.rows:
            row = {"inequality": rep.inequality, **{k: r[k] for k in header[1:]}}
            # a ratio beyond double range is still a finite number; print it
            # from its log instead of collapsing to inf
            if np.isinf(row["ratio"]) and np.isfinite(r["log_ratio"]):
                row["ratio"] = _decimal_from_log(r["log_ratio"])
            rows.append(row)
        summary["c_emp_log"].setdefault(rep.inequality, {}).update({
            f"s={k[0]:g},eps={k[1]:g}": val for k, val in rep.c_emp_log.items()
        })
        if not rep.ok:
            falsified.append(rep.inequality)
            summary["falsifications"] += len(rep.falsifications)
    code = 0 if not falsified else 3
    if falsified:
        print(f"ksctl carleman: falsification events in {falsified}", file=sys.stderr)
    return runner.finish(header, rows, summary, code)


def _cmd_control_linear(cfg: ExperimentConfig, runner: _Runner) -> int:
    grid = cfg.build_grid()
    p = cfg.params()
    chi = cfg.cutoff(grid)
    wt = cfg.refined_table(grid)
    u0, v0 = cfg.initial_data(grid)
    prob = ControlProblem(params=p, grid=grid, weights=wt, chi=chi,
                          z0=u0 - p.M1, w0=v0 - p.M2, settings=cfg.settings())
    runner.phase("setup")
    dual = solve_dual(prob)
    runner.phase("cg")
    row = {"eps": p.eps, "tau": prob.settings.tau, "cg_iterations": dual.iterations,
           "cg_converged": dual.converged, "curvature_ok": dual.curvature_ok}
    if dual.failure:  # no minimiser: nothing to extract
        print(f"ksctl control-linear: {dual.failure}", file=sys.stderr)
        return runner.finish(list(row), [row], {**row, "dual_value": dual.value},
                             2 if dual.curvature_ok else 3)
    res = extract_control(dual, prob)
    free = solve_linearized(p, prob.z0, prob.w0, Control.zero(grid, chi),
                            None, None, grid)
    free_term = l2_norm(free.u[-1], grid)
    runner.phase("extract")
    row.update({
        "terminal_u": res.terminal_u, "terminal_v": res.terminal_v,
        "free_terminal_u": free_term,
        "terminal_ratio": res.terminal_u / free_term if free_term > 0 else 0.0,
        "g_l2h1": res.g_l2h1, "crossval_rel": res.crossval_rel,
        "log_weighted_u": res.log_weighted_u,
        "log_weighted_v": res.log_weighted_v,
        "log_weighted_g": res.log_weighted_g,
    })
    return runner.finish(list(row), [row], {**row, "dual_value": dual.value}, 0)


def _cmd_control_nonlinear(cfg: ExperimentConfig, runner: _Runner) -> int:
    grid = cfg.build_grid()
    p = cfg.params()
    chi = cfg.cutoff(grid)
    wt = cfg.refined_table(grid)
    u0, v0 = cfg.initial_data(grid)
    s = cfg.settings()
    runner.phase("setup")
    result = picard_solve(p, u0, v0, wt, chi, grid, s)
    # the lagged-coupling gap and the E-norm, once the loop reached its verification
    lagged, components = np.inf, {}
    if np.isfinite(result.forward_residual):
        lagged = forward_residual(p, u0, v0, result.control, grid, "lagged")
        components = e_norm(result.z, result.w, result.control.g, wt, p, chi, grid, s)
    runner.phase("picard")
    rows = [
        {"iteration": i + 1, "terminal_residual": t, "update_norm": u}
        for i, (t, u) in enumerate(zip(result.terminal_history,
                                       result.update_history))
    ]
    summary = {
        "converged": result.converged, "iterations": result.iterations,
        "g_l2h1": result.g_l2h1, "forward_residual": result.forward_residual,
        "forward_residual_lagged": lagged,
        "failure_reason": result.failure_reason,
        "e_norm_log_components": components,
    }
    code = 0 if result.converged else 2 if result.curvature_ok else 3
    if not result.converged:
        print(f"ksctl control-nonlinear: {result.failure_reason or 'no convergence'}",
              file=sys.stderr)
    return runner.finish(["iteration", "terminal_residual", "update_norm"],
                         rows, summary, code)


def _cmd_eps_sweep(cfg: ExperimentConfig, runner: _Runner) -> int:
    grid = cfg.build_grid()
    p = cfg.params()
    chi = cfg.cutoff(grid)
    wt = cfg.refined_table(grid)
    u0, v0 = cfg.initial_data(grid)
    runner.phase("setup")
    report = eps_sweep(p, u0, v0, wt, chi, grid, eps_list=cfg.physics["eps_list"],
                       settings=cfg.settings())
    runner.phase("sweep")
    header = ["eps", "g_l2h1", "iterations", "terminal_residual",
              "forward_residual", "converged"]
    rows = sorted(report.rows + report.excluded, key=lambda r: -r["eps"])
    summary = {
        "uniformity_ratio": report.uniformity_ratio,
        "converged_count": len(report.rows),
        "excluded": [r["eps"] for r in report.excluded],
        "excluded_reasons": [{"eps": r["eps"], "reason": r["failure_reason"]}
                             for r in report.excluded],
    }
    code = 0 if not report.excluded else (
        2 if all(r["curvature_ok"] for r in report.excluded) else 3)
    if report.excluded:
        print(f"ksctl eps-sweep: non-converged eps excluded: "
              f"{[r['eps'] for r in report.excluded]}", file=sys.stderr)
        for r in report.excluded:
            print(f"ksctl eps-sweep: eps={r['eps']:g}: {r['failure_reason']}",
                  file=sys.stderr)
    return runner.finish(header, rows, summary, code)


_DISPATCH = {
    "simulate": _cmd_simulate,
    "carleman": _cmd_carleman,
    "control-linear": _cmd_control_linear,
    "control-nonlinear": _cmd_control_nonlinear,
    "eps-sweep": _cmd_eps_sweep,
}


def run(command: str, cfg: ExperimentConfig) -> int:
    """Execute one command on a validated config; returns the exit code."""
    if command not in _DISPATCH:
        print(f"ksctl: unknown command {command!r}; choose from "
              f"{', '.join(COMMANDS)}", file=sys.stderr)
        return 1
    try:   # before the command runs, so that a bad path costs no solve
        os.makedirs(cfg.io["outdir"], exist_ok=True)
    except OSError as exc:
        print(f"ksctl: config error: io.outdir {cfg.io['outdir']!r} cannot be created: {exc}",
              file=sys.stderr)
        return 1
    return _DISPATCH[command](cfg, _Runner(command, cfg))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit-code contract: usage errors are 1
        raise ConfigError([message])


def main(argv=None) -> int:
    parser = _Parser(prog="ksctl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", help=f"one of: {', '.join(COMMANDS)}")
    parser.add_argument("--config", default=None, help="YAML config path")
    try:
        args, extra = parser.parse_known_args(argv)
        overrides = {}
        for token in extra:
            if not token.startswith("--") or "=" not in token:
                raise ConfigError([f"unrecognized argument {token!r}; overrides "
                                   "take the form --section.key=value"])
            dotted, _, raw = token[2:].partition("=")
            try:
                overrides[dotted] = yaml.safe_load(raw)
            except yaml.YAMLError as exc:
                raise ConfigError([f"cannot read override '{dotted}': "
                                   + " ".join(str(exc).split())])
        if args.command not in COMMANDS:
            print(f"ksctl: unknown command {args.command!r}; choose from "
                  f"{', '.join(COMMANDS)}", file=sys.stderr)
            parser.print_usage(sys.stderr)
            return 1
        cfg = parse_config(args.config, overrides)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"ksctl: config error: {violation}", file=sys.stderr)
        return 1
    try:
        return run(args.command, cfg)
    except (RuntimeError, ValueError) as exc:  # solver failures, rejected inputs
        print(f"ksctl {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception:  # anything else is a defect, not non-convergence
        traceback.print_exc()
        print(f"ksctl {args.command}: internal error", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
