"""The benchmark's workloads and the checks every command output must pass.

A workload is a fixed sequence of ksctl commands on one configuration,
run by one client back to back (closed loop, one thread).  ``--seed``
changes only the generated inputs:

* ``sweep-1d`` and ``control-2d`` draw ``physics.delta`` (the amplitude of
  the initial density perturbation) uniformly from [0.0075, 0.0125];
  ``eps-sweep`` converges in three Picard iterations per eps at both ends;
* ``audit-1d`` sets ``solver.seed``, which draws the Carleman samples.

Seed 0 leaves ``configs/default.yaml`` unchanged, and on seed 0 every
``g_l2h1`` output is compared with ``reference.json`` to 1e-9 relative.
Those values were recorded with the numpy kernel backend (numba absent),
OpenBLAS 0.3.31 at one thread, numpy 2.4, scipy 1.17, CPython 3.11, x86-64.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ksctl import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "default.yaml"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# 2D: n=[32,32] (1,089 nodes), m=40, T=2.4 from the defaults, every default
# control box repeated on both axes
_TWO_D = {
    "grid.dim": 2, "grid.L": [1.0, 1.0], "grid.n": [32, 32], "grid.m": 40,
    "weights.omega0": [[0.30, 0.40]] * 2,
    "weights.omega_prime": [[0.25, 0.45]] * 2,
    "weights.omega": [[0.20, 0.50]] * 2,
}

MASS_DRIFT_MAX = 1e-11
CROSSVAL_MAX = 1e-8
G_REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    commands: tuple
    overrides: dict
    seeded: str  # "delta" or "solver.seed"
    why: str


WORKLOADS = {
    "sweep-1d": Workload(
        ("eps-sweep", "control-nonlinear", "control-linear"), {}, "delta",
        "1D defaults: the Picard loop and its implicit nonlinear verification "
        "marches dominate; CG and the Gramian applies are cheap here"),
    "control-2d": Workload(
        ("simulate", "control-linear", "control-nonlinear"), _TWO_D, "delta",
        "2D n=32x32, m=40: cost sits in sparse solves, the dual CG and the 2D "
        "chemotaxis matrix assembly, not in per-step Python overhead"),
    "audit-1d": Workload(
        ("carleman", "simulate"), {}, "solver.seed",
        "1D Carleman audit: independent adjoint marches and log-domain "
        "integrals; runs no CG and no Picard loop"),
}


def overrides(name: str, seed: int) -> dict:
    """Config overrides (dotted keys) of workload ``name`` at ``seed``."""
    wl = WORKLOADS[name]
    out = dict(wl.overrides)
    if seed != 0:
        if wl.seeded == "delta":
            rng = np.random.default_rng(seed)
            out["physics.delta"] = float(rng.uniform(0.0075, 0.0125))
        else:
            out["solver.seed"] = int(seed)
    return out


def load_config(name: str, seed: int, outdir: str) -> cli.ExperimentConfig:
    return cli.parse_config(str(CONFIG), {**overrides(name, seed), "io.outdir": outdir})


def load_reference(name: str, seed: int) -> dict:
    """Recorded ``g_l2h1`` values per command, or {} when none apply."""
    if seed != 0:
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh).get(name, {})


def g_values(command: str, summary: dict, rows: list) -> dict:
    """The ``g_l2h1`` outputs of one command, keyed for ``reference.json``."""
    if command in ("control-linear", "control-nonlinear"):
        return {"g_l2h1": float(summary["g_l2h1"])}
    if command == "eps-sweep":
        return {f"eps={float(r['eps']):g}": float(r["g_l2h1"]) for r in rows}
    return {}


def check_outputs(command: str, cfg: cli.ExperimentConfig, exit_code: int,
                  reference: dict) -> tuple[list, bytes]:
    """Problems found in one command's outputs, and its CSV bytes."""
    stem = os.path.join(cfg.io["outdir"], f"{command}-{cfg.content_hash}")
    with open(stem + ".json") as fh:
        summary = json.load(fh)["summary"]
    with open(stem + ".csv", "rb") as fh:
        csv_bytes = fh.read()
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    two_tol = 2.0 * cfg.solver["tol"]
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]

    if command == "simulate":
        drift = max(float(summary["mass_drift_pp"]), float(summary["mass_drift_pe"]))
        if not drift < MASS_DRIFT_MAX:
            problems.append(f"mass drift {drift:.3e}")
    elif command == "carleman":
        if summary["falsifications"] != 0:
            problems.append(f"{summary['falsifications']} falsifications")
    elif command == "control-linear":
        if not (summary["cg_converged"] and summary["curvature_ok"]):
            problems.append("CG not converged or curvature check failed")
        if not float(summary["crossval_rel"]) <= CROSSVAL_MAX:
            problems.append(f"crossval_rel {summary['crossval_rel']}")
    elif command == "control-nonlinear":
        if not summary["converged"]:
            problems.append("Picard not converged")
        if not float(summary["forward_residual"]) < two_tol:
            problems.append(f"forward_residual {summary['forward_residual']}")
    elif command == "eps-sweep":
        if len(rows) != len(cfg.physics["eps_list"]):
            problems.append(f"{len(rows)} sweep rows for "
                            f"{len(cfg.physics['eps_list'])} eps values")
        for r in rows:
            if r["converged"] != "True" or not float(r["forward_residual"]) < two_tol:
                problems.append(f"eps={r['eps']} not converged or forward "
                                f"residual {r['forward_residual']}")

    expected = reference.get(command)
    if expected is not None:
        got = g_values(command, summary, rows)
        if set(got) != set(expected):
            problems.append(f"g_l2h1 keys {sorted(got)} differ from the reference's")
        for key in set(got) & set(expected):
            if not abs(got[key] - expected[key]) <= G_REL_TOL * abs(expected[key]):
                problems.append(f"{key} g_l2h1 {got[key]!r} differs from "
                                f"reference {expected[key]!r}")
    return problems, csv_bytes
