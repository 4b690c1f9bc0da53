import dataclasses
import inspect
import json
import math
import os
import sys
from collections import Counter

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksctl import carleman_check, cli, ks_model, nonlinear_control
from ksctl.cli import ConfigError, main, parse_config
from ksctl.grid import MAX_SPACE_TIME, build_grid
from ksctl.hum_control import SolverSettings


def write_cfg(tmp_path, name="cfg.yaml", **sections):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(sections))
    return str(path)


def small_sections(outdir, **extra):
    base = {
        "grid": {"n": 24, "m": 32},
        "solver": {"n_samples": 3},
        "io": {"outdir": str(outdir)},
    }
    base.update(extra)
    return base


def test_defaults_fill_in(tmp_path):
    cfg = parse_config(write_cfg(tmp_path))
    assert cfg.grid["n"] == 50
    assert cfg.physics["a"] == 10.0
    assert cfg.solver["tau"] == 1e-8
    assert cfg.io["format"] == "both"


def test_solver_defaults_are_the_config_section_in_order():
    # the JSON record's solver block keeps this order; the golden test pins the hash
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "default.yaml")
    with open(path) as fh:
        section = yaml.safe_load(fh)["solver"]
    assert list(dataclasses.asdict(SolverSettings()).items()) == list(section.items())


def test_all_violations_reported_at_once(tmp_path):
    path = write_cfg(
        tmp_path,
        grid={"n": 4, "m": 8},
        physics={"M2": 3.0, "eps": 2.0},
        weights={"omega_prime": [0.1, 0.9]},
    )
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    text = "; ".join(err.value.violations)
    assert len(err.value.violations) >= 5
    assert "steady-state compatibility" in text
    assert "nesting rule" in text
    assert "at least 8" in text
    assert "(0, 1]" in text


def test_wrong_L_length_is_one_violation(tmp_path):
    # the domain-box nesting check is skipped, not failed, when L is invalid
    with pytest.raises(ConfigError) as err:
        parse_config(write_cfg(tmp_path), {"grid.L": [1, 1]})
    assert err.value.violations == ["grid.L must have one entry per axis (dim=1)"]


def test_bad_T_is_one_violation(tmp_path):
    # s derives from T only once the grid is valid: no second 's = nan'
    with pytest.raises(ConfigError) as err:
        parse_config(write_cfg(tmp_path), {"grid.T": float("nan")})
    assert err.value.violations == ["grid.T must be > 0.0"]


def test_bad_T_still_checks_lambda(tmp_path, capsys):
    # lambda needs no valid T: both violations come out of one run
    code = main(["simulate", "--config", write_cfg(tmp_path),
                 "--grid.T=.nan", "--weights.lambda=0.5"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == ["ksctl: config error: grid.T must be > 0.0",
                   "ksctl: config error: weights.lambda must be >= 1, got 0.5"]


@pytest.mark.parametrize("key", ["grid.T", "weights.s", "weights.sigma0", "weights.lambda",
                                 "physics.delta"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_a_non_finite_value_is_one_violation(tmp_path, key, value):
    with pytest.raises(ConfigError) as err:
        parse_config(write_cfg(tmp_path), {key: value})
    assert len(err.value.violations) == 1 and err.value.violations[0].startswith(key)


_LEAF_KEYS = sorted({leaf for section in cli.DEFAULTS.values() for leaf in section})
_FUZZ_LEAF = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6), st.integers(),
    st.sampled_from([10**19, -10**19, 10**29, 10**309, -10**400]),
    st.floats(allow_nan=True, allow_infinity=True))
_FUZZ_VALUE = st.recursive(   # nested and ragged lists, mappings with known and other keys
    _FUZZ_LEAF, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
        st.sampled_from(_LEAF_KEYS) | st.text(max_size=4), kids, max_size=3),
    max_leaves=8)


@settings(max_examples=400, deadline=None)
@given(overrides=st.dictionaries(
    st.sampled_from(sorted([*cli.DEFAULTS, *(f"{name}.{leaf}" for name, section in
                                             cli.DEFAULTS.items() for leaf in section)])),
    _FUZZ_VALUE, min_size=1, max_size=3))
@example(overrides={"grid.n": [-1.4e154, -1.4e154]})   # (n+1)^2 once overflowed the count
def test_any_override_is_a_config_or_a_config_error(overrides):
    # parse_config only: a fuzzed grid that passes would allocate in a command
    try:
        parse_config(None, overrides)
    except ConfigError:
        pass


def test_bad_eps_list_entry_names_its_key(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(write_cfg(tmp_path), {"physics.eps_list": [1.0, 3.0]})
    assert err.value.violations == ["physics.eps_list[1] must lie in (0, 1], got 3.0"]


def test_unknown_keys_rejected(tmp_path):
    path = write_cfg(tmp_path, grid={"dx": 0.1})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path)


def test_override_parsing(tmp_path):
    path = write_cfg(tmp_path)
    cfg = parse_config(path, {"grid.n": 32, "physics.eps": 0.5,
                              "physics.eps_list": [1.0, 0.5]})
    assert cfg.grid["n"] == 32
    assert cfg.physics["eps"] == 0.5
    assert cfg.physics["eps_list"] == [1.0, 0.5]
    with pytest.raises(ConfigError, match="unknown override"):
        parse_config(path, {"grid.dx": 0.1})


def test_unknown_command_exits_1(tmp_path, capsys):
    path = write_cfg(tmp_path, **small_sections(tmp_path / "out"))
    code = main(["frobnicate", "--config", path])
    assert code == 1
    assert "unknown command" in capsys.readouterr().err


def test_config_error_exits_1(tmp_path, capsys):
    path = write_cfg(tmp_path, physics={"M2": 1.0})
    code = main(["simulate", "--config", path])
    assert code == 1
    assert "steady-state compatibility" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "--solver.tau=0",           # the dual solve needs a positive penalty
    "--solver.weight_floor=0",  # the weight profiles need a positive floor
    "--solver.weight_floor=2",  # relative to a maximum of 1: a floor above it flattens
    "--solver.weight_floor=1e300",
    "--solver.weight_floor=inf",
    "--grid.n=[8,8]",           # two axes' worth of intervals with dim 1
    "--weights.s=-1",           # the Carleman parameter must be positive
    "--weights.s=0",            # not "derive s from sigma0"
    "--physics.mode=0",         # mode 0 is no perturbation, u0 mean != M1
    "--physics.eps_list=[]",    # an empty sweep would report vacuous rows
    "--grid.m=[20]",            # a list where a number belongs
    "--physics.delta=[1]",
    "--physics.mode=[1]",
    "--grid.L=[a,1]",           # a word among the per-axis lengths
    "--weights.s_scan=[]",      # carleman would write a header-only CSV
    "--weights.s_scan=[0]",     # each scanned multiple of s must be > 0
    "--weights.s_scan=[-1]",
    "--solver.maxit=2.5",       # a count takes an integral finite number only
    "--solver.cg_maxit=2.5",
    "--solver.n_samples=2.5",
    "--solver.seed=1.5",
    "--solver.maxit=.inf",
    "--grid.m=20.5",
    "--grid.n=10.5",
    "--grid.m=inf",
    "--grid.m=nan",
    "--solver.seed=-1",         # numpy draws from a nonnegative seed
    "--physics.a=1" + "0" * 400,  # an integer beyond double range
    "--grid.n=[[1,2,3]]",       # a number list takes numbers, not lists
    "--grid.L=[[1.0]]",
    "--physics.eps_list=[[0.5]]",
    "--weights.s_scan=[[1,2]]",
    "--weights.s_scan=[1e308]",  # a scanned multiple of s beyond double range
    "--grid.T=1e308",           # s = sigma0 (T^4 + T^8) beyond double range
    "--grid.T=1e40",
    "--grid.m=1" + "0" * 400,   # a count beyond double range
    "--grid.m=-1" + "0" * 400,  # and below it: (m+1) x nodes must not overflow
    "--grid.n=1" + "0" * 400,
    "--grid.m=1" + "0" * 29,    # a count numpy cannot index as (m+1) x nodes
    "--grid.n=1" + "0" * 20,
    "--weights.omega0=[1" + "0" * 400 + ",2]",
    "--grid.T=inf",             # non-finite values the solvers cannot use
    "--weights.s=inf",
    "--weights.sigma0=inf",
    "--weights.lambda=inf",
    "--physics.delta=inf",
    "--physics.delta=.nan",
])
def test_solver_rejections_are_config_errors(tmp_path, capsys, override):
    path = write_cfg(tmp_path, **small_sections(tmp_path / "out"))
    assert main(["simulate", "--config", path, override]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert override[2:].partition("=")[0] in err   # the violation names its key


@pytest.mark.parametrize("command", cli.COMMANDS)
@pytest.mark.parametrize("override", ["--grid.m=1000000", "--grid.n=100000"])
def test_a_grid_beyond_the_space_time_bound_is_a_config_error(tmp_path, capsys, command,
                                                               override):
    # (m+1) x nodes is bounded by the largest array a command holds: at
    # m = 10^6 on the 25 nodes here a space-time field alone is 0.2 GB
    path = write_cfg(tmp_path, **small_sections(tmp_path / "out"))
    assert main([command, "--config", path, override]) == 1
    err = capsys.readouterr().err
    assert f"grid.m and n must give (m+1) x nodes <= {MAX_SPACE_TIME}" in err
    assert "Traceback" not in err


def test_the_space_time_bound_admits_fine_grids(tmp_path):
    # a 1D grid of 12320 intervals at m = 100, where the density step's mass
    # drift is measured, and the 2D grid of the thread-invariance check pass
    boxes = {"omega0": [[0.30, 0.40]] * 2, "omega_prime": [[0.25, 0.45]] * 2,
             "omega": [[0.20, 0.50]] * 2}
    parse_config(write_cfg(tmp_path, "1d.yaml", grid={"n": 12320, "m": 100}))
    parse_config(write_cfg(tmp_path, "2d.yaml", weights=boxes,
                           grid={"dim": 2, "L": [1.0, 1.0], "n": [110, 110], "m": 16}))


@pytest.mark.parametrize("case", ["missing", "directory", "malformed_file",
                                  "malformed_override"])
def test_an_unreadable_config_is_a_config_error(tmp_path, capsys, case):
    path = write_cfg(tmp_path, **small_sections(tmp_path / "out"))
    extra = []
    if case == "missing":
        path = str(tmp_path / "absent.yaml")
    elif case == "directory":
        path = str(tmp_path)
    elif case == "malformed_file":
        (tmp_path / "cfg.yaml").write_text("grid: {n: [1,\n")
    else:
        extra = ["--grid.n=[1,"]
    assert main(["simulate", "--config", path, *extra]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert ("'grid.n'" if extra else path) in err   # it names the override or the file


def test_a_huge_seed_still_runs(tmp_path):
    # numpy's default_rng takes any nonnegative integer
    path = write_cfg(tmp_path, **small_sections(tmp_path / "out"))
    assert main(["simulate", "--config", path, "--solver.seed=1" + "0" * 400]) == 0


@pytest.mark.parametrize("key, in_file, override", [
    ("n", [16, 16], 20),          # a scalar over the file's list
    ("n", 20, [16, 16]),          # a list over the file's scalar
    ("L", [1.0, 1.0], 2.0),
    ("L", 2.0, [1.0, 1.0]),
])
@pytest.mark.parametrize("as_section", [False, True])   # --grid.n=20 or --grid={n: 20}
def test_an_override_is_coerced_like_the_same_value_in_the_file(tmp_path, key, in_file,
                                                                override, as_section):
    boxes = {"omega0": [[0.30, 0.40]] * 2, "omega_prime": [[0.25, 0.45]] * 2,
             "omega": [[0.20, 0.50]] * 2}
    grid = {"dim": 2, "L": [1.0, 1.0], "n": [16, 16], "m": 20}
    overrides = {"grid": {key: override}} if as_section else {f"grid.{key}": override}
    over = parse_config(write_cfg(tmp_path, "a.yaml", grid={**grid, key: in_file},
                                  weights=boxes), overrides)
    same = parse_config(write_cfg(tmp_path, "b.yaml", grid={**grid, key: override},
                                  weights=boxes))
    assert over.content_hash == same.content_hash


@pytest.mark.parametrize("solver, override, message", [
    (None, "--solver=3", "'solver' must be a mapping"),
    (None, "--grid=3", "'grid' must be a mapping"),
    (None, "--physics=2", "'physics' must be a mapping"),
    (5, None, "'solver' must be a mapping"),   # `solver: 5` in the config file
    (None, "--solver.tau.x=3", "unknown override section 'solver.tau.x'"),
])
def test_a_section_that_is_not_a_mapping_is_a_config_error(tmp_path, capsys, solver,
                                                            override, message):
    sections = small_sections(tmp_path / "out")
    if solver is not None:
        sections["solver"] = solver
    argv = ["simulate", "--config", write_cfg(tmp_path, **sections)]
    assert main(argv + ([override] if override else [])) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_integral_floats_run_as_their_integers(tmp_path):
    path = write_cfg(tmp_path, **small_sections(tmp_path / "out"))
    csvs = {}
    for name, override in (("int", "--grid.m=32"), ("float", "--grid.m=32.0")):
        outdir = tmp_path / name
        assert main(["simulate", "--config", path, f"--io.outdir={outdir}", override]) == 0
        (csv_name,) = [f for f in os.listdir(outdir) if f.endswith(".csv")]
        csvs[name] = (csv_name, (outdir / csv_name).read_bytes())
    assert csvs["float"] == csvs["int"]
    assert main(["simulate", "--config", path, "--grid.dim=1.0"]) == 0


def test_simulate_steady_state_columns(tmp_path):
    outdir = tmp_path / "out"
    path = write_cfg(tmp_path, **small_sections(outdir,
                                                physics={"delta": 0.0}))
    assert main(["simulate", "--config", path]) == 0
    csvs = [f for f in os.listdir(outdir) if f.endswith(".csv")]
    assert len(csvs) == 1
    rows = (outdir / csvs[0]).read_text().strip().splitlines()
    header = rows[0].split(",")
    i_mass = header.index("mass_u_pp")
    i_dev = header.index("dev_u_pp")
    masses = [float(row.split(",")[i_mass]) for row in rows[1:]]
    devs = [float(row.split(",")[i_dev]) for row in rows[1:]]
    # constant columns up to the per-step solver roundoff
    assert max(masses) - min(masses) < 1e-12 * abs(masses[0])
    assert max(devs) < 1e-11


def test_float_serialization_has_17_significant_digits(tmp_path):
    outdir = tmp_path / "out"
    path = write_cfg(tmp_path, **small_sections(outdir))
    assert main(["simulate", "--config", path]) == 0
    csvs = [f for f in os.listdir(outdir) if f.endswith(".csv")]
    body = (outdir / csvs[0]).read_text().strip().splitlines()
    header = body[0].split(",")
    val = body[2].split(",")[header.index("dev_u_pp")]
    assert float(val) == float(f"{float(val):.17g}")
    assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 15


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    p1 = write_cfg(tmp_path, "c1.yaml", **small_sections(out1))
    p2 = write_cfg(tmp_path, "c2.yaml", **small_sections(out2))
    assert main(["control-linear", "--config", p1]) == 0
    assert main(["control-linear", "--config", p2]) == 0
    c1 = [f for f in os.listdir(out1) if f.endswith(".csv")][0]
    c2 = [f for f in os.listdir(out2) if f.endswith(".csv")][0]
    assert c1 == c2                       # same config hash
    assert (out1 / c1).read_bytes() == (out2 / c2).read_bytes()


DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "default.yaml")


def test_numerically_equal_configs_share_one_file(tmp_path):
    # a float field stores any number as a float: a = 10 is the default 10.0
    base, ten = tmp_path / "base", tmp_path / "ten"
    argv = ["simulate", "--config", DEFAULT_CONFIG, "--io.format=csv"]
    assert main(argv + [f"--io.outdir={base}"]) == 0
    assert main(argv + [f"--io.outdir={ten}", "--physics.a=10"]) == 0
    assert [f.name for f in ten.iterdir()] == ["simulate-bbaf91c89b14.csv"]
    assert (ten / "simulate-bbaf91c89b14.csv").read_bytes() \
        == (base / "simulate-bbaf91c89b14.csv").read_bytes()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "each density step's LU solve leaves a residual that carries mass: at "
    "n = 3200 the parabolic-elliptic march drifts by 2.0e-11 and simulate exits 3"))
def test_simulate_conserves_mass_on_a_fine_1d_grid(tmp_path):
    # mass is conserved to roundoff on every grid, not only at n = 50
    assert main(["simulate", "--config", DEFAULT_CONFIG, "--grid.n=3200",
                 f"--io.outdir={tmp_path}"]) == 0
    (record,) = tmp_path.glob("simulate-*.json")
    summary = json.loads(record.read_text())["summary"]
    assert max(summary["mass_drift_pp"], summary["mass_drift_pe"]) < 1e-13


TWO_D_32 = ["--grid.dim=2", "--grid.L=[1.0,1.0]", "--grid.n=[32,32]", "--grid.m=40",
            "--weights.omega0=[[0.30,0.40],[0.30,0.40]]",
            "--weights.omega_prime=[[0.25,0.45],[0.25,0.45]]",
            "--weights.omega=[[0.20,0.50],[0.20,0.50]]"]


@pytest.mark.parametrize("overrides, blocks", [([], {2}), (TWO_D_32, {1})], ids=["1d", "2d-32"])
def test_simulate_marches_its_pair_within_the_stack_budget(tmp_path, monkeypatch, overrides,
                                                           blocks):
    # at the 1D defaults the two runs are one stack of two; at 2D 32x32 a
    # stack of two outgrows the budget and each run marches alone
    grids, march = [], cli.solve_forward_pp
    monkeypatch.setattr(cli, "solve_forward_pp", lambda *args: grids.append(args[4]) or march(
        *args))
    assert main(["simulate", "--config", DEFAULT_CONFIG, f"--io.outdir={tmp_path}",
                 *overrides]) == 0
    (grid,) = grids
    assert set(grid._cache["density"]) == blocks


def test_simulate_failures_name_their_cause(tmp_path, capsys, monkeypatch):
    # a run past the density cap exits 2 naming the step; a negative initial
    # density is named before either run marches
    argv = ["simulate", "--config", DEFAULT_CONFIG, f"--io.outdir={tmp_path}"]
    monkeypatch.setattr(ks_model, "BLOWUP_CAP", 1.005)
    assert main(argv) == 2
    assert "BlowUpError: |u|_inf = 1.008e+00 exceeded cap 1.005e+00 at step 1" in \
        capsys.readouterr().err
    monkeypatch.undo()
    assert main(argv + ["--physics.delta=2.0"]) == 2
    assert "ValueError: initial data must be nonnegative" in capsys.readouterr().err
    assert not list(tmp_path.glob("simulate-*"))


def test_weights_s_is_null_or_a_float(tmp_path):
    # YAML reads 5.67e1 as a string; it is the same s, and the same hash, as 56.7
    path = write_cfg(tmp_path)
    word, number = (parse_config(path, {"weights.s": v}) for v in ("5.67e1", 56.7))
    assert word.weights["s"] == 56.7 and isinstance(word.weights["s"], float)
    assert word.content_hash == number.content_hash
    assert parse_config(path, {"weights.s": None}).weights["s"] is None


@pytest.mark.parametrize("raw", ["abc", "[1]"])
def test_weights_s_must_be_a_number(tmp_path, capsys, raw):
    assert main(["simulate", "--config", write_cfg(tmp_path), f"--weights.s={raw}"]) == 1
    assert "'weights.s' must be a number" in capsys.readouterr().err


def test_eps_sweep_csv_one_row_per_eps(tmp_path):
    outdir = tmp_path / "out"
    path = write_cfg(tmp_path, **small_sections(
        outdir, physics={"eps_list": [1.0, 0.1]}))
    assert main(["eps-sweep", "--config", path]) == 0
    csvs = [f for f in os.listdir(outdir) if f.startswith("eps-sweep")
            and f.endswith(".csv")]
    rows = (outdir / csvs[0]).read_text().strip().splitlines()
    assert len(rows) == 3                 # header + one row per eps
    summary = json.loads(
        (outdir / csvs[0].replace(".csv", ".json")).read_text())["summary"]
    assert summary["uniformity_ratio"] >= 1.0


def test_carleman_csv_columns(tmp_path):
    outdir = tmp_path / "out"
    path = write_cfg(tmp_path, **small_sections(outdir))
    assert main(["carleman", "--config", path, "--solver.n_samples=2"]) == 0
    csvs = [f for f in os.listdir(outdir) if f.startswith("carleman")
            and f.endswith(".csv")]
    rows = (outdir / csvs[0]).read_text().strip().splitlines()
    assert rows[0] == "inequality,sample_id,s,lambda,eps,lhs,rhs,ratio"
    assert {r.split(",")[0] for r in rows[1:]} == {"thm2.2", "lem3.1", "lemA.1"}


def _count_calls(monkeypatch, names, label=None) -> Counter:
    """Spy on every binding, in every ``ksctl`` module, of the package
    functions ``names``; returns the live call counts, keyed by the name or
    by ``label(name, bound arguments)`` of each call."""
    modules = [m for n, m in sys.modules.items() if n == "ksctl" or n.startswith("ksctl.")]
    calls = Counter()
    for name in names:
        (original,) = {vars(m)[name] for m in modules if name in vars(m)}
        def counted(*args, _f=original, _n=name, _sig=inspect.signature(original), **kwargs):
            bound = _sig.bind(*args, **kwargs)
            bound.apply_defaults()
            calls[_n if label is None else label(_n, bound.arguments)] += 1
            return _f(*args, **kwargs)
        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def _stack_len(name, args) -> int:
    """The samples one call takes: the length of a stacked ``phiT`` or
    ``sq`` (one more axis than a single sample's), else 1; an integral over
    a list of profiles (an s-scan) counts the stack once per profile."""
    field, ndim = {"solve_adjoint": ("phiT", 2), "log_space_time_integral": ("sq", 3)}.get(
        name, (None, 0))
    n = len(args[field]) if field and args[field].ndim == ndim else 1
    return n * len(args["log_w"]) if isinstance(args.get("log_w"), list) else n


def _samples(calls: Counter) -> Counter:
    """Per key, the samples over all calls counted as (key, stack length)."""
    out = Counter()
    for (key, k), n in calls.items():
        out[key] += k * n
    return out


def test_carleman_draws_each_sample_once_and_marches_it_once_per_eps(
        tmp_path, monkeypatch):
    # thm2.2 and lem3.1 share one sampling pass: n_samples draws, and each
    # sample is marched once per eps, in stacks (at the defaults 20 draws and
    # 60 sample marches, not 120 each); here the 3 samples go as 2 + 1
    monkeypatch.setattr(carleman_check, "STACK_BYTES", 2 * 33 * 25 * 8)
    calls = _count_calls(monkeypatch, ["sample_adjoint_data", "solve_adjoint"], lambda name, a: (
        (name, a["p"].eps) if name == "solve_adjoint" else name, _stack_len(name, a)))
    cfg = parse_config(write_cfg(tmp_path, **small_sections(tmp_path / "out")))
    assert (cfg.grid["m"] + 1, cfg.grid["n"] + 1) == (33, 25)
    assert cli.run("carleman", cfg) == 0
    n, eps_list = cfg.solver["n_samples"], cfg.physics["eps_list"][:3]
    assert len(eps_list) == 3
    assert _samples(calls) == {"sample_adjoint_data": n,
                               **{("solve_adjoint", eps): n for eps in eps_list}}
    assert calls[("solve_adjoint", eps_list[0]), 2] == 1   # the stacks were 2 + 1


def test_carleman_builds_each_table_once_and_integrates_sources_once(
        tmp_path, monkeypatch):
    # one table per (family, s), shared by all three inequalities; per (sample,
    # s) the four source integrals and lemA.1's three are made once, the ten
    # trajectory integrals of thm2.2 and lem3.1 once per eps (2,220 sample
    # integrals at the defaults), counted over stacks of 2 + 1 samples here,
    # each integrated at all n_s profiles of its term's s-scan in one call
    monkeypatch.setattr(carleman_check, "STACK_BYTES", 2 * 33 * 25 * 8)
    calls = _count_calls(monkeypatch, ["carleman_weights", "refined_weights",
                                       "log_space_time_integral"],
                         lambda name, a: (name, _stack_len(name, a)))
    cfg = parse_config(write_cfg(tmp_path, **small_sections(tmp_path / "out")))
    assert cli.run("carleman", cfg) == 0
    n, n_s = cfg.solver["n_samples"], len(cfg.weights["s_scan"])
    n_eps = len(cfg.physics["eps_list"][:3])
    assert _samples(calls) == {"carleman_weights": n_s, "refined_weights": n_s,
                               "log_space_time_integral": n * n_s * (10 * n_eps + 7)}
    assert {k for name, k in calls if name == "log_space_time_integral"} == {2 * n_s, n_s}
    assert {k for name, k in calls if name != "log_space_time_integral"} == {1}


def test_a_carleman_run_builds_each_digest_once(tmp_path, monkeypatch):
    # per run: one digest per distinct (profile, kept row pattern), none
    # twice; a profile is known by its digest store, and the digests a call
    # builds are the keys it adds to the stores of its scan's profiles; the
    # JSON summary counts the same integrals (one per profile) and digests
    integral, digest = carleman_check.log_space_time_integral, carleman_check._log_digest
    met, built, digest_calls, calls = set(), [], [0], [0]

    def spy_integral(log_w, sq, table, digests=None, finite=None):
        for w, store in zip(log_w, digests):
            keep = ((table.space_time_weights * sq > 0.0)
                    & np.isfinite(w[:, None] if w.ndim == 1 else w)).reshape(len(sq), -1)
            met.update((id(store), np.packbits(row).tobytes()) for row in keep if row.any())
        calls[0] += len(log_w)
        before = [set(store) for store in digests]
        out = integral(log_w, sq, table, digests, finite)
        built.extend((id(store), key) for store, old in zip(digests, before)
                     for key in set(store) - old)
        return out

    def spy_digest(a):
        digest_calls[0] += np.ndim(a) == 1   # the report sides' row digests are 3-D
        return digest(a)

    monkeypatch.setattr(carleman_check, "log_space_time_integral", spy_integral)
    monkeypatch.setattr(carleman_check, "_log_digest", spy_digest)
    outdir = tmp_path / "out"
    cfg = parse_config(write_cfg(tmp_path, **small_sections(outdir)))
    assert cli.run("carleman", cfg) == 0
    assert digest_calls[0] == len(built) == len(set(built))
    assert set(built) == met
    assert len(built) < calls[0]
    (record,) = outdir.glob("carleman-*.json")
    summary = json.loads(record.read_text())["summary"]
    assert summary["log_integrals"] == {"calls": calls[0], "digests": len(built)}


def test_default_carleman_records_its_integrals_and_digests(tmp_path):
    # 36 profiles (six (kind, power) pairs per table), six of them met with
    # a second kept pattern: alpha^3 on the whole domain and on omega, and
    # beta_hat^3 on phi_osc^2 and on |grad phi|^2 (zero at the boundary nodes);
    # each stack of samples makes the 2,220 / 20 = 111 calls of one sample
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "default.yaml")
    assert main(["carleman", "--config", config, f"--io.outdir={tmp_path}"]) == 0
    (record,) = tmp_path.glob("carleman-*.json")
    summary = json.loads(record.read_text())["summary"]
    stacks = carleman_check._stacks(build_grid(1, 1.0, 50, 2.4, 100), 20)
    assert sum(stacks) == 20
    assert summary["log_integrals"] == {"calls": 2220 // 20 * len(stacks), "digests": 42}


def test_carleman_record_keeps_the_thm22_constants_of_every_eps(tmp_path):
    outdir = tmp_path / "out"
    cfg = parse_config(write_cfg(tmp_path, **small_sections(outdir)))
    assert cli.run("carleman", cfg) == 0
    (record,) = outdir.glob("carleman-*.json")
    c_emp = json.loads(record.read_text())["summary"]["c_emp_log"]
    eps_list = cfg.physics["eps_list"][:3]
    assert len(c_emp["thm2.2"]) == len(cfg.weights["s_scan"]) * len(eps_list) == 9
    assert {k.split("eps=")[1] for k in c_emp["thm2.2"]} == {f"{e:g}" for e in eps_list}


def _summary(outdir, command) -> dict:
    (record,) = outdir.glob(f"{command}-*.json")
    return json.loads(record.read_text())["summary"]


def test_control_nonlinear_exit_codes(tmp_path):
    outdir = tmp_path / "out"
    path = write_cfg(tmp_path, **small_sections(outdir))
    assert main(["control-nonlinear", "--config", path]) == 0
    summary = _summary(outdir, "control-nonlinear")
    logs = summary["e_norm_log_components"]
    assert len(logs) == 9
    assert all(isinstance(v, float) and math.isfinite(v)
               for v in [summary["forward_residual_lagged"], *logs.values()])
    # starving the Picard loop of iterations must signal non-convergence;
    # the loop stops before its verification, so neither diagnostic is taken
    starved = tmp_path / "starved"
    assert main(["control-nonlinear", "--config", path, f"--io.outdir={starved}",
                 "--solver.maxit=1", "--solver.tol=1e-14"]) == 2
    summary = _summary(starved, "control-nonlinear")
    assert summary["forward_residual_lagged"] == "inf"
    assert summary["e_norm_log_components"] == {}


def test_only_control_nonlinear_takes_the_lagged_march_and_the_e_norm(
        tmp_path, monkeypatch):
    # picard_solve ends at its implicit verification march; the lagged march
    # and the E-norm are taken by control-nonlinear alone, which reports them
    def by_coupling(name, args):
        return f"{name} {args['coupling']}" if name == "solve_forward_pp" else name

    cfg = parse_config(write_cfg(tmp_path, **small_sections(tmp_path / "out")))
    calls = _count_calls(monkeypatch, ["solve_forward_pp", "e_norm"], by_coupling)
    assert cli.run("eps-sweep", cfg) == 0
    assert calls == {"solve_forward_pp implicit": 1}   # every eps in one stacked march
    calls.clear()
    assert cli.run("control-nonlinear", cfg) == 0
    assert calls == {"solve_forward_pp implicit": 1, "solve_forward_pp lagged": 1,
                     "e_norm": 1}


@pytest.mark.parametrize("command", ["control-linear", "control-nonlinear"])
def test_cg_cap_is_reported_not_extracted(tmp_path, capsys, command):
    # a capped CG is no minimiser: extracting from it would fail the
    # cross-validation and hide the cap behind an ExtractionError
    path = write_cfg(tmp_path, **small_sections(tmp_path / "out"))
    assert main([command, "--config", path, "--solver.cg_maxit=3"]) == 2
    err = capsys.readouterr().err
    assert "CG hit maxit=3 (residual" in err
    assert "ExtractionError" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the dual system's zero weights
@pytest.mark.filterwarnings("ignore:weighted blocks are")
def test_a_non_finite_cg_residual_stops_at_once(tmp_path, capsys):
    # at T = 1e10 the weight profiles underflow and the opening residual is
    # not finite: the CG names it at that iteration instead of running to
    # cg_maxit on NaN, and a NaN is no evidence of negative curvature (exit 2,
    # not 3)
    path = write_cfg(tmp_path, **small_sections(tmp_path / "out"))
    assert main(["control-linear", "--config", path, "--grid.T=1e10"]) == 2
    assert "CG residual is not finite at iteration 0" in capsys.readouterr().err
    (record,) = (tmp_path / "out").glob("control-linear-*.json")
    summary = json.loads(record.read_text())["summary"]
    assert summary["cg_iterations"] <= 1 and summary["curvature_ok"]


def _capped_cg(prob):
    """``prob`` with its CG stopped at the 3rd iterate."""
    return dataclasses.replace(
        prob, settings=dataclasses.replace(prob.settings, cg_maxit=3))


@pytest.mark.parametrize("command, module", [("control-linear", cli),
                                             ("control-nonlinear", nonlinear_control)],
                         ids=["control-linear", "control-nonlinear"])
def test_negative_curvature_is_a_falsification(tmp_path, capsys, monkeypatch, command, module):
    def flagged(prob, _solve=module.solve_dual):  # CG stopped at its 3rd iterate
        dual = _solve(_capped_cg(prob))
        return dataclasses.replace(dual, curvature_ok=False)

    monkeypatch.setattr(module, "solve_dual", flagged)
    path = write_cfg(tmp_path, **small_sections(tmp_path / "out"))
    assert main([command, "--config", path]) == 3
    err = capsys.readouterr().err
    assert "negative curvature falsifies the discrete scalar product" in err
    assert "ExtractionError" not in err


@pytest.mark.parametrize("iteration", [1, 2])
def test_eps_sweep_names_a_curvature_falsification(tmp_path, capsys, monkeypatch, iteration):
    # eps 0.5 meets negative curvature in the dual CG of Picard iteration
    # ``iteration``, eps 1 converges
    calls = Counter()

    def flagged(prob, _solve=nonlinear_control.solve_dual):
        calls[prob.params.eps] += 1
        if prob.params.eps != 0.5 or calls[0.5] != iteration:
            return _solve(prob)
        return dataclasses.replace(_solve(_capped_cg(prob)),
                                   curvature_ok=False)

    monkeypatch.setattr(nonlinear_control, "solve_dual", flagged)
    outdir = tmp_path / "out"
    path = write_cfg(tmp_path, **small_sections(outdir, physics={"eps_list": [1.0, 0.5]}))
    assert main(["eps-sweep", "--config", path]) == 3
    reason = ("negative curvature falsifies the discrete scalar product "
              f"in Picard iteration {iteration}")
    assert f"eps=0.5: {reason}" in capsys.readouterr().err
    csvs = [f for f in os.listdir(outdir) if f.endswith(".csv")]
    rows = (outdir / csvs[0]).read_text().splitlines()
    assert rows[0] == "eps,g_l2h1,iterations,terminal_residual,forward_residual,converged"
    failed = dict(zip(rows[0].split(","), rows[2].split(",")))
    assert failed["eps"] == "0.5" and failed["forward_residual"] == "inf"
    if iteration == 1:
        assert failed["terminal_residual"] == "inf"   # no iterate was measured
        assert failed["g_l2h1"] == "nan"              # and no control was extracted
    else:   # iteration 1's residual and control norm
        assert 0.0 < float(failed["terminal_residual"]) < math.inf
        assert 0.0 < float(failed["g_l2h1"]) < math.inf
    summary = json.loads(
        (outdir / csvs[0].replace(".csv", ".json")).read_text())["summary"]
    assert summary["excluded"] == [0.5]
    assert summary["excluded_reasons"] == [{"eps": 0.5, "reason": reason}]


@pytest.mark.parametrize("exc, code", [
    (RuntimeError, 2),  # solver failures: BlowUpError, SuperLU, ...
    (ValueError, 2),    # inputs the domain constructors reject
    (TypeError, 4),     # a defect must not read as non-convergence
    (KeyError, 4),
])
def test_run_exceptions_map_to_exit_codes(tmp_path, capsys, monkeypatch, exc, code):
    def broken(cfg, runner):
        raise exc("planted")

    monkeypatch.setitem(cli._DISPATCH, "simulate", broken)
    path = write_cfg(tmp_path, **small_sections(tmp_path / "out"))
    assert main(["simulate", "--config", path]) == code
    err = capsys.readouterr().err
    assert exc.__name__ in err
    assert ("Traceback" in err) == (code == 4)


def test_carleman_non_finite_integrand_exits_2(tmp_path, capsys, monkeypatch):
    def poisoned(q, grid):
        out = carleman_check.gradient_sq(q, grid)
        out[1, 1] = float("nan")
        return out

    monkeypatch.setattr(carleman_check, "hessian_sq", poisoned)
    path = write_cfg(tmp_path, **small_sections(tmp_path / "out"))
    assert main(["carleman", "--config", path]) == 2
    assert "ValueError: non-finite integrand" in capsys.readouterr().err


def test_carleman_ratio_beyond_double_is_a_decimal_literal(tmp_path):
    # the refined-inequality constant grows like exp(2 s |beta*|); at the top
    # of the default s-scan it exceeds the double range and must be printed
    # from its log, never as inf
    outdir = tmp_path / "out"
    path = write_cfg(tmp_path, **small_sections(
        outdir, weights={"sigma0": 0.3}))
    assert main(["carleman", "--config", path, "--solver.n_samples=2"]) == 0
    csvf = [f for f in os.listdir(outdir) if f.endswith(".csv")][0]
    rows = (outdir / csvf).read_text().strip().splitlines()
    ratios = [r.split(",")[-1] for r in rows[1:] if r.startswith("lem3.1")]
    assert all(v != "inf" for v in ratios)
    assert any("e+" in v and float(v.split("e+")[1]) > 308 for v in ratios)


@pytest.mark.parametrize("log_value, literal", [
    (400 * math.log(10.0) - 1e-9, "1.000000e+400"),   # the mantissa rounds up to 10
    (400 * math.log(10.0), "1.000000e+400"),
    (500 * math.log(10.0) + math.log(2.5), "2.500000e+500"),
])
def test_decimal_literal_carries_a_rounded_mantissa_into_the_exponent(log_value, literal):
    assert cli._decimal_from_log(log_value) == literal


def test_an_outdir_that_cannot_be_created_is_a_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = write_cfg(tmp_path, **small_sections(blocker / "out"))
    assert main(["simulate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "config error: io.outdir" in err and str(blocker / "out") in err
    assert "Traceback" not in err
