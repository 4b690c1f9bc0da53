"""Checks on the benchmark's outside-in tracer.

    python3 -m pytest -q perfbench/tests

Each workload is run once untraced and once traced at seed 0.  The traced
pass must reach the spans the workload exists to measure, must leave every
CSV byte-identical, and the tracer must patch every import site of a
wrapped function and restore all of them.
"""

import os
import sys
from pathlib import Path

os.environ.update({v: "1" for v in (
    "KSCTL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import pytest  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from ksctl import cli  # noqa: E402

# metric -> True if the workload must reach it, False if it must not
EXPECTED = {
    "sweep-1d": {
        "hum_control.solve_dual.calls": True,
        "hum_control.extract_control.calls": True,
        "nonlinear_control.picard_solve.calls": True,
        "nonlinear_control.e_norm.s": True,
        "ks_model.spsolve_per_implicit_step": True,
        "ks_model.solve_linearized.calls": True,
        "grid.chemotaxis_divergence.calls": True,
        "grid.h1_seminorm_sq.calls": True,
        "sparse.splu.calls": True,
        "sparse.spsolve.calls": True,
        "weights.refined_weights.calls": True,
        "weights.log_weight_profile.calls": True,
        "adjoint.solve_adjoint.calls": False,
        "carleman_check.log_space_time_integral.calls": False,
    },
    "control-2d": {
        "ks_model.solve_forward_pp.calls": True,
        "ks_model.solve_forward_pe.s": True,
        "ks_model.spsolve_per_implicit_step": True,
        "hum_control.solve_dual.calls": True,
        "hum_control.cg_iterations": True,
        "hum_control.extract_control.calls": True,
        "nonlinear_control.picard_solve.calls": True,
        "carleman_check.log_space_time_integral.calls": False,
    },
    "audit-1d": {
        "adjoint.solve_adjoint.calls": True,
        "adjoint.solve_backward_heat.calls": True,
        "carleman_check.theorem22_report.s": True,
        "carleman_check.lemma31_report.s": True,
        "carleman_check.lemmaA1_report.s": True,
        "carleman_check.log_space_time_integral.calls": True,
        "weights.build_eta0.calls": True,
        "weights.carleman_weights.calls": True,
        "ks_model.solve_forward_pp.calls": True,
        "hum_control.solve_dual.calls": False,
        "nonlinear_control.picard_solve.calls": False,
    },
}


def _csvs(name, cfg):
    out = {}
    for c in workloads.WORKLOADS[name].commands:
        code = cli.run(c, cfg)
        problems, out[c] = workloads.check_outputs(
            c, cfg, code, workloads.load_reference(name, 0))
        assert problems == [], (name, c)
    return out


@pytest.fixture(scope="module", params=sorted(EXPECTED))
def passes(request, tmp_path_factory):
    name = request.param
    cfg = workloads.load_config(name, 0, str(tmp_path_factory.mktemp(name)))
    plain = _csvs(name, cfg)
    tracer = spans.Tracer()
    with tracer:
        traced = _csvs(name, cfg)
    return name, plain, traced, tracer.spans


def test_named_spans_fire(passes):
    name, _, _, recorded = passes
    metrics = spans.layer_metrics(recorded)
    for metric, reached in EXPECTED[name].items():
        assert (metrics[metric] > 0) == reached, (name, metric, metrics[metric])


def test_solve_dual_traced_under_picard(passes):
    # the Picard loop calls solve_dual through nonlinear_control's own binding
    name, _, _, recorded = passes
    under = [i for i, s in enumerate(recorded) if s.name == "hum_control.solve_dual"
             and spans.ancestor(recorded, i, "nonlinear_control.picard_solve") >= 0]
    assert bool(under) == EXPECTED[name]["hum_control.solve_dual.calls"]


def test_traced_csvs_byte_identical(passes):
    _, plain, traced, _ = passes
    assert plain == traced


def _bindings():
    return {(mod.__name__, attr): obj
            for mod in list(sys.modules.values())
            if mod is not None and mod.__name__.split(".")[0] == "ksctl"
            for attr, obj in vars(mod).items() if callable(obj)}


def test_every_import_site_patched_and_restored():
    tracer = spans.Tracer()
    originals = [fn for _, _, _, fn in tracer.targets()]
    before = _bindings()
    with tracer:
        for key, obj in _bindings().items():
            assert all(obj is not fn for fn in originals), key
            if before[key] is not obj:
                assert obj.__wrapped__ is before[key], key
    assert _bindings() == before
    assert all(getattr(m, a) is f for _, m, a, f in tracer.targets())


@pytest.mark.parametrize("name", ["cli.run", "grid.mass"])
def test_wrapper_returns_and_raises_unchanged(name):
    tracer = spans.Tracer()
    sentinel = object()

    def run(command, cfg):
        if cfg is None:
            raise KeyError(command)
        return sentinel

    wrapped = tracer.wrap(name, run)
    assert wrapped("simulate", cfg=1) is sentinel
    with pytest.raises(KeyError):
        wrapped("simulate", None)
    assert [s.name for s in tracer.spans] == [name, name]
    assert all(s.end >= s.start and s.parent == -1 for s in tracer.spans)
    assert tracer._stack == []
