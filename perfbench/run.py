"""Layered benchmark of the ksctl CLI.

    python3 perfbench/run.py --workload sweep-1d --seed 3 --seconds 35 --trace 0

Runs from the root of a source checkout and imports ksctl from ``src``.  One
client runs the workload's commands back to back (closed loop) in this
single-threaded process, timing each ``ksctl.cli.run`` call, output writing
included, and checking every output (see ``workloads.py``).  Outputs go to
``.perfbench_out/`` in the checkout, which is removed on exit.

Times are reported in reference seconds (see ``calibration.py``): wall time
scaled by how fast a fixed kernel, timed after every command of the same run,
ran against its reference time.  This cancels most of the host's own drift;
wall times are printed too.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: a fresh interpreter until ``import ksctl.cli`` and
  ``parse_config`` of the workload config return; median of one sample per
  pass and at least ``SETUP_REPS``;
* ``workload_s``: the sum of the per-command median times, one pass;
* ``command_geomean_s``: the geometric mean of the per-command medians, so a
  slowdown of any one command shows even when another dominates the pass;
* ``peak_rss_mb``: the peak resident set of this process.

Per-command medians, their sample counts and ``fail_ratio`` are printed as
well, above the final JSON line.  ``--trace 1`` alternates untraced and
traced passes and reports per-layer metrics (see ``spans.py``), medians over
the traced passes, plus ``trace_overhead``: traced over untraced pass time,
minus 1.

Every run pins ksctl and the BLAS to one thread before numpy is imported: the
eps-sweep pool defaults to one worker per core, and two GIL-bound workers are
slower than one, so an unpinned run measures the machine.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy, scipy and ksctl are imported only after this, in main()
THREAD_VARS = ("KSCTL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")
os.environ.update({v: "1" for v in THREAD_VARS})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 7
# commands faster than this are repeated within a pass until they fill it,
# since a single call under 0.2 s varies by a quarter from call to call
MIN_COMMAND_S = 0.5
MAX_REPS = 10
MIN_PASSES = 2
# after each command, the calibration kernel runs for this share of its time
CALIBRATION_SHARE = 0.1

SETUP_CHILD = (
    "import json, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from ksctl import cli\n"
    "cli.parse_config(sys.argv[2], json.loads(sys.argv[3]))\n"
    "print(time.perf_counter())\n"
)


class Client:
    """Runs commands on one config, checks each output, and samples the
    calibration kernel after each command."""

    def __init__(self, cli, workloads, calibration, cfg, reference):
        self.cli, self.workloads, self.calibration = cli, workloads, calibration
        self.cfg, self.reference = cfg, reference
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.first_csv: dict = {}
        self.calibration_s: list = []

    def call(self, command: str) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            code = self.cli.run(command, self.cfg)
        except Exception:  # a crash is a failed command, not a benchmark error
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - t0
        if code is None:
            problems = ["raised"]
        else:
            problems, csv_bytes = self.workloads.check_outputs(
                command, self.cfg, code, self.reference)
            if self.first_csv.setdefault(command, csv_bytes) != csv_bytes:
                problems.append("CSV differs from the first call's")
        if problems:
            self.failed += 1
            self.problems.append(f"{command}: {'; '.join(problems)}")
        t_cal = time.perf_counter()
        while True:
            self.calibration_s.append(self.calibration.sample())
            if time.perf_counter() - t_cal >= CALIBRATION_SHARE * elapsed:
                break
        return elapsed

    def one_pass(self, commands, reps=None) -> dict:
        times: dict = {}
        for c in commands:
            for _ in range((reps or {}).get(c, 1)):
                times.setdefault(c, []).append(self.call(c))
        return times

    def speed(self) -> float:
        """Reference seconds per wall second over the run so far."""
        return self.calibration.REFERENCE_S / statistics.median(self.calibration_s)


def measure_setup(cfg_path: str, overrides: dict) -> float:
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), cfg_path, json.dumps(overrides)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - t0


def environment(ksctl) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "ksctl_backend": ksctl.backend_name(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def end_to_end(client, commands, seconds, cfg_path, overrides) -> dict:
    warm = client.one_pass(commands)
    reps = {c: min(MAX_REPS, max(1, math.ceil(MIN_COMMAND_S / warm[c][0])))
            for c in commands}
    samples: dict = {c: [] for c in commands}
    setup = []
    t_end = time.perf_counter() + seconds
    passes = 0
    # one set-up sample per pass spreads them over the run, so a slow spell
    # of the machine does not hit all of them
    while True:
        setup.append(measure_setup(cfg_path, overrides))
        t0 = time.perf_counter()
        for c, ts in client.one_pass(commands, reps).items():
            samples[c] += ts
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and now + (now - t0) > t_end:
            break
    while len(setup) < SETUP_REPS:
        setup.append(measure_setup(cfg_path, overrides))

    speed = client.speed()
    med = {c: statistics.median(ts) for c, ts in samples.items()}
    med["setup"] = statistics.median(setup)
    print(f"passes: {passes}; {len(client.calibration_s)} calibration samples; "
          f"{speed:.4f} reference s per wall s")
    print(f"  {'':<22} {'ref s':>10} {'wall s':>10}   samples")
    for c, n in [(c, len(samples[c])) for c in commands] + [("setup", len(setup))]:
        print(f"  {c.replace('-', '_') + '_s':<22} {med[c] * speed:10.4f} "
              f"{med[c]:10.4f}   {n}")
    cmd = [med[c] for c in commands]
    return {
        "setup_s": (med["setup"] * speed, "s"),
        "workload_s": (sum(cmd) * speed, "s"),
        "command_geomean_s": (
            math.exp(statistics.fmean(math.log(v) for v in cmd)) * speed, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layered(client, commands, seconds) -> dict:
    import spans

    client.one_pass(commands)
    tracer = spans.Tracer()
    plain, traced, layers = [], [], []
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        plain.append(sum(sum(ts) for ts in client.one_pass(commands).values()))
        with tracer:
            traced.append(sum(sum(ts) for ts in client.one_pass(commands).values()))
        layers.append(spans.layer_metrics(tracer.spans))
        tracer.spans.clear()
        now = time.perf_counter()
        if len(traced) >= MIN_PASSES and now + (now - t0) > t_end:
            break
    speed = client.speed()
    print(f"passes: {len(traced)} traced, {len(plain)} untraced; "
          f"{speed:.4f} reference s per wall s")
    metrics = {}
    for name in layers[0]:
        unit = spans.unit(name)
        value = statistics.median(p[name] for p in layers)
        metrics[name] = (value * speed if unit == "s" else value, unit)
    metrics["trace_overhead"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ksctl" / "__init__.py").is_file():
        print(f"perfbench: no ksctl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import calibration
    import ksctl
    import workloads

    if Path(ksctl.__file__).resolve().parent != SRC / "ksctl":
        print(f"perfbench: imported ksctl from {ksctl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    ov = workloads.overrides(args.workload, args.seed)
    outdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        cfg = workloads.load_config(args.workload, args.seed, str(outdir))
        client = Client(ksctl.cli, workloads, calibration, cfg,
                        workloads.load_reference(args.workload, args.seed))
        print("env:", json.dumps(environment(ksctl), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed}: "
              f"{' -> '.join(wl.commands)}; overrides {json.dumps(ov)}")
        if args.trace:
            metrics = layered(client, wl.commands, args.seconds)
        else:
            metrics = end_to_end(client, wl.commands, args.seconds,
                                 str(workloads.CONFIG), ov)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            outdir.parent.rmdir()
        except OSError:
            pass

    print(f"  {'fail_ratio':<22} {client.failed / client.attempted:10.4f}"
          f"   {client.failed} failed of {client.attempted} commands")
    for problem in client.problems:
        print("  FAILED", problem)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
