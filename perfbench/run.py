"""Benchmark of the wavemaps solver: end-to-end metrics, checked outputs and
a traced per-layer split.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for their unit sizes):

- ``fixed-m128``: fixed steps, M = 128, tau = h/16, snapshots written as
  ``wavemaps --mode fixed --out`` writes them.  Largest arrays; grid
  kernels, reductions, energy and the snapshot writer dominate.
- ``adaptive-pair-m32``: the criterion-8 pair (``updated`` then
  ``equidistribute``) at M = 32.  Small arrays, varying tau, per-call
  overhead dominates; the only workload where the controller rejects.
- ``eoc-m32``: the criterion-2 self-convergence study at M = 32.  The
  estimator runs although nothing reads it; states are stored.
- ``audit-records`` (not listed in ``BENCHMARK.json``): seeded,
  scheme-consistent step records on grids 12-32, each stepped, bounded and
  sampled at five interior times, and the samples compared with the bounds
  (criterion 4).  The only workload that runs ``reconstruct`` and the only
  one whose inputs the seed sets.  On some seeds a record's sampled
  ``grad r_u2`` exceeds its bound by more than the KAPPA h slack (the
  gradient-part bounds are not exact for the discrete product rule), and
  the run reports ``correct: false``.  ``BENCHMARK.json`` lists only
  workloads on which no operation fails, so this one is run by name until
  the bounds are fixed.

Each run repeats one unit of the workload for about ``--seconds`` and
checks every repetition.  ``--trace 0`` reports the end-to-end metrics.
``wall_s`` is the wall time of one unit, assembled piece by piece: the
untraced repetitions stamp the start of every step attempt, and for each
piece between two stamps the fastest repetition counts.  The units are
deterministic, so a piece is the same work in every repetition, and the
bursts in which other tenants of a shared host slow this process down
drop out of the sum.  ``step_ms`` is ``wall_s`` per operation (a step
attempt, or an audited record), ``setup_s`` the median set-up time of
15 fresh processes and ``peak_rss_mb`` the peak resident memory.

The host's speed also drifts by up to about 1.5x over minutes, longer
than a run.  So ``wall_s``, ``step_ms`` and ``setup_s`` are scaled to a
reference speed: a fixed kernel that does not touch the package
(``HostSpeed``) is timed after every untraced repetition and every
set-up probe, and a time is multiplied by the kernel's reference time
over its time in the same run.  The unscaled times and the factors are
printed and kept in the details.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracing.py``; the median difference of adjacent
traced and untraced wall times is ``harness.tracing_overhead_s``.

A repetition that raises or fails a check counts its operations as
failed; ``failed / attempted`` is the failure share.  Details of a run
(environment, every repetition, failures, the spans of the last traced
repetition) go to ``.perfbench_out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# single-threaded numerics: pinned before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"

# the workloads of BENCHMARK.json, then the record audit (see above)
BENCHMARKED = ("fixed-m128", "adaptive-pair-m32", "eoc-m32")
WORKLOADS = BENCHMARKED + ("audit-records",)
SETUP_SAMPLES = 15
SETUP_TIMEOUT_S = 60
# pieces of one HostSpeed unit, timed after each untraced repetition and
# each set-up probe
CALIBRATION_PIECES = 20
# HostSpeed.seconds() on the reference host (2-core Xeon, Python 3.11,
# numpy 2.4): reported times are scaled to that speed
CALIBRATION_REFERENCE_S = 0.08

# end-to-end metrics: name -> unit
END_TO_END = {"wall_s": "s", "step_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_package():
    """Import wavemaps from this checkout's sources, never from elsewhere."""
    init = SRC / "wavemaps" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a wavemaps checkout")
    sys.path.insert(0, str(SRC))
    import wavemaps

    if Path(wavemaps.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported wavemaps from {wavemaps.__file__}")


def environment():
    import numpy

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "note": "byte counts are computed from array sizes; a 129x129x3 float64 "
                "field (~400 KB) stays cache-resident, so no bandwidth is claimed",
    }
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    env["caches_per_cpu0"] = caches
    return env


def pieces(t0, stamps, t1):
    """Durations between the start ``t0``, the step stamps and the end ``t1``."""
    marks = [t0, *stamps, t1]
    return [b - a for a, b in zip(marks, marks[1:])]


def fastest_total(repetitions):
    """Sum over pieces of the fastest repetition of each piece.

    Only repetitions cut into the most common number of pieces take part;
    a deterministic unit is cut the same way every time.
    """
    counts = statistics.multimode(len(r) for r in repetitions)
    same = [r for r in repetitions if len(r) == max(counts)]
    return math.fsum(min(column) for column in zip(*same))


class HostSpeed:
    """Times a fixed kernel that does not touch the package.

    The host is shared: for seconds to minutes, other tenants slow this
    process down by up to about 2x, the interpreter and small-array numpy
    work alike.  One unit of the kernel is CALIBRATION_PIECES pieces of a
    few milliseconds; ``seconds()`` assembles it from the fastest
    repetition of each piece, as ``wall_s`` is assembled from the
    workload's pieces, so it tracks the speed the host offered the run.
    A time measured in the same run is scaled by ``factor()`` to the
    reference speed.  The kernel mixes small-array numpy calls,
    interpreter work and 129x129x3 array arithmetic, as the workloads do.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        # inputs and output buffers: the kernel allocates no arrays (nor
        # imports numpy.random), so it leaves the process's peak memory alone
        self._small = np.sin(np.arange(3 * 33 * 33 * 3.0)).reshape(3, 33, 33, 3)
        self._big = np.sin(np.arange(2 * 129 * 129 * 3.0)).reshape(2, 129, 129, 3)
        self.units = []

    def sample(self):
        """Time one unit of the kernel."""
        np, (a, b, out), (big, big_out) = self._np, self._small, self._big
        marks = [time.perf_counter()]
        for _ in range(CALIBRATION_PIECES):
            for _ in range(200):
                np.multiply(b, 0.5, out=out)
                np.add(out[1:], a[:-1], out=out[1:])
                float(out.sum())
                sum(x * x for x in range(80))
            for _ in range(40):
                np.multiply(big, 0.5, out=big_out)
                np.add(big_out[1:], big[:-1], out=big_out[1:])
                float(big_out.sum())
            marks.append(time.perf_counter())
        self.units.append([t1 - t0 for t0, t1 in zip(marks, marks[1:])])

    def seconds(self):
        return fastest_total(self.units)

    def factor(self):
        """Reference time of the kernel over its time in this run."""
        return CALIBRATION_REFERENCE_S / self.seconds()


def setup_seconds(name, seed, flags):
    """Median set-up time over SETUP_SAMPLES fresh processes, and the host
    speed sampled between them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed), *flags]
    samples, speed = [], HostSpeed()
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, env=env, cwd=str(ROOT), capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
        speed.sample()
    return samples, speed


class StepClock:
    """Stamps the start of every step attempt of ``harness.run`` while installed.

    The cost is one ``perf_counter`` call and one append per attempt, a
    microsecond against milliseconds of work, so untraced repetitions
    carry it.
    """

    def __init__(self):
        self.stamps = []
        self._original = None

    def __enter__(self):
        from wavemaps import harness

        self._original = original = harness.step
        stamps, clock = self.stamps, time.perf_counter

        def stamped(*args, **kwargs):
            stamps.append(clock())
            return original(*args, **kwargs)

        harness.step = stamped
        return self

    def __exit__(self, *exc):
        from wavemaps import harness

        harness.step = self._original
        return False


def repetition(wl, name, inputs, ref, tracer=None):
    """One checked repetition of workload ``name``: (pieces, Outcome).

    Untraced, the pieces are the durations between the step stamps of
    ``StepClock``; traced, the whole wall time is the one piece.
    ``wl`` is the ``workloads`` module, importable only once the package is.
    """
    out_dir = tempfile.mkdtemp(dir=OUT) if name == "fixed-m128" else None
    clock = StepClock()
    try:
        gc.collect()
        with tracer if tracer is not None else clock:
            t0 = time.perf_counter()
            raw = wl.execute(name, inputs, out_dir)
            t1 = time.perf_counter()
        return pieces(t0, clock.stamps, t1), wl.check(name, raw, ref, out_dir)
    finally:
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)


@dataclass
class Measurement:
    walls: dict  # "plain" / "traced" -> wall seconds of each repetition
    pieces: list = field(default_factory=list)  # pieces of each plain repetition
    ops: list = field(default_factory=list)  # operations of each plain repetition
    layers: list = field(default_factory=list)  # layer metrics per traced repetition
    tracer: object = None  # the last traced repetition's tracer
    speed: object = None  # HostSpeed sampled after each plain repetition
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)


def measure(once, make_tracer, seconds, trace):
    """Repeat ``once`` for about ``seconds``; untraced and traced repetitions
    alternate when ``trace`` is set.  At least one of each kind runs."""
    kinds = ("plain", "traced") if trace else ("plain",)
    m = Measurement(walls={k: [] for k in kinds}, speed=HostSpeed())
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        tracer = make_tracer() if kind == "traced" else None
        cut, outcome = once(tracer)
        wall = math.fsum(cut)
        m.walls[kind].append(wall)
        m.attempted += outcome.ops
        m.failed += outcome.failed_ops
        m.failures.extend(outcome.failures)
        if tracer is None:
            m.pieces.append(cut)
            m.ops.append(outcome.ops)
            m.speed.sample()
        else:
            m.layers.append(tracer.layer_metrics(wall))
            m.tracer = tracer
        i += 1
        nxt = kinds[i % len(kinds)]
        if i >= len(kinds) and time.perf_counter() + statistics.median(m.walls[nxt]) > deadline:
            return m


def main(argv=None):
    args = parse_args(argv)
    load_package()
    import workloads
    from tracing import LAYER_METRICS, Tracer

    OUT.mkdir(exist_ok=True)
    with open(REFERENCE, encoding="ascii") as fh:
        reference = json.load(fh)

    setup_samples = setup_speed = None
    if not args.trace:
        flags = [] if args.workload == "audit-records" else workloads.cli_flags(args.workload)
        setup_samples, setup_speed = setup_seconds(args.workload, args.seed, flags)

    inputs = workloads.prepare(args.workload, args.seed)
    once = functools.partial(repetition, workloads, args.workload, inputs,
                             reference.get(args.workload, {}))
    m = measure(once, Tracer, args.seconds, args.trace)

    metrics, raw = {}, {}
    if args.trace:
        for name in LAYER_METRICS:
            if name != "harness.tracing_overhead_s":
                metrics[name] = statistics.median_low(rep[name] for rep in m.layers)
        # adjacent plain/traced pairs, so that slow drift of the machine cancels
        metrics["harness.tracing_overhead_s"] = statistics.median(
            t - p for p, t in zip(m.walls["plain"], m.walls["traced"]))
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        raw = {"wall_s": fastest_total(m.pieces), "setup_s": statistics.median(setup_samples),
               "run_speed_factor": m.speed.factor(), "setup_speed_factor": setup_speed.factor()}
        metrics["wall_s"] = raw["wall_s"] * raw["run_speed_factor"]
        metrics["step_ms"] = 1000.0 * metrics["wall_s"] / max(statistics.median_low(m.ops), 1)
        metrics["setup_s"] = raw["setup_s"] * raw["setup_speed_factor"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END

    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if m.tracer is not None:
        m.tracer.write_spans(OUT / f"spans-{tag}.tsv")
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "unit": workloads.UNITS[args.workload],
        "environment": env, "walls_s": m.walls,
        "median_wall_s": statistics.median(m.walls["plain"]),
        "setup_samples_s": setup_samples, "unscaled": raw,
        "attempted": m.attempted, "failed": m.failed, "failures": m.failures[:50],
        "metrics": metrics,
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="ascii") as fh:
        json.dump(details, fh, indent=1, default=str)

    print("environment:", json.dumps(env))
    for name, value in raw.items():
        print(f"{args.workload:>18}  {'unscaled ' + name:<34} {value:>16.6g}")
    for name, value in metrics.items():
        print(f"{args.workload:>18}  {name:<34} {value:>16.6g} {units[name]}")
    print(f"{args.workload:>18}  {'fail_frac':<34} {m.failed / max(m.attempted, 1):>16.6g} 1"
          f"  ({m.failed} of {m.attempted} operations)")
    for msg in m.failures[:10]:
        print(f"FAILED {msg}")
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
