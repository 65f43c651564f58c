"""End-to-end benchmark of what a ``repro.solve`` caller waits for.

Run from the repository root::

    python3 e2ebench/run.py --workload waters_dmat --seed 1 --seconds 18 --trace 0

One closed-loop caller sends one request at a time (no threads, no
sandbox, no cache) through the public API, checks every answer outside
the timed window, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Request times are reported in units of a fixed reference
computation timed between requests (``reference.py``), so they follow
the program and not the shared host's drifting speed.
``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics of a traced run (see
``tracer.py``) and writes its spans to ``.e2ebench-out/``.  The
program is imported from ``src/`` next to this directory; without it
the benchmark exits non-zero and prints no result.  ``README.md``
defines every metric and workload.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before imports
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".e2ebench-out"

#: Set-ups per run (this process plus fresh child processes); the
#: reported ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Between two requests the reference computation runs until it has
#: taken at least this share of the last request's wall (at least once),
#: so a long request's speed reading is not a single short sample.
REFERENCE_SHARE = 0.1

#: A run stops starting requests after this much wall time, whatever
#: ``--seconds`` asks, so it always ends well within three minutes.
HARD_CAP_SECONDS = 110.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ref.p50": "ref",
    "variants_per_ref": "1/ref",
    "pass_frac": "share",
    "peak_rss_mb": "MB",
    "dma_transfers.p50": "count",
    "delay_ratio.p50": "ratio",
}

#: Per-layer metrics beyond ``<layer>.{self_s,calls,share}``.
EXTRA_LAYER_UNITS = {
    "latency_s.p50": "s",
    "reference_s": "s",
    "core.formulation.vars": "count",
    "core.formulation.rows": "count",
    "milp.presolve.rows_dropped": "count",
    "milp.cuts.certificate_frac": "share",
    "milp.scipy_backend.timeouts": "count",
    "milp.scipy_backend.nodes": "count",
    "milp.branch_and_bound.timeouts": "count",
    "milp.branch_and_bound.nodes": "count",
    "runtime.portfolio.rungs_per_solve": "count",
    "runtime.portfolio.fallback_frac": "share",
    "runtime.portfolio.wasted_s": "s",
    "runtime.portfolio.proven_frac": "share",
    "sim.batch.jobs": "count",
    "sim.batch.scalar_fallbacks": "count",
    "trace.coverage": "share",
    "trace.overhead": "share",
    "fail_frac": "share",
}


def import_program() -> None:
    """Put ``src/`` first on the path and import ``repro`` from it."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"e2ebench: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"e2ebench: imported repro from {repro.__file__}, not {package}")


def reset_peak_rss() -> None:
    """Reset this process's resident-set high-water mark (Linux)."""
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_kb() -> int:
    """This process's resident-set high-water mark since the last
    :func:`reset_peak_rss`, in KiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


@dataclass
class Sample:
    """One timed request: its input's index, its wall, the checked
    answer, whether it ran traced (its trace request id is then
    ``index``), the process's peak resident set during the call, and
    the mean reference reading just before and just after it
    (``ref``, seconds)."""

    index: int
    wall: float
    answer: object
    traced: bool = False
    peak_kb: int = 0
    ref: float = 0.0

    @property
    def wall_ref(self) -> float:
        """The request's wall in units of the reference computation."""
        return self.wall / self.ref


def one_request(workload, index: int, payload, tracer=None) -> Sample:
    """Time ``workload.run(payload)``, then check the answer untimed.

    With a ``tracer`` the call runs traced under request id ``index``.
    A request that raises, or whose answer fails a check, is a failed
    sample (reported on standard error, counted in ``failed``).
    """
    from workloads import Answer

    traced = tracer is not None
    error = None
    # The previous request's garbage is collected here, untimed, so no
    # request pays for another's; the peak resident set restarts from
    # what is left.
    gc.collect()
    reset_peak_rss()
    # Installing the tracer patches module attributes: keep it untimed.
    with tracer if traced else contextlib.nullcontext():
        if traced:
            tracer.request = index
        start = time.perf_counter()
        try:
            result = workload.run(payload)
        except Exception as exc:  # the loop must go on; the failure is counted
            error = exc
        wall = time.perf_counter() - start
        if traced:
            tracer.request = None
    peak_kb = peak_rss_kb()
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
        return Sample(index, wall, Answer(ok=False, reason=repr(error)),
                      traced, peak_kb)
    try:
        answer = workload.check(payload, result)
    except Exception as exc:  # a check that crashes is a failed check
        traceback.print_exc(file=sys.stderr)
        answer = Answer(ok=False, reason=f"check raised {exc!r}")
    if not answer.ok:
        print(f"e2ebench: {workload.name} request failed: {answer.reason}",
              file=sys.stderr)
    return Sample(index, wall, answer, traced, peak_kb)


def reference_gap(last_wall: float) -> float:
    """Run the reference computation at least once and until it has
    taken ``REFERENCE_SHARE`` of ``last_wall``; its mean wall."""
    from reference import timed_reference

    walls = [timed_reference()]
    while sum(walls) < REFERENCE_SHARE * last_wall:
        walls.append(timed_reference())
    return statistics.fmean(walls)


def measure(workload, seconds: float, tracer=None) -> list[Sample]:
    """Closed loop: requests until ``seconds`` of request wall are
    measured, finishing the current input cycle.

    With a ``tracer`` every input runs twice, untraced and traced, in
    alternating order; the pair gives the tracing overhead.

    The reference computation runs before the first request and after
    every request, untimed (see :func:`reference_gap`); each sample
    keeps the mean of the readings just before and just after it, the
    host's speed at that moment.
    """
    samples: list[Sample] = []
    began = time.perf_counter()
    before = reference_gap(0.0)
    timed = 0.0
    i = 0
    while True:
        payload = workload.make_input(i)
        if tracer is None:
            runs = (None,)
        else:
            runs = (None, tracer) if i % 2 == 0 else (tracer, None)
        for run_tracer in runs:
            sample = one_request(workload, i, payload, run_tracer)
            after = reference_gap(sample.wall)
            sample.ref = (before + after) / 2
            before = after
            samples.append(sample)
            timed += sample.wall
        i += 1
        if time.perf_counter() - began > HARD_CAP_SECONDS:
            break
        if timed >= seconds and i % workload.cycle == 0:
            break
    return samples


def per_class(samples: list[Sample], cycle: int, value, stat) -> float:
    """``stat`` of ``value(sample)`` within each input class of the
    cycled mix (``index % cycle``), averaged over the classes, so how a
    run's requests fall across the mix does not move it.  ``None``
    values are skipped; a run with none reports 0."""
    classes: dict[int, list[float]] = {}
    for s in samples:
        v = value(s)
        if v is not None:
            classes.setdefault(s.index % cycle, []).append(v)
    if not classes:
        return 0.0
    return statistics.fmean(stat(values) for values in classes.values())


def end_to_end(samples: list[Sample], setups: list[float], cycle: int) -> dict:
    """The end-to-end metrics of an untraced run."""
    good = [s.answer for s in samples if s.answer.ok]

    def quality(name):
        return per_class(
            samples, cycle,
            lambda s: getattr(s.answer, name) if s.answer.ok else None,
            statistics.median,
        )

    values = {
        "setup_s": statistics.median(setups),
        "latency_ref.p50": per_class(
            samples, cycle, lambda s: s.wall_ref, statistics.median
        ),
        "variants_per_ref": sum(a.variants for a in good)
        / sum(s.wall_ref for s in samples),
        "pass_frac": len(good) / len(samples),
        "peak_rss_mb": max(s.peak_kb for s in samples) / 1024,
        "dma_transfers.p50": quality("transfers"),
        "delay_ratio.p50": quality("delay_ratio"),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(samples: list[Sample], tracer, cycle: int) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run, and its layer table."""
    from tracer import LAYERS, SEARCH_LAYERS

    traced = [s for s in samples if s.traced]
    plain = [s for s in samples if not s.traced]
    n = len(traced)
    wall = sum(s.wall for s in traced)
    totals = tracer.layer_totals()
    counters = tracer.counters
    values: dict[str, float] = {
        "latency_s.p50": per_class(
            plain, cycle, lambda s: s.wall, statistics.median
        ),
        "reference_s": statistics.median(s.ref for s in samples),
    }
    units: dict[str, str] = {}
    for layer in LAYERS:
        self_s = totals[layer]["self_s"]
        values[f"{layer}.self_s"] = self_s / n
        values[f"{layer}.calls"] = totals[layer]["calls"] / n
        values[f"{layer}.share"] = self_s / wall
        units.update({f"{layer}.self_s": "s", f"{layer}.calls": "count",
                      f"{layer}.share": "share"})
    for layer, key in (
        ("core.formulation", "vars"),
        ("core.formulation", "rows"),
        ("milp.presolve", "rows_dropped"),
        ("milp.scipy_backend", "timeouts"),
        ("milp.scipy_backend", "nodes"),
        ("milp.branch_and_bound", "timeouts"),
        ("milp.branch_and_bound", "nodes"),
        ("sim.batch", "jobs"),
        ("sim.batch", "scalar_fallbacks"),
    ):
        values[f"{layer}.{key}"] = counters[layer][key] / n
    portfolio = counters["runtime.portfolio"]
    solves = portfolio["solves"]
    certified = tracer.requests_in("runtime.portfolio") - tracer.requests_in(
        *SEARCH_LAYERS
    )
    per_solve = (lambda x: x / solves) if solves else (lambda x: 0.0)
    values.update({
        "milp.cuts.certificate_frac": per_solve(len(certified)),
        "runtime.portfolio.rungs_per_solve": per_solve(portfolio["rungs"]),
        "runtime.portfolio.fallback_frac": per_solve(portfolio["fallbacks"]),
        "runtime.portfolio.wasted_s": per_solve(portfolio["wasted_s"]),
        "runtime.portfolio.proven_frac": per_solve(portfolio["proven"]),
        "trace.coverage": sum(t["self_s"] for t in totals.values()) / wall,
        # In reference units, so host drift between the pair cancels.
        "trace.overhead": sum(s.wall_ref for s in traced)
        / sum(s.wall_ref for s in plain) - 1.0,
        "fail_frac": sum(not s.answer.ok for s in samples) / len(samples),
    })
    units.update(EXTRA_LAYER_UNITS)
    table = {
        "requests": n,
        "traced_wall_s": wall,
        "coverage": values["trace.coverage"],
        "overhead": values["trace.overhead"],
        "missing_entry_points": sorted(tracer.missing),
        "hook_errors": sorted(set(tracer.hook_errors)),
        "layers": {
            layer: {
                "share": values[f"{layer}.share"],
                "self_s_per_request": values[f"{layer}.self_s"],
                "calls_per_request": values[f"{layer}.calls"],
            }
            for layer in LAYERS
        },
    }
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return metrics, table


def setup_in_child(args) -> float:
    """Set-up seconds of a fresh process (imports included)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print {'setup_s': ...} and exit (used for the "
        "repeated set-up measurements)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # One caller, no threads: BLAS and OpenMP pools would compete with
    # the host's other tenants for the few cores the benchmark gets.
    # Set before NumPy is first imported; child set-ups inherit it.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import_program()
    import workloads
    from tracer import Tracer

    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        tracer = Tracer()
        samples = measure(workload, args.seconds, tracer)
        metrics, table = per_layer(samples, tracer, workload.cycle)
        table.update(workload=args.workload, seed=args.seed)
        for problem in table["missing_entry_points"] + table["hook_errors"]:
            print(f"e2ebench: tracer: {problem}", file=sys.stderr)
        tracer.write(OUT / f"spans-{args.workload}.jsonl.gz")
        (OUT / f"layers-{args.workload}.json").write_text(
            json.dumps(table, indent=2) + "\n"
        )
    else:
        samples = measure(workload, args.seconds)
        setups = [setup_s] + [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
        print("e2ebench: set-ups (s): " + " ".join(f"{x:.4f}" for x in setups),
              file=sys.stderr)
        metrics = end_to_end(samples, setups, workload.cycle)
    failed = sum(not s.answer.ok for s in samples)
    walls = " ".join(
        f"{s.index % workload.cycle}:{s.wall:.3f}/{s.ref:.4f}"
        f"{'t' if s.traced else ''}"
        for s in samples
    )
    print(f"e2ebench: {args.workload} class:wall/reference per request: "
          f"{walls}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
