"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The program under test is imported from
``src/`` of that checkout; nothing is installed.  Every metric is printed by
name with its unit, and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
failed correctness check prints the result with ``"correct": false`` and
exits 1; a run that cannot start exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from harness import BenchError, environment_record, pin_environment, result_line  # noqa: E402


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Name -> unit of the end-to-end and per-layer metrics, from BENCHMARK.json.

    What each end-to-end metric measures on each workload is documented on
    :class:`workloads.Result`.  Per-layer ``_s`` metrics are self seconds
    inside the timed phase; layers a workload never calls read 0.
    """
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
        return tuple(
            {metric["name"]: metric["unit"] for metric in spec[key]}
            for key in ("end_to_end", "per_layer")
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read the declared metrics from {path}: {exc}") from exc


def layer_metrics(
    names, tracer, result, main_thread: int, setup_repeats: int
) -> dict[str, float]:
    """The per-layer table: self seconds and counts inside the timed phase."""
    seconds, calls = tracer.layer_seconds("timed")
    setup_seconds, _ = tracer.layer_seconds("setup")
    counted = lambda name: tracer.counted("timed", name)  # noqa: E731
    values = {name: seconds.get(name[:-2], 0.0) for name in names if name.endswith("_s")}

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    values.update({
        "autograd.backward_calls": calls.get("autograd.backward", 0),
        "inference.graph_edges": counted("inference.graph_edges"),
        "inference.reach_calls": calls.get("inference.reach", 0),
        "inference.edge_power_calls": counted("inference.edge_power_calls"),
        "inference.edge_power_hit_frac": ratio(
            counted("inference.edge_power_hits"), counted("inference.edge_power_calls")
        ),
        "active.partition_groups": ratio(
            counted("active.partition_groups"), calls.get("active.partition", 0)
        ),
        "active.match_frac": ratio(counted("active.matches"), counted("active.labels")),
        "serving.top_k_calls": calls.get("serving.top_k", 0),
        "serving.rows_per_call": ratio(
            counted("serving.top_k_rows"), calls.get("serving.top_k", 0)
        ),
        "kg.partition_s": setup_seconds.get("kg.partition", 0.0) / setup_repeats,
        "trace.phase_s": result.phase[1] - result.phase[0],
        "trace.cover_frac": tracer.top_level_cover(
            "timed", result.busy or [result.phase], main_thread
        ),
    })
    # every span and every counted edge_power call costs about one begin/end
    events = sum(calls.values()) + counted("inference.edge_power_calls")
    values["trace.overhead_s"] = events * tracing.span_cost()
    values.update(result.layers)
    return {name: values.get(name, 0.0) for name in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        pin_environment()
        end_to_end_units, per_layer_units = declared_metrics()
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        sys.path.insert(0, str(ROOT / "src"))
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(
                f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}"
            )
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench"
    scratch = out / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)  # campaign pieces write their checkpoints here
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    print(f"# environment {json.dumps(environment_record(), sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}; timed fits follow a warm-up fit in set-up")
    started = time.perf_counter()
    try:
        result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
        correct = result.failed == 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if args.trace:
            tracer.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    ended = time.perf_counter()
    for problem in result.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if result.failed:
        print(f"perfbench: {result.failed} of {result.attempted} operations failed "
              "their checks", file=sys.stderr)

    measured = {
        "setup_s": result.setup.scaled_median,
        "entity_h1": result.entity_h1,
        "wait_ms": result.wait_ms,
        "ok_frac": result.ok_frac,
        "work_per_s": result.work_per_s,
    }
    end_to_end = {name: measured[name] for name in end_to_end_units}
    print(f"# set-up seconds {[round(s, 3) for s in result.setup.raw]}, scale "
          f"{result.setup.factor:.4f}; "
          f"timed phase {result.phase[1] - result.phase[0]:.3f} s; run {ended - started:.1f} s")
    for name, (value, unit) in result.extras.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for name, value in end_to_end.items():
        print(f"{args.workload} end_to_end {name} {value:.6g} {end_to_end_units[name]}")
    if args.trace:
        layers = layer_metrics(
            per_layer_units, tracer, result, threading.main_thread().ident,
            workloads.SETUP_REPEATS,
        )
        for name, value in layers.items():
            print(f"{args.workload} layer {name} {value:.6g} {per_layer_units[name]}")
        metrics = {name: {"value": float(v), "unit": per_layer_units[name]}
                   for name, v in layers.items()}
    else:
        metrics = {name: {"value": float(v), "unit": end_to_end_units[name]}
                   for name, v in end_to_end.items()}
    print(result_line(correct, result.attempted, result.failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
