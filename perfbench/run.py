"""One command for the repository's benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest-batch --seed 1 --seconds 8 --trace 0

Runs one workload against the program under ``src/``, checks its
answers, prints a full report (inputs, fingerprint, generator health,
layer map) and, as the last line of standard output, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.
``--write-manifest`` regenerates ``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    return parser.parse_args(argv)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _parse(argv)
    # Import the benchmark as a package, never its modules by bare name.
    here = Path(__file__).resolve().parent
    sys.path[:] = [str(ROOT), str(ROOT / "src")] + [
        p for p in sys.path if Path(p or ".").resolve() != here
    ]
    from perfbench import spec

    if args.write_manifest:
        text = json.dumps(spec.manifest(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    known = {**spec.WORKLOADS, **spec.EXTRA_WORKLOADS}
    if args.workload not in known:
        return _fail(f"--workload must be one of {sorted(known)}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS

    started = time.perf_counter()
    import repro  # noqa: F401 — the program's import cost counts as set-up

    from perfbench.common import Context, fingerprint, host_ticks, peak_rss_mb, steal_share
    from perfbench.ingest import run_batch, run_stream
    from perfbench.query import run_local, run_sharded
    from perfbench.spans import Tracer

    import_s = time.perf_counter() - started
    runners = {
        "ingest-batch": run_batch,
        "ingest-stream": run_stream,
        "query-local": run_local,
        "query-sharded": run_sharded,
    }
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    ticks = host_ticks()
    try:
        result = runners[args.workload](Context(args.seed, seconds, tracer, workdir))
        if args.trace and args.workload in spec.TRACED_PHASES:
            phase, prefixes = spec.TRACED_PHASES[args.workload]
            context = Context(args.seed, seconds / 3, Tracer(), workdir / phase, setups=1)
            extra = runners[phase](context)
            result["layers"].update(
                {k: v for k, v in extra["layers"].items() if k.startswith(prefixes)}
            )
            result["checks"].update({f"{phase}:{k}": ok for k, ok in extra["checks"].items()})
            result["attempted"] += extra["attempted"]
            result["failed"] += extra["failed"]
            result["valid"] = result.get("valid", True) and extra.get("valid", True)
            result["phase"] = {phase: {"latency": extra["latency"], "host": extra.get("host")}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    e2e = dict(result["e2e"])
    e2e["peak_rss_mb"] = peak_rss_mb()
    e2e["setup_s"] = import_s + statistics.median(result["setup_times"])
    # This workload's figures under their own names (ingest_fps,
    # freshness_*, query_*, qbe_*), and the failure share, which is not
    # a bounded metric because it is 0 on a healthy run.
    named = {name: value for name, (value, _unit) in result["named"].items()}
    named["failed_share"] = result["failed"] / max(1, result["attempted"])
    units = {name: unit for name, (_value, unit) in result["named"].items()}
    units["failed_share"] = "ratio"
    valid = result.get("valid", True)
    correct = all(result["checks"].values()) and valid
    if args.trace:
        layers = {name: 0.0 for name, *_rest in spec.PER_LAYER}
        layers.update(result["layers"])
        chosen = {name: (layers[name], unit) for name, unit, *_rest in spec.PER_LAYER}
    else:
        chosen = {name: (e2e[name], unit) for name, unit, *_rest in spec.END_TO_END}
    metrics = {name: {"value": float(v), "unit": unit} for name, (v, unit) in chosen.items()}
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        correct = False

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        # CPU time the hypervisor took during the run: a run with a high
        # share measured the host's neighbours as much as the program.
        "host_steal_share": steal_share(ticks, host_ticks()),
        "unit_of_work": spec.UNITS_OF_WORK[args.workload],
        "valid": valid,
        "checks": result["checks"],
        "import_s": import_s,
        "setup_times_s": result["setup_times"],
        "end_to_end": e2e,
        "named": named,
        "latency": result["latency"],
        "properties": result["properties"],
    }
    for key in ("host", "reads", "qbe", "generators", "phase"):
        if key in result:
            report[key] = result[key]
    if args.trace:
        report["layer_map"] = spec.LAYER_MAP
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    text = json.dumps(report, sort_keys=True, default=float)
    (out / f"{stem}.report.json").write_text(text + "\n", encoding="utf-8")
    if tracer is not None:
        with open(out / f"{args.workload}.spans.jsonl", "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(
                    [span.span_id, span.parent, span.request, span.name, span.start, span.end]
                ) + "\n")
    print("report " + text)
    rows = [(name, value, unit) for name, (value, unit) in chosen.items()]
    if not args.trace:
        rows += [(name, value, units[name]) for name, value in named.items()]
    for name, value, unit in rows:
        print(f"  {name:34s} {value:14.4f} {unit}")
    if not valid:
        print("perfbench: run INVALID: the load generator fell behind or ran dry", file=sys.stderr)
    failing = [name for name, ok in result["checks"].items() if not ok]
    if failing:
        print(f"perfbench: checks failed: {failing}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
