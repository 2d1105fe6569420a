"""One command for the offline-fit and online-serving benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-exact --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that gives the per-layer metrics.  The
metric names and units come from ``BENCHMARK.json``.  Report lines (``#``)
come first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness check
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit-exact", "fit-select", "serve-router")


def _prepare_environment() -> Path:
    """Pin threads and keep every file this run writes inside the checkout."""
    sys.path.insert(0, str(HERE))
    import envinfo

    envinfo.pin_threads()
    build = ROOT / ".bench_build"
    os.environ["REPRO_NATIVE_CACHE"] = str(build / "native")
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(ROOT / "src"))
    return build


def _metric_specs() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "serve-router":
        import serveload

        runner = serveload.run_traced if trace else serveload.run_untraced
        return runner(ROOT, seed, seconds, workdir)
    import fitload

    runner = fitload.run_traced if trace else fitload.run_untraced
    return runner(name, seed, seconds, workdir)


def _metrics_line(outcome: dict, specs: dict[str, str], trace: bool) -> dict:
    produced = outcome["layers"] if trace else outcome["metrics"]
    unknown = set(produced) - set(specs)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for name, unit in specs.items():
        # A layer this workload never reaches did no work: zero.
        value, produced_unit = produced.get(name, (0, unit))
        if produced_unit != unit:
            raise RuntimeError(f"{name}: unit {produced_unit} != {unit} in BENCHMARK.json")
        metrics[name] = {"value": value, "unit": unit}
    failures = outcome["failures"]
    return {
        "correct": not failures,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome.get("failed", 0)),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    build = _prepare_environment()
    import envinfo

    # A stopped run still unwinds, so the server processes it started end.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(128 + signal.SIGTERM))

    specs = _metric_specs()["per_layer" if args.trace else "end_to_end"]
    workdir = build / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    try:
        for name in names:
            jiffies = envinfo.cpu_jiffies()
            outcome = _run_workload(name, args.seed, args.seconds, bool(args.trace), workdir / name)
            outcome["report"]["cpu_steal_share"] = envinfo.steal_share(jiffies, envinfo.cpu_jiffies())
            line = _metrics_line(outcome, specs, bool(args.trace))
            correct = correct and line["correct"]
            print(f"# workload {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
            print("# env " + json.dumps(envinfo.fingerprint(ROOT), sort_keys=True))
            print("# report " + json.dumps(outcome["report"], sort_keys=True, default=str))
            for metric, (value, unit) in outcome.get("named", {}).items():
                print(f"# {name}: {metric} = {value!r} {unit}")
            for failure in outcome["failures"]:
                print(f"# CHECK FAILED: {failure}")
            for metric, cell in line["metrics"].items():
                print(f"# {metric} = {cell['value']!r} {cell['unit']}")
            print(json.dumps(line), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
