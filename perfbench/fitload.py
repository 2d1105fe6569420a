"""The offline-fit workloads: ``fit-exact`` and ``fit-select``.

One *fit* runs from the program's input to a published model:

* ``fit-exact``: a planted two-view dataset (20k rows, 32 items per
  view, density 0.2) fitted by ``TranslatorExact(max_rule_size=3)`` for
  one rule on the ``auto`` backend (native at this size), then published.
* ``fit-select``: the raw mixed-type Abalone frames, discretised with
  ``frame_to_two_view(discretize="mdl")``, fitted by
  ``TranslatorSelect(k=1)`` at a reduced candidate budget, then
  published.

Every fit gets a fresh input drawn from the run's seed; input 0 of every
run is the reference input of the default seed, whose rules and gains
must match the fingerprint pinned in ``pinned.json``.  The traced run
wraps each layer's public entry points with timers from this file; the
program itself is not modified.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import arith
from repro import native
from repro.core import translator as core_translator
from repro.core.search import ExactRuleSearch, SearchCache
from repro.core.state import CoverState
from repro.core.translator import TranslatorExact, TranslatorSelect
from repro.data.mixed import abalone_frames
from repro.data.preprocessing import frame_to_two_view
from repro.data.synthetic import SyntheticSpec, generate_planted
from repro.native.api import NativeKernel
from repro.serve import ModelArtifact, ModelRegistry

#: Seed whose reference input is pinned; input 0 of every run uses it.
REFERENCE_SEED = 0
PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 15
#: Inputs always measured per run, even when ``--seconds`` is shorter.
MIN_INPUTS = 3
#: Inputs fitted twice (untraced, then traced) by the traced run.
TRACE_FITS = {"fit-exact": 6, "fit-select": 16}

EXACT_SPEC = {
    "n_transactions": 20_000,
    "n_left": 32,
    "n_right": 32,
    "density_left": 0.2,
    "density_right": 0.2,
    "n_rules": 8,
}
EXACT_PARAMS = {"max_rule_size": 3, "max_iterations": 1, "backend": "auto", "n_jobs": 1}
SELECT_PARAMS = {"k": 1, "minsup": 240, "max_candidates": 120, "max_iterations": 6}


def input_seed(seed: int, index: int) -> int:
    """Generator seed of input ``index`` of a run; input 0 is the reference."""
    if index == 0:
        seed = REFERENCE_SEED
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def rules_fingerprint(result) -> str:
    """SHA-256 over the fitted rules and their exact gains, in order."""
    records = [
        [list(r.rule.lhs), list(r.rule.rhs), r.rule.direction.value, repr(r.gain)]
        for r in result.history
    ]
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def replay_total_bits(dataset, result) -> float:
    """``L(D, T)`` of the fitted table, recomputed in a fresh cover state."""
    state = CoverState(dataset)
    for rule in result.table:
        state.add_rule(rule)
    return state.total_length()


class FitWorkload:
    """One fit workload: input generation plus input -> published model."""

    def __init__(self, name: str, workdir: Path) -> None:
        if name not in ("fit-exact", "fit-select"):
            raise ValueError(f"not a fit workload: {name}")
        self.name = name
        self.registry = ModelRegistry(workdir / "registry")

    def make_input(self, seed: int):
        """The program's input: a dataset (exact) or raw frames (select)."""
        if self.name == "fit-exact":
            dataset, __ = generate_planted(SyntheticSpec(**EXACT_SPEC, seed=seed))
            return dataset
        return abalone_frames(seed=seed)

    def fit(self, raw, discretize=frame_to_two_view):
        """Fit and publish; returns ``(dataset, result)``."""
        if self.name == "fit-exact":
            dataset = raw
            result = TranslatorExact(**EXACT_PARAMS).fit(dataset)
            params = EXACT_PARAMS
        else:
            left, right = raw
            dataset = discretize(left, right, discretize="mdl", name="abalone")
            result = TranslatorSelect(**SELECT_PARAMS).fit(dataset)
            params = SELECT_PARAMS
        artifact = ModelArtifact.from_result(self.name, dataset, result, dict(params))
        self.registry.publish(artifact)
        return dataset, result


class Checker:
    """Correctness checks on every fit; a failure fails the run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.pinned = json.loads(PINNED_PATH.read_text()).get(workload, {})
        self.failures: list[str] = []
        self.checked = 0

    def check(self, index: int, dataset, result) -> str:
        self.checked += 1
        fingerprint = rules_fingerprint(result)
        if self.workload == "fit-exact" and not result.converged:
            self.failures.append(f"input {index}: exact search did not converge")
        replayed = replay_total_bits(dataset, result)
        if replayed != result.total_bits:
            self.failures.append(
                f"input {index}: replayed total_bits {replayed!r} != "
                f"{result.total_bits!r}"
            )
        if index == 0:
            expected = self.pinned.get("fingerprint")
            if fingerprint != expected:
                self.failures.append(
                    f"reference input: rules fingerprint {fingerprint} != "
                    f"pinned {expected}"
                )
        return fingerprint


#: (owner, attribute, layer name) of every wrapped entry point.
LAYER_POINTS = (
    (SearchCache, "__init__", "bitset.search_cache"),
    (ExactRuleSearch, "find_best_rule", "search"),
    (NativeKernel, "child_metrics", "native.child_metrics"),
    (NativeKernel, "and_popcount", "native.and_popcount"),
    (NativeKernel, "weighted_popcount", "native.weighted_popcount"),
    (CoverState, "add_rule", "state.add_rule"),
    (CoverState, "best_direction", "state.best_direction"),
    (ModelRegistry, "publish", "registry.publish"),
)


def instrument(recorder: arith.LayerRecorder) -> None:
    """Wrap every layer entry point; undo with ``recorder.restore()``."""
    for owner, attribute, name in LAYER_POINTS:
        recorder.patch(owner, attribute, name)
    # TranslatorSelect calls the miner through its own module's names.
    for attribute in ("auto_minsup", "two_view_candidates"):
        recorder.patch(
            core_translator,
            attribute,
            "mining",
            count=lambda out: len(out[1]) if isinstance(out, tuple) else len(out),
        )


def _search_totals(result) -> dict[str, int]:
    totals = defaultdict(int)
    for stats in result.search_stats:
        totals["nodes_visited"] += stats.nodes_visited
        totals["nodes_pruned_rub"] += stats.nodes_pruned_rub
        totals["evaluations"] += stats.evaluations
        totals["evaluations_skipped_qub"] += stats.evaluations_skipped_qub
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure_setup(workload: FitWorkload, seed: int) -> list[float]:
    """Input generation plus native kernel load, repeated."""
    samples = []
    for repeat in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.make_input(input_seed(seed, repeat + 1))
        native.reset()
        native.load_kernel()
        samples.append(time.perf_counter() - started)
    return samples


def measure_peak_mb(name: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Peak memory of a fresh process that fits one input, untimed.

    Returns ``(peak_mb, fit_mb)``: the process's peak resident set size,
    and that peak minus the resident set size just before the fit (MB =
    1e6 bytes).  A fresh process keeps the earlier fits' freed-but-kept
    memory out of both numbers.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    output = subprocess.run(
        [sys.executable, __file__, name, str(input_seed(seed, 1)), str(workdir / "peak")],
        env=env, check=True, capture_output=True, text=True, timeout=170,
    ).stdout
    peak_kb, before_kb = map(int, output.split()[-2:])
    return peak_kb * 1024 / 1e6, (peak_kb - before_kb) * 1024 / 1e6


def _rss_kb(field: str) -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def _peak_child(name: str, seed: int, workdir: Path) -> None:
    workload = FitWorkload(name, workdir)
    raw = workload.make_input(seed)
    native.load_kernel()
    before = _rss_kb("VmRSS")
    workload.fit(raw)
    print(_rss_kb("VmHWM"), before)


def run_untraced(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """End-to-end run: set-up, timed fits of fresh inputs for ``seconds``, memory pass.

    Every timed fit gets an input of its own, so the median over them
    averages the machine's noise and the inputs' differences together.
    The reference input is refitted once at the end (untimed) to check
    that a refit gives the same rules and gains.
    """
    workload = FitWorkload(name, workdir)
    checker = Checker(name)
    setup = measure_setup(workload, seed)
    samples: list[float] = []
    started_run = time.perf_counter()
    while len(samples) < MIN_INPUTS or (
        # Start another input only if it is likely to end within ``seconds``.
        (time.perf_counter() - started_run) * (1 + 1 / len(samples)) <= seconds
    ):
        index = len(samples)
        raw = workload.make_input(input_seed(seed, index))
        started = time.perf_counter()
        dataset, result = workload.fit(raw)
        samples.append(time.perf_counter() - started)
        fingerprint = checker.check(index, dataset, result)
        if index == 0:
            reference = (raw, fingerprint)
    dataset, result = workload.fit(reference[0])
    if checker.check(0, dataset, result) != reference[1]:
        checker.failures.append("reference input: a refit gave other rules or gains")
    peak_mb, fit_mb = measure_peak_mb(name, seed, workdir)
    fit_s = statistics.median(samples)
    return {
        "metrics": {
            "latency_ms": (fit_s * 1e3, "ms"),
            "peak_memory_mb": (peak_mb, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        },
        "named": {
            "fit_s": (fit_s, "s"),
            "fit_peak_mb": (fit_mb, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        },
        "report": {
            "fit_samples_s": samples,
            "process_peak_mb": peak_mb,
            "setup_samples_s": setup,
            "reference_fingerprint": reference[1],
        },
        "attempted": checker.checked,
        "failures": checker.failures,
    }


def _timed(samples: list[float], function, *args, **kwargs):
    started = time.perf_counter()
    result = function(*args, **kwargs)
    samples.append(time.perf_counter() - started)
    return result


def _traced_fit(workload, raw, recorder, discretize, samples):
    instrument(recorder)
    try:
        return _timed(samples, workload.fit, raw, discretize=discretize)
    finally:
        recorder.restore()


def run_traced(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Per-layer run: each of a fixed list of inputs fitted untraced, then traced.

    The input list does not depend on ``seconds``, so the exact counts
    repeat for a given seed.
    """
    del seconds  # the traced run's work is fixed so its counts repeat
    workload = FitWorkload(name, workdir)
    checker = Checker(name)
    native.load_kernel()
    recorder = arith.LayerRecorder()
    untraced: list[float] = []
    traced: list[float] = []
    search = defaultdict(int)
    reference_counts: dict[str, int] = {}
    discretize = recorder.wrap("data.discretize", frame_to_two_view)
    for index in range(TRACE_FITS[name]):
        raw = workload.make_input(input_seed(seed, index))
        # Alternate which pass goes first so drift does not bias the overhead.
        if index % 2:
            dataset, result = _traced_fit(workload, raw, recorder, discretize, traced)
        _timed(untraced, workload.fit, raw)
        if not index % 2:
            dataset, result = _traced_fit(workload, raw, recorder, discretize, traced)
        if index == 0:
            reference_counts = dict(recorder.calls)
        for key, value in _search_totals(result).items():
            search[key] += value
        checker.check(index, dataset, result)
    fits = len(traced)
    calls, seconds_of = recorder.calls, recorder.seconds
    counts = {
        "search.calls": calls["search"],
        "search.nodes_visited": search["nodes_visited"],
        "search.evaluations": search["evaluations"],
        "native.child_metrics.calls": calls["native.child_metrics"],
        "native.and_popcount.calls": calls["native.and_popcount"],
        "native.weighted_popcount.calls": calls["native.weighted_popcount"],
        "state.add_rule.calls": calls["state.add_rule"],
        "state.best_direction.calls": calls["state.best_direction"],
        "mining.candidates": int(recorder.values["mining"]),
    }
    per_fit = {
        "bitset.search_cache_s": seconds_of["bitset.search_cache"] / fits,
        "search.self_s": recorder.self_seconds("search") / fits,
        "native.child_metrics_s": seconds_of["native.child_metrics"] / fits,
        "native.and_popcount_s": seconds_of["native.and_popcount"] / fits,
        "native.weighted_popcount_s": seconds_of["native.weighted_popcount"] / fits,
        "state.add_rule_s": seconds_of["state.add_rule"] / fits,
        "state.best_direction_s": seconds_of["state.best_direction"] / fits,
        "data.discretize_s": seconds_of["data.discretize"] / fits,
        "mining.candidates_s": seconds_of["mining"] / fits,
        "registry.publish_s": seconds_of["registry.publish"] / fits,
    }
    ratios = {
        "search.pruned_rub_ratio": _ratio(
            search["nodes_pruned_rub"], search["nodes_visited"]
        ),
        "search.qub_skip_ratio": _ratio(
            search["evaluations_skipped_qub"],
            search["evaluations"] + search["evaluations_skipped_qub"],
        ),
    }
    overhead = statistics.median(traced) - statistics.median(untraced)
    pinned_counts = checker.pinned.get("counts")
    return {
        "layers": {
            **{key: (value, "count") for key, value in counts.items()},
            **{key: (value, "s") for key, value in per_fit.items()},
            **{key: (value, "ratio") for key, value in ratios.items()},
            "trace.fits": (fits, "count"),
            "trace.overhead_ms": (overhead * 1e3, "ms"),
        },
        "report": {
            "fit_s_untraced": untraced,
            "fit_s_traced": traced,
            "reference_counts": reference_counts,
            "counts_match_pinned": reference_counts == pinned_counts,
        },
        "attempted": checker.checked,
        "failures": checker.failures,
    }


if __name__ == "__main__":
    _peak_child(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
