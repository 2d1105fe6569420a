"""Fast kernel-benchmark smoke test (``pytest -m perf_smoke``).

Runs the search-kernel microbenchmark in tiny mode (seconds, not minutes)
so tier-1 catches kernel regressions — a result mismatch between the bool
and bitset kernels, or a benchmark harness break — without paying for a
full grid run.  The speedup itself is only asserted in the full run
(``python benchmarks/bench_search_kernel.py``), since tiny inputs are
dominated by fixed overheads.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_bench_module(stem: str = "bench_search_kernel"):
    spec = importlib.util.spec_from_file_location(stem, _BENCHMARKS / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(stem, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.perf_smoke
def test_kernel_benchmark_tiny_mode(tmp_path):
    bench = _load_bench_module()
    report = bench.run_grid(tiny=True)
    assert report["mode"] == "tiny"
    assert report["grid"], "tiny grid must not be empty"
    for row in report["grid"]:
        assert row["identical_results"], f"kernels disagreed on {row}"
        assert row["bool_seconds"] > 0 and row["bitset_seconds"] > 0
    assert report["all_identical"]
    # The JSON entry point must work end to end.
    output = tmp_path / "BENCH_search.json"
    exit_code = bench.main(["--tiny", "--output", str(output)])
    assert exit_code == 0
    assert output.exists()


@pytest.mark.perf_smoke
def test_stream_benchmark_tiny_mode(tmp_path):
    bench = _load_bench_module("bench_stream")
    report = bench.run_grid(tiny=True)
    assert report["mode"] == "tiny"
    workload = report["workload"]
    assert workload["buffer_bit_identical"], "incremental buffer diverged"
    assert workload["windowed_refit_bit_identical"], "windowed refit diverged"
    assert workload["incremental_seconds"] > 0 and workload["full_seconds"] > 0
    assert report["all_identical"]
    # The JSON entry point must work end to end.
    output = tmp_path / "BENCH_stream.json"
    exit_code = bench.main(["--tiny", "--output", str(output)])
    assert exit_code == 0
    assert output.exists()


@pytest.mark.perf_smoke
def test_native_benchmark_tiny_mode(tmp_path):
    # Asserts numpy<->native bit-equivalence on every cell that could
    # run; on a machine with no C compiler the native cells are skipped
    # gracefully and the fallback probe still proves auto -> numpy.
    bench = _load_bench_module("bench_native")
    report = bench.run_grid(tiny=True)
    assert report["mode"] == "tiny"
    assert report["all_identical"], "backends disagreed"
    for row in report["search"]:
        if report["native_available"]:
            assert row["identical_results"], f"search cell diverged: {row}"
        else:
            assert row["skipped"]
    if report["native_available"]:
        assert report["bulk_predict"]["identical_results"]
        assert report["stream"]["identical_results"]
    fallback = report["fallback"]
    assert fallback["identical_results"]
    assert fallback["subprocess_auto_resolves_to"] == "numpy"
    assert fallback["subprocess_native_available"] is False
    # The JSON entry point must work end to end.
    output = tmp_path / "BENCH_native.json"
    exit_code = bench.main(["--tiny", "--output", str(output)])
    assert exit_code == 0
    assert output.exists()


@pytest.mark.perf_smoke
def test_mapped_cold_start_does_not_copy(tmp_path):
    # The whole point of the binary sidecar is that loading it is a
    # header read plus views into the mapping — prove no bytes were
    # copied by checking every predictor array shares memory with the
    # raw mmap buffer, and that the views still answer bit-identically.
    import numpy as np

    from repro.data.dataset import Side
    from repro.serve import CompiledPredictor, ModelRegistry, map_artifact

    bench = _load_bench_module("bench_cluster")
    registry = ModelRegistry(tmp_path / "registry")
    artifact = bench._publish_model(registry, bench.TINY_SETTINGS)
    mapped = map_artifact(registry.sidecar_path("bench", 1))
    predictor = CompiledPredictor.from_mapped(mapped, Side.RIGHT)
    raw = np.frombuffer(mapped.buffer, dtype=np.uint8)
    assert np.shares_memory(predictor.antecedents.words, raw)
    assert np.shares_memory(predictor.consequents.words, raw)
    reference = CompiledPredictor.from_table(
        artifact.table, Side.RIGHT, artifact.n_left, artifact.n_right
    )
    rng = np.random.default_rng(3)
    batch = rng.random((16, artifact.n_left)) < 0.3
    assert np.array_equal(predictor.predict(batch), reference.predict(batch))


@pytest.mark.perf_smoke
def test_cluster_benchmark_tiny_mode(tmp_path):
    # Asserts correctness properties only (zero-copy, bit-identity,
    # zero dropped requests) — never throughput scaling, which the
    # hardware may not be able to produce (see scaling_expected).
    bench = _load_bench_module("bench_cluster")
    report = bench.run_grid(tiny=True)
    assert report["mode"] == "tiny"
    cold = report["cold_start"]
    assert cold["zero_copy"], "mapped predictor copied its matrices"
    assert cold["identical_results"], "mapped and JSON predictors disagreed"
    assert cold["json_seconds"] > 0 and cold["mapped_seconds"] > 0
    assert report["grid"], "tiny cluster grid must not be empty"
    assert report["zero_errors"], "requests failed under load"
    assert report["router_overhead_workers1"] is not None
    assert report["floor"]["requests_per_second"] > 0
    # The JSON entry point must work end to end.
    output = tmp_path / "BENCH_cluster.json"
    exit_code = bench.main(["--tiny", "--output", str(output)])
    assert exit_code == 0
    assert output.exists()


@pytest.mark.perf_smoke
def test_serve_benchmark_tiny_mode(tmp_path):
    bench = _load_bench_module("bench_serve")
    report = bench.run_grid(tiny=True)
    assert report["mode"] == "tiny"
    assert report["grid"], "tiny serving grid must not be empty"
    for cell in report["grid"]:
        assert cell["identical_results"], f"engines disagreed on {cell}"
        assert cell["loop_seconds"] > 0 and cell["compiled_seconds"] > 0
    assert report["all_identical"]
    assert report["cache"]["warm_cached"], "second identical request must hit the cache"
    # The JSON entry point must work end to end.
    output = tmp_path / "BENCH_serve.json"
    exit_code = bench.main(["--tiny", "--output", str(output)])
    assert exit_code == 0
    assert output.exists()


@pytest.mark.perf_smoke
@pytest.mark.corpus_smoke
def test_corpus_benchmark_tiny_mode(tmp_path):
    bench = _load_bench_module("bench_corpus")
    report = bench.run_grid(tiny=True, work_dir=tmp_path)
    assert report["mode"] == "tiny"
    out_of_core = report["out_of_core"]
    assert out_of_core["ingest_seconds"] > 0 and out_of_core["query_seconds"] > 0
    # rss_bounded is only asserted in the full run: on a tiny payload the
    # fixed interpreter overheads dominate, so the ratio is meaningless.
    prune = report["sketch_prune"]
    assert prune["identical_results"], "pruned top-k diverged from the full scan"
    assert prune["pruned_pairs_scanned"] <= prune["full_pairs_scanned"]
    honesty = report["honesty"]
    assert honesty["topk_bit_identical"], "store top-k diverged from the dense path"
    assert honesty["top1_matches_exact_engine"]
    assert honesty["anytime_gap_bound_sound"]
    assert report["all_identical"]
    # The JSON entry point must work end to end.
    output = tmp_path / "BENCH_corpus.json"
    exit_code = bench.main(["--tiny", "--output", str(output)])
    assert exit_code == 0
    assert output.exists()


def _arrays_of(obj):
    """Every numpy array an object holds in its attributes, one level deep."""
    import numpy as np

    values = list(vars(obj).values()) if hasattr(obj, "__dict__") else []
    values += [getattr(obj, slot) for slot in getattr(obj, "__slots__", ()) if hasattr(obj, slot)]
    arrays = []
    for value in values:
        if isinstance(value, (tuple, list)):
            arrays += [item for item in value if isinstance(item, np.ndarray)]
        elif isinstance(value, np.ndarray):
            arrays.append(value)
    return arrays


@pytest.mark.perf_smoke
def test_cover_state_memory_is_one_bit_per_cell():
    # Fit-state memory budget: after a few rules on a 20k x (32+32)
    # dataset, the state holds one bit per cell per plane plus word
    # padding -- an eighth of the one-byte-per-cell Boolean tables the
    # dense cover state kept -- and no (n x items) matrix at all.
    import math

    from repro.core.rules import TranslationRule
    from repro.core.state import CoverState, ViewPlanes
    from repro.data.dataset import Side
    from repro.data.synthetic import SyntheticSpec, generate_planted

    dataset, __ = generate_planted(
        SyntheticSpec(
            n_transactions=20_000, n_left=32, n_right=32,
            density_left=0.2, density_right=0.2, n_rules=8, seed=0,
        )
    )
    state = CoverState(dataset)
    for lhs, rhs, direction in (
        ((0, 1), (2,), "<->"), ((3,), (4, 5), "->"), ((6,), (7,), "<-"),
        ((8, 9), (10, 11), "<->"),
    ):
        state.add_rule(TranslationRule(lhs, rhs, direction))

    n = dataset.n_transactions
    row_bytes = math.ceil(n / 64) * 8
    # One bit per cell plus the padding of each row's last word: an
    # eighth of a one-byte-per-cell Boolean table of the same plane.
    assert row_bytes / n <= (1 / 8) * (1 + 63 / n)
    planes = {}
    for side in (Side.LEFT, Side.RIGHT):
        for field in ViewPlanes.__dataclass_fields__:
            matrix = getattr(state.planes(side), field)
            assert matrix.words.nbytes == matrix.n_items * row_bytes
            planes[id(matrix.words)] = matrix.words
    per_view = len(ViewPlanes.__dataclass_fields__)
    n_items = dataset.n_left + dataset.n_right
    assert sum(words.nbytes for words in planes.values()) <= (
        per_view * n_items * row_bytes
    )
    for array in _arrays_of(state):
        assert array.size < n, f"dense {array.shape} array kept on the state"
    # Nor does the native exact search: its context binds the state's
    # packed planes, and every other array it holds is a vector.
    from repro import native

    if not native.available():
        return
    import numpy as np

    from repro.core.search import ExactRuleSearch, _BitsetContext, _Quantized

    search = ExactRuleSearch(state, backend="native")
    quantized = _Quantized(state, dense_net=False)
    context = _BitsetContext(
        search._build_universe(quantized), quantized, search.cache, "native"
    )
    bound = [array for side in context.native._arrays[0] for array in side]
    for array in _arrays_of(quantized) + _arrays_of(context) + bound:
        assert array.dtype == np.uint64 or array.ndim == 1, array.shape
    assert quantized.pos[1] is state.planes(Side.RIGHT).uncovered.words
    assert quantized.neg[0] is state.planes(Side.LEFT).neg.words


@pytest.mark.perf_smoke
def test_closed_miner_memory_stays_near_the_packed_matrix():
    # One closed_itemsets call on a wide input: 200 items x 100k rows at a
    # minsup only single items reach, so the root's grid spans all 200 x
    # 200 item pairs.  A raw (children, items, words) broadcast of it
    # would be 200x the packed matrix; the chunked grid helper keeps the
    # miner's peak within a few copies.  Bits are injected so the
    # transaction-major repack of the Boolean input is not measured.
    import tracemalloc

    import numpy as np

    from repro.core.bitset import BitMatrix, n_words_for
    from repro.mining.closed import closed_itemsets

    n, n_items = 100_000, 200
    rng = np.random.default_rng(0)
    shape = (n_items, n_words_for(n))
    words = rng.integers(0, 2**64 - 1, size=shape, dtype=np.uint64, endpoint=True)
    words &= rng.integers(0, 2**64 - 1, size=shape, dtype=np.uint64, endpoint=True)
    words[:, -1] &= np.uint64((1 << (n % 64)) - 1)
    bits = BitMatrix(words, n)
    matrix = bits.to_bool_columns()
    tracemalloc.start()
    try:
        mined = closed_itemsets(matrix, n // 5, bits=bits)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [itemset for itemset, __ in mined] == [(item,) for item in range(n_items)]
    assert peak <= 4 * words.nbytes, f"peak {peak / words.nbytes:.1f}x the packed matrix"
