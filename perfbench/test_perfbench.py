"""Self-tests for the benchmark's own logic (run: ``PYTHONPATH=src pytest perfbench``)."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from client import Connection, match  # noqa: E402
from measure import Accounting, percentile, poisson_schedule, sliced_percentile  # noqa: E402
from tracer import TARGETS, Tracer, _kernel_classes  # noqa: E402


class TestPercentile:
    def test_matches_numpy_on_finite_samples(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.5]
        for q in (0, 25, 50, 95, 100):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q))

    def test_failures_count_as_infinite_latency(self):
        values = [1.0, 2.0, 3.0, math.inf]
        assert percentile(values, 50) == 2.5
        assert percentile(values, 95) == math.inf

    def test_a_refusal_never_lowers_a_percentile(self):
        ok = [1.0, 2.0, 3.0, 4.0]
        assert percentile(ok + [math.inf], 50) >= percentile(ok, 50)
        assert percentile(ok + [math.inf], 95) == math.inf

    def test_all_failed_is_infinite_not_nan(self):
        assert percentile([math.inf, math.inf], 50) == math.inf

    def test_empty_sample_is_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestSlicedPercentile:
    # Ten one-second slices of 20 latencies each: 1.0 ms, with a 5 ms tail.
    origins = [slice_no + i / 20 for slice_no in range(10) for i in range(20)]
    quiet = [5.0 if i == 19 else 1.0 for _ in range(10) for i in range(20)]

    def tail(self, values, over=10.0):
        return sliced_percentile(self.origins, values, 95, 0.0, 1.0, over)

    def test_a_stall_in_most_slices_is_passed_over(self):
        stalled = [50.0 if slice_no < 8 and i >= 17 else value
                   for slice_no in range(10) for i, value in enumerate(self.quiet[:20])]
        assert percentile(stalled, 95) == 50.0
        assert self.tail(stalled) == self.tail(self.quiet)

    def test_a_slower_program_moves_it(self):
        slower = [2.0 * value for value in self.quiet]
        assert self.tail(slower) == 2.0 * self.tail(self.quiet)

    def test_a_failure_never_lowers_it(self):
        for position in range(0, len(self.quiet), 7):
            failed = list(self.quiet)
            failed[position] = math.inf
            assert self.tail(failed) >= self.tail(self.quiet)
        assert self.tail([math.inf] * len(self.quiet)) == math.inf

    def test_median_over_one_slice_is_the_plain_percentile(self):
        assert sliced_percentile(self.origins, self.quiet, 95, 0.0, 100.0, 50) == (
            percentile(self.quiet, 95)
        )


class TestAccounting:
    def test_failed_share_is_non_ok_over_attempted(self):
        accounting = Accounting()
        accounting.record("ok", 6)
        for status in ("overloaded", "unavailable", "error", "lost"):
            accounting.record(status)
        assert accounting.attempted == 10
        assert accounting.failed == 4
        assert accounting.failed_share == 0.4

    def test_unknown_status_is_an_error(self):
        accounting = Accounting()
        accounting.record("mystery")
        assert accounting.counts["error"] == 1
        assert accounting.failed_share == 1.0


class TestPoissonSchedule:
    def test_same_seed_same_schedule(self):
        first = poisson_schedule(200.0, 20.0, seed=7)
        assert np.array_equal(first, poisson_schedule(200.0, 20.0, seed=7))
        assert not np.array_equal(first[:100], poisson_schedule(200.0, 20.0, seed=8)[:100])

    def test_offsets_are_sorted_and_inside_the_window(self):
        offsets = poisson_schedule(200.0, 20.0, seed=3)
        assert np.all(np.diff(offsets) > 0)
        assert offsets[0] >= 0.0 and offsets[-1] < 20.0
        # 4000 expected arrivals; five standard deviations either way.
        assert abs(len(offsets) - 4000) < 5 * math.sqrt(4000)


class _Replayed(Connection):
    """A connection without a socket, fed recorded sends and chunks."""

    def __init__(self, ids, chunks):
        self.sent = [float(index) for index in range(len(ids))]
        self.ids = list(ids)
        self.chunks = chunks


def test_match_pairs_cycled_ids_in_send_order():
    connection = _Replayed(
        [0, 1, 0, 1, 0],
        [(10.0, b'{"id":1,"status":"ok"}\n{"id":0,"st'), (11.0, b'atus":"ok"}\n{"id":0,'),
         (12.0, b'"status":"ok"}\n')],
    )
    received, payloads = match(connection)
    assert list(received[:3]) == [11.0, 10.0, 12.0]
    assert math.isinf(received[3]) and math.isinf(received[4])
    assert payloads[3] is None


def _answers_through_every_layer():
    """Build, store, re-read and serve one synopsis; return every answer."""
    from repro.core.spec import SynopsisSpec
    from repro.datasets import zipf_value_pdf
    from repro.service import BatchQueryEngine, SynopsisStore, generate_query_mix
    from repro.service.protocol import QueryRequest
    from repro.service.queries import QueryBatch
    from repro.service import server

    model = zipf_value_pdf(64, skew=1.1, uncertainty=0.4, seed=5)
    answers = []
    for spec in (SynopsisSpec(kind="histogram", budget=8, metric="sse"),
                 SynopsisSpec(kind="histogram", budget=8, metric="sae"),
                 SynopsisSpec(kind="wavelet", budget=4, metric="sae")):
        store = SynopsisStore()
        synopsis = store.get_or_build(model, spec)
        engine = BatchQueryEngine.from_model(synopsis, model, spec.metric)
        batch = generate_query_mix(64, 40, seed=1)
        requests = [
            QueryRequest.from_dict(server.parse_request_line(
                QueryRequest(id=i, kind=kind, start=start, end=end).to_json()
            ))
            for i, (kind, start, end) in enumerate(batch.as_tuples())
        ]
        rebuilt = QueryBatch.from_requests(requests)
        responses = server.responses_for(
            requests, engine.answer(rebuilt), engine.attribute_errors(rebuilt)
        )
        answers.append((synopsis.column_arrays(), [r.to_dict() for r in responses]))
    return answers


def test_tracer_restores_the_originals_and_changes_no_answer():
    import importlib

    def current():
        found = {}
        for module_name, path, _ in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, name = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            found[(module_name, path)] = vars(owner)[name]
        for cls in _kernel_classes():
            found[(cls.__qualname__, "solve")] = vars(cls)["solve"]
        return found

    originals = current()
    plain = _answers_through_every_layer()
    tracer = Tracer().install()
    try:
        assert all(current()[key] is not original for key, original in originals.items())
        traced = _answers_through_every_layer()
    finally:
        tracer.uninstall()
    assert current() == originals
    assert all(current()[key] is original for key, original in originals.items())
    for (plain_columns, plain_responses), (traced_columns, traced_responses) in zip(plain, traced):
        assert plain_responses == traced_responses
        for name, column in plain_columns.items():
            assert np.array_equal(column, traced_columns[name])
    stages = {stage for stage, _ in tracer.seconds}
    assert {"protocol.parse", "protocol.encode", "queries.batch", "engine.answer",
            "engine.attribute", "evaluation.errors", "histograms.oracle", "kernels.dp",
            "kernels.reconstruct", "wavelets.dp", "store.put"} <= stages
