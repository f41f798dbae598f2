"""Tests for the distributed-tracing mechanics in repro.obs.trace:
cross-process span merging, per-request subtree extraction, forced
sampling on a muted tracer, hex span ids, and one tracer shared by
concurrent threads.

These are the pieces the serve pipeline leans on — the shard pool
ships worker span records home through :meth:`merge_remote_spans`,
the daemon exports each finished request via :meth:`pop_subtree`, and
an incoming sampled ``traceparent`` on a ``trace_sample=0.0`` daemon
must still record through the forced-span path.
"""

from __future__ import annotations

import threading

from repro.obs.otlp import to_otlp, validate_otlp
from repro.obs.profile import attributes, firing_counts
from repro.obs.trace import Tracer


def _first_span_id(tracer: Tracer) -> str:
    with tracer.span("s") as span_id:
        pass
    return span_id


class TestSpanHex:
    def test_sixteen_hex_and_stable(self):
        tracer = Tracer()
        with tracer.span("first") as first:
            assert tracer.active_span == first
        assert len(first) == 16
        int(first, 16)
        assert tracer.spans[0]["spanId"] == first
        assert _first_span_id(tracer) != first

    def test_processes_get_distinct_mappings(self):
        # Two tracers model two processes: their first spans must not
        # share an id, or merged traces would alias spans.
        assert _first_span_id(Tracer()) != _first_span_id(Tracer())


class TestOutgoingContext:
    def test_context_inside_span_points_at_it(self):
        tracer = Tracer()
        with tracer.span("client.request") as span:
            context = tracer.context()
        assert context.trace_id == tracer.trace_id
        assert context.span_id == span
        assert context.sampled is True

    def test_context_outside_span_is_fresh_but_same_trace(self):
        tracer = Tracer()
        context = tracer.context(sampled=False)
        assert context.trace_id == tracer.trace_id
        assert len(context.span_id) == 16 and context.sampled is False


def _remote_batch() -> list[dict]:
    """What a shard worker ships home: its own tracer's span records."""
    remote = Tracer()
    with remote.span("worker.chunk", items=2):
        with remote.span("engine.normalize"):
            remote.firings({"r1": 3})
    return remote.spans


class TestMergeRemoteEvents:
    def test_roots_reparent_and_gain_root_attrs(self):
        local = Tracer()
        batch_spans = _remote_batch()
        with local.span("parallel.batch") as batch:
            local.merge_remote_spans(batch_spans, parent=batch, pid=4242)
        records = {span["name"]: span for span in local.spans}
        chunk = records["worker.chunk"]
        assert chunk["parentSpanId"] == batch
        assert attributes(chunk) == {"items": 2, "pid": 4242}
        # The nested remote span keeps its own parent link and does not
        # get the root attrs.
        nested = records["engine.normalize"]
        assert nested["parentSpanId"] == chunk["spanId"]
        assert "pid" not in attributes(nested)
        # The batch's records keep their own ids.
        assert [s["spanId"] for s in local.spans[1:]] == [
            s["spanId"] for s in batch_spans
        ]

    def test_merged_ids_never_collide(self):
        local = Tracer()
        with local.span("parallel.batch") as batch:
            for _ in range(3):
                local.merge_remote_spans(_remote_batch(), parent=batch)
        ids = [span["spanId"] for span in local.spans]
        assert len(ids) == len(set(ids)) == 7
        assert firing_counts(local.spans) == {"r1": 9}

    def test_merged_tree_exports_as_valid_otlp(self):
        local = Tracer()
        with local.span("serve.request"):
            with local.span("parallel.batch") as batch:
                local.merge_remote_spans(
                    _remote_batch(), parent=batch, pid=99
                )
        doc = to_otlp(local.spans, local.trace_id)
        assert validate_otlp(doc) == []


class TestPopSubtree:
    def test_takes_whole_subtree_and_keeps_the_rest(self):
        tracer = Tracer()
        with tracer.span("serve.request", req="a") as first:
            with tracer.span("serve.evaluate"):
                tracer.firings({"r1": 1})
        with tracer.span("serve.request", req="b") as second:
            pass
        taken = tracer.pop_subtree(first)
        assert [span["name"] for span in taken] == [
            "serve.request",
            "serve.evaluate",
        ]
        assert firing_counts(taken) == {"r1": 1}
        assert all(attributes(span).get("req") != "b" for span in taken)
        remaining = {attributes(span).get("req") for span in tracer.spans}
        assert remaining == {"b"}
        assert tracer.pop_subtree(second)  # still intact and extractable

    def test_popped_subtree_is_removed_from_memory(self):
        tracer = Tracer()
        with tracer.span("serve.request") as root:
            pass
        tracer.pop_subtree(root)
        assert tracer.spans == []


class TestForcedSamplingOnMutedTracer:
    def test_sample_zero_is_never_and_records_nothing(self):
        tracer = Tracer(sample=0.0)
        assert tracer.never is True
        with tracer.span("serve.request") as span:
            tracer.step(object(), None)
            tracer.firings({"r1": 1})
            tracer.event("queue")
            assert span is None
        assert tracer.spans == []

    def test_forced_span_lifts_the_fast_mute_while_open(self):
        # An incoming sampled traceparent on a trace_sample=0.0 daemon:
        # the request's whole subtree must record, then the tracer must
        # fall back to its fast-muted state.
        tracer = Tracer(sample=0.0)
        with tracer.span("serve.request", sampled=True) as span:
            assert span is not None
            assert tracer.never is False
            with tracer.span("serve.evaluate") as child:
                assert child is not None
                tracer.firings({"r1": 2})
        assert tracer.never is True
        names = [span["name"] for span in tracer.spans]
        assert names == ["serve.request", "serve.evaluate"]
        assert firing_counts(tracer.spans) == {"r1": 2}
        # And the mute is really back: a plain span records nothing.
        with tracer.span("serve.request") as again:
            assert again is None

    def test_forced_false_still_mutes_a_sampling_tracer(self):
        tracer = Tracer(sample=1.0)
        with tracer.span("serve.request", sampled=False) as span:
            assert span is None
        assert tracer.spans == []


class TestThreadSafety:
    def test_concurrent_request_threads_share_one_tracer(self):
        tracer = Tracer()
        threads = 8
        barrier = threading.Barrier(threads)
        errors: list[BaseException] = []

        def request(worker: int) -> None:
            try:
                barrier.wait(timeout=10)
                for _ in range(25):
                    with tracer.span("serve.request", worker=worker) as rid:
                        with tracer.span("serve.evaluate") as eid:
                            # Scopes are thread-local: this thread's
                            # child must parent to this thread's root.
                            assert tracer.active_span == eid
                        assert tracer.active_span == rid
            except BaseException as exc:  # pragma: no cover - on failure
                errors.append(exc)

        pool = [
            threading.Thread(target=request, args=(i,))
            for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert errors == []
        spans = tracer.spans
        assert len(spans) == threads * 25 * 2
        ids = [span["spanId"] for span in spans]
        assert len(ids) == len(set(ids))  # one shared counter, no reuse
        by_id = {span["spanId"]: span for span in spans}
        for span in spans:
            if span["name"] == "serve.evaluate":
                parent = by_id[span["parentSpanId"]]
                assert parent["name"] == "serve.request"
                # Each span closed, after the span it encloses did.
                assert int(parent["endTimeUnixNano"]) >= int(
                    span["endTimeUnixNano"]
                ) >= int(span["startTimeUnixNano"])
