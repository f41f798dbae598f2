"""Tests for the distributed-tracing mechanics in repro.obs.trace:
cross-process span merging, per-request subtree extraction, forced
sampling on a muted tracer, hex span ids, and one tracer shared by
concurrent threads.

These are the pieces the serve pipeline leans on — the shard pool
ships worker span batches home through :meth:`merge_remote_events`,
the daemon exports each finished request via :meth:`pop_subtree`, and
an incoming sampled ``traceparent`` on a ``trace_sample=0.0`` daemon
must still record through the forced-span path.
"""

from __future__ import annotations

import threading

from repro.obs.otlp import read_otlp_spans, to_otlp, validate_otlp
from repro.obs.profile import firing_counts
from repro.obs.trace import Tracer


def _firing_counts(tracer: Tracer) -> dict[str, int]:
    """Per-rule firing counts of the tracer's trace, read as every
    trace analysis reads it: through its OTLP span records."""
    return firing_counts(
        read_otlp_spans(to_otlp(tracer.events, tracer.trace_id))
    )


class TestSpanHex:
    def test_sixteen_hex_and_stable(self):
        tracer = Tracer()
        first = tracer.span_hex(1)
        assert len(first) == 16
        int(first, 16)
        assert tracer.span_hex(1) == first
        assert tracer.span_hex(2) != first

    def test_processes_get_distinct_mappings(self):
        # Two tracers model two processes: the same small int id must
        # not collide once hexified, or merged traces would alias spans.
        assert Tracer().span_hex(1) != Tracer().span_hex(1)


class TestOutgoingContext:
    def test_context_inside_span_points_at_it(self):
        tracer = Tracer()
        with tracer.span("client.request") as span:
            context = tracer.context()
        assert context.trace_id == tracer.trace_id
        assert context.span_id == tracer.span_hex(span)
        assert context.sampled is True

    def test_context_outside_span_is_fresh_but_same_trace(self):
        tracer = Tracer()
        context = tracer.context(sampled=False)
        assert context.trace_id == tracer.trace_id
        assert len(context.span_id) == 16 and context.sampled is False


def _remote_batch() -> list[dict]:
    """What a shard worker ships home: its own tracer's raw events."""
    remote = Tracer()
    with remote.span("worker.chunk", items=2):
        with remote.span("engine.normalize"):
            remote.firings({"r1": 3})
    return remote.events


class TestMergeRemoteEvents:
    def test_roots_reparent_and_gain_root_attrs(self):
        local = Tracer()
        with local.span("parallel.batch") as batch:
            mapping = local.merge_remote_events(
                _remote_batch(), parent=batch, pid=4242
            )
        starts = {
            e["name"]: e for e in local.events if e["ev"] == "span_start"
        }
        chunk = starts["worker.chunk"]
        assert chunk["parent"] == batch
        assert chunk["pid"] == 4242
        # The nested remote span keeps its own (remapped) parent link
        # and does not get the root attrs.
        nested = starts["engine.normalize"]
        assert nested["parent"] == chunk["span"]
        assert "pid" not in nested
        assert chunk["span"] in mapping.values()

    def test_ids_remap_without_colliding(self):
        local = Tracer()
        with local.span("parallel.batch") as batch:
            local_ids = {
                e["span"]
                for e in local.events
                if e.get("span") is not None
            }
            mapping = local.merge_remote_events(_remote_batch(), parent=batch)
        assert set(mapping.values()).isdisjoint(local_ids)
        # Every merged event rides a remapped id, including the point
        # firings event inside the nested span.
        firing = next(e for e in local.events if e["ev"] == "firings")
        assert firing["span"] in mapping.values()
        assert _firing_counts(local) == {"r1": 3}

    def test_truncated_batch_drops_unknown_span_reference(self):
        local = Tracer()
        # A span_end for a span whose start never shipped: keep the
        # event but strip the alien id rather than aliasing a local one.
        local.merge_remote_events(
            [{"ev": "span_end", "span": 7, "name": "worker.chunk"}]
        )
        (event,) = local.events
        assert "span" not in event

    def test_merged_tree_exports_as_valid_otlp(self):
        local = Tracer()
        with local.span("serve.request"):
            with local.span("parallel.batch") as batch:
                local.merge_remote_events(
                    _remote_batch(), parent=batch, pid=99
                )
        doc = to_otlp(local.events, local.trace_id, local.span_hex)
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
        assert {e["ev"] for e in taken} == {
            "span_start",
            "span_end",
            "firings",
        }
        assert all(
            e.get("req") != "b" for e in taken if e["ev"] == "span_start"
        )
        remaining = {
            e.get("req")
            for e in tracer.events
            if e["ev"] == "span_start"
        }
        assert remaining == {"b"}
        assert tracer.pop_subtree(second)  # still intact and extractable

    def test_popped_subtree_is_removed_from_memory(self):
        tracer = Tracer()
        with tracer.span("serve.request") as root:
            pass
        tracer.pop_subtree(root)
        assert tracer.events == []


class TestForcedSamplingOnMutedTracer:
    def test_sample_zero_is_never_and_records_nothing(self):
        tracer = Tracer(sample=0.0)
        assert tracer.never is True
        with tracer.span("serve.request") as span:
            tracer.step(object(), None)
            tracer.firings({"r1": 1})
            tracer.event("queue")
            assert span is None
        assert tracer.events == []

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
        names = [
            e["name"] for e in tracer.events if e["ev"] == "span_start"
        ]
        assert names == ["serve.request", "serve.evaluate"]
        assert _firing_counts(tracer) == {"r1": 2}
        # And the mute is really back: a plain span records nothing.
        with tracer.span("serve.request") as again:
            assert again is None

    def test_forced_false_still_mutes_a_sampling_tracer(self):
        tracer = Tracer(sample=1.0)
        with tracer.span("serve.request", sampled=False) as span:
            assert span is None
        assert tracer.events == []


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
        starts = [e for e in tracer.events if e["ev"] == "span_start"]
        ends = [e for e in tracer.events if e["ev"] == "span_end"]
        assert len(starts) == len(ends) == threads * 25 * 2
        ids = [e["span"] for e in starts]
        assert len(ids) == len(set(ids))  # one shared counter, no reuse
        by_id = {e["span"]: e for e in starts}
        for event in starts:
            if event["name"] == "serve.evaluate":
                parent = by_id[event["parent"]]
                assert parent["name"] == "serve.request"
