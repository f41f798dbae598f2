"""Sharded parallel evaluation.

Worker processes are natural shards of the evaluation runtime — each
owns its intern table, shape memo, and warm engines — so batches
parallelise by shipping chunks of terms across a portable wire format
(:mod:`repro.parallel.wire`) to a :class:`~repro.parallel.pool.ShardPool`
of workers, with serial-identical per-item semantics and worker metrics
merged back into the process-wide observability view.

One rule: sharding means holding a :class:`ShardPool`.  Library
entry points (engines, the symbolic interpreter, the façades, the
analyses and the prover) always evaluate in-process; only a pool's
owner starts worker processes.  There are two owners: a serving
session (``repro serve --workers N``, supervised) and ``repro eval
--workers N``, and a caller can build its own pool the same way.
"""

from repro.parallel.pool import ShardPool, close_all_pools
from repro.parallel.wire import (
    WireError,
    decode_budget,
    decode_outcomes,
    decode_ruleset,
    decode_term,
    decode_terms,
    encode_budget,
    encode_outcomes,
    encode_ruleset,
    encode_term,
    encode_terms,
)

__all__ = [
    "ShardPool",
    "WireError",
    "close_all_pools",
    "decode_budget",
    "decode_outcomes",
    "decode_ruleset",
    "decode_term",
    "decode_terms",
    "encode_budget",
    "encode_outcomes",
    "encode_ruleset",
    "encode_term",
    "encode_terms",
]
