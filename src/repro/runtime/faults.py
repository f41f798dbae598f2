"""The fault-point registry: chaos hooks inside the evaluation runtime.

The engines call :func:`fault_point` at a handful of named sites —
rule selection, builtin evaluation, memo insertion, codegen dispatch,
fallback entry.  In production the hook is a module-global ``None``
check and costs nothing.  Under test, :mod:`repro.testing.faults`
installs an injector whose ``visit(site, payload)`` may raise a planned
exception (``RecursionError``, ``MemoryError``, a generic runtime
failure) or perturb the payload (e.g. evict memo entries, the benign
form of cache corruption the runtime must tolerate), at seeded
per-site probabilities.

The instrumented sites are the explicit allowlist of *fault
boundaries*: every ``except Exception`` in the runtime exists to
contain exactly the failures injectable here, and the chaos suite
(``tests/runtime/test_chaos.py``) holds the engines to their
invariants — batches never abort, caches stay consistent with a cold
engine, ``error`` propagation stays strict — under fire at each site.
"""

from __future__ import annotations

from typing import Optional, Protocol


class FaultInjector(Protocol):
    """What the registry expects of an installed injector."""

    def visit(self, site: str, payload: object = None) -> None:
        """Called at each instrumented site; may raise or perturb."""


#: The instrumented sites.  Keep in sync with the ``fault_point`` /
#: ``ACTIVE.visit`` calls in the engine modules; the chaos suite
#: iterates this tuple, so an uninstrumented name fails loudly there.
SITES = (
    "engine.match_root",  # interpreted rule selection
    "engine.builtin",  # builtin operation evaluation
    "engine.remember",  # ground normal-form memo insertion
    "compiled.root",  # codegen per-operation function dispatch
    "compiled.fallback",  # codegen -> interpreted depth fallback
    "symbolic.apply",  # symbolic interpreter operation application
    "serve.handle",  # request handling, after admission (slow/failing handler)
    "serve.respond",  # response writing (dropped connection mid-reply)
)

#: The installed injector, or None (the fast path).  Engine hot paths
#: read this module attribute directly — ``if faults.ACTIVE is not
#: None`` — so installation is a plain assignment, no indirection.
ACTIVE: Optional[FaultInjector] = None


def install(injector: Optional[FaultInjector]) -> Optional[FaultInjector]:
    """Install ``injector`` (or None to disarm); returns the previous
    one so nesting restores correctly."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = injector
    return previous


def fault_point(site: str, payload: object = None) -> None:
    """Visit an instrumentation site.  No-op unless an injector is
    installed.  (Hot paths inline the ``ACTIVE`` check instead of
    calling this.)"""
    injector = ACTIVE
    if injector is not None:
        injector.visit(site, payload)
