"""Spec-as-a-service: the long-lived ``repro serve`` daemon.

Every CLI invocation today pays full cold-start: parse the spec, build
the signature, compile or generate the rule modules, warm the intern
table and the normal-form memo.  This package amortises all of that
behind a zero-dependency HTTP daemon that loads specifications once
into per-fingerprint warm engines and answers batched ``normalize`` /
``check`` / ``prove`` requests — the front end the PR-3 resilience
ladder and the PR-7 shard pool were built for.

Robustness is the headline:

* **admission control** (:mod:`repro.serve.admission`) — server-side
  ceilings clamp every per-request
  :class:`~repro.runtime.EvaluationBudget`, a bounded queue holds
  momentary overload, and load beyond it is *shed* with structured
  429/503 responses carrying ``Retry-After`` — never queued unboundedly,
  never a hung connection;
* **fault isolation** — every batch item resolves to a per-item
  :class:`~repro.runtime.Outcome`, so a diverging client term returns
  ``diverged`` to its caller while the process keeps serving;
* **self-healing** (:mod:`repro.serve.supervisor`) — shard workers that
  die trigger the pool→serial degradation *plus* pool respawn with
  exponential backoff, behind a circuit breaker that stops respawning
  after repeated crashes;
* **observability of failure** — ``/metrics`` renders the PR-5 registry
  in Prometheus text exposition format, ``/healthz`` and ``/readyz``
  report liveness and readiness, and each traced request exports its
  spans as one OTLP/JSON document.

:mod:`repro.serve.client` is the matching stdlib client: timeouts and
jittered retry on 429/503.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionDenied,
    ServeLimits,
    clamp_budget,
)
from repro.serve.client import ServeClient, ServeError, ServeUnavailable
from repro.serve.server import ReproServer
from repro.serve.supervisor import PoolSupervisor

__all__ = [
    "AdmissionController",
    "AdmissionDenied",
    "PoolSupervisor",
    "ReproServer",
    "ServeClient",
    "ServeError",
    "ServeLimits",
    "ServeUnavailable",
    "clamp_budget",
]
