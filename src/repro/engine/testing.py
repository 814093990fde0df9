"""Spawn-importable theory factories for tests.

The process execution backend cannot ship an in-process callable to its
worker processes; factory injection crosses the boundary as a
``theory_factory_spec`` string (``"module:attribute"``) that each worker
resolves after spawning.  Test-suite factories therefore live here — a real
module on ``PYTHONPATH``, importable in any spawned child — and are
configured through environment variables, which spawned workers inherit from
the parent:

``KMT_TEST_ORACLE_DELAY_MS``
    Per-call sleep (milliseconds) added to ``satisfiable_conjunction`` /
    ``satisfiable``, modeling the out-of-process SMT solver the paper's
    implementations call (Z3 over IPC).  Default ``0`` (no wrapping).

``KMT_TEST_ORACLE_THEORIES``
    Comma-separated theory preset names the delay applies to; empty or unset
    applies it to every theory.

These knobs drive the crash-recovery and deadline tests (a long oracle sleep
opens a deterministic window to kill a worker mid-query, or to expire a
deadline) and the worker- and backend-scaling tests, which need queries that
wait on a GIL-releasing solver call.
"""

from __future__ import annotations

import os
import time

from repro.theories import build_theory


class OracleLatencyTheory:
    """Delegating theory wrapper adding per-oracle-call latency.

    Each ``satisfiable_conjunction`` / ``satisfiable`` call sleeps
    ``delay_s`` (releasing the GIL, exactly as real solver IPC would) before
    delegating to the wrapped theory.
    """

    def __init__(self, inner, delay_s):
        self._inner = inner
        self._delay_s = delay_s

    def _pay(self):
        if self._delay_s > 0:
            time.sleep(self._delay_s)

    def satisfiable_conjunction(self, literals):
        self._pay()
        return self._inner.satisfiable_conjunction(literals)

    def satisfiable(self, pred):
        self._pay()
        return self._inner.satisfiable(pred)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def oracle_latency_factory(theory_name):
    """Build a theory, wrapped with the env-configured oracle latency.

    Spec form: ``"repro.engine.testing:oracle_latency_factory"``.
    """
    theory = build_theory(theory_name)
    delay_ms = float(os.environ.get("KMT_TEST_ORACLE_DELAY_MS", "0") or "0")
    only = os.environ.get("KMT_TEST_ORACLE_THEORIES", "")
    if delay_ms <= 0:
        return theory
    if only and theory_name.lower() not in {name.strip().lower()
                                            for name in only.split(",") if name.strip()}:
        return theory
    return OracleLatencyTheory(theory, delay_ms / 1000.0)
