"""Signature-guided cell search vs. the explicit cell enumerator.

The paper's procedure compares the two normal forms once per Boolean cell of
primitive tests; the reference enumerator (:mod:`repro.core.oracle`) pays one
language comparison per satisfiable cell — exponential in the number of
distinct atoms.  The production checker's solver-guided search instead
enumerates only the realizable *guard activation signatures*, so cells that
enable the same summands are decided by a single comparison.  Both sides
compare with their own path (the oracle with derivative comparisons, the
checker with compiled automata), so the wall-clock column measures the whole
decision procedure, not the cell strategy alone.

The workload is the paper's nested-sums-under-star shape: a one-way flip loop
``(x1 = F; x1 := T + ... + xm = F; xm := T)*`` (the Section 5 scaling family)
behind a shared guard context ``c1 = T; ...; cn = T``, compared against its
star-squared variant (``p; L`` vs ``p; L; L`` — equivalent by ``m*; m* ==
m*``).  The context atoms multiply the enumerator's cell count by ``2^n``
while leaving the signature count untouched.  A second family runs the same
shape over IncNat, where the enumerator's theory pruning is actually active
(bound chains prune ``2^n`` cells down to ``n+1``) — the signature search
still wins.

Run directly to emit the ``BENCH_decision.json`` artifact at the repo root::

    PYTHONPATH=src python benchmarks/bench_cell_search.py            # full
    PYTHONPATH=src python benchmarks/bench_cell_search.py --smoke    # CI gate

The full run fails (exit 1) unless the signature search performs strictly
fewer comparisons at every size and is >= 5x faster at the largest size; the
smoke run only checks the comparison counts, which are deterministic.  Also
collectable with pytest as a regression guard.
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.core import terms as T
from repro.core.decision import EquivalenceChecker
from repro.core.oracle import OracleChecker
from repro.core.pushback import Normalizer
from repro.theories.bitvec import BitVecTheory
from repro.theories.incnat import IncNatTheory

#: (context atoms n, loop variables m) per size, smallest to largest.
BITVEC_SIZES = [(2, 1), (4, 2), (6, 2), (8, 3)]
SMOKE_BITVEC_SIZES = [(3, 1), (4, 2)]
#: Length of the IncNat bound chain guarding the loop.
INCNAT_SIZES = [2, 4, 8, 12]
SMOKE_INCNAT_SIZES = [2, 4]

SPEEDUP_TARGET = 5.0


def _guard_context(theory, n):
    """``c1 = T; ...; cn = T`` — shared context atoms over fresh variables."""
    out = T.tone()
    for index in range(1, n + 1):
        out = T.tseq(out, T.ttest(theory.eq(f"c{index}", True)))
    return out


def _flip_sum_loop(theory, m):
    """The Section 5 family: ``(x1 = F; x1 := T + ... + xm = F; xm := T)*``."""
    summands = [
        T.tseq(T.ttest(theory.eq(f"x{index}", False)), theory.assign(f"x{index}", True))
        for index in range(1, m + 1)
    ]
    return T.tstar(T.tplus_all(summands))


def bitvec_pair(n, m):
    theory = BitVecTheory()
    context = _guard_context(theory, n)
    loop = _flip_sum_loop(theory, m)
    left = T.tseq(context, loop)
    right = T.tseq(context, T.tseq(loop, loop))
    return theory, left, right


def incnat_pair(n):
    theory = IncNatTheory()
    context = T.tone()
    for bound in range(1, n + 1):
        context = T.tseq(context, T.ttest(theory.gt("x", bound)))
    loop = T.tstar(theory.inc("y"))
    left = T.tseq(context, loop)
    right = T.tseq(context, T.tseq(loop, loop))
    return theory, left, right


def _measure(theory, left, right):
    """Decision-procedure cost per mode over pre-normalized inputs.

    Normalization is identical for both modes, so it runs once outside the
    timers; each mode gets a fresh checker (no cross-mode memo leakage).
    """
    normalizer = Normalizer(theory, budget=5_000_000)
    x, y = normalizer.normalize(left), normalizer.normalize(right)
    row = {}
    for mode, checker in (("enumerate", OracleChecker(theory)),
                          ("signature", EquivalenceChecker(theory))):
        started = time.perf_counter()
        result = checker.check_equivalent_nf(x, y)
        elapsed = time.perf_counter() - started
        if not result.equivalent:
            raise AssertionError(f"benchmark pair unexpectedly inequivalent ({mode})")
        row[mode] = {
            "seconds": round(elapsed, 6),
            "language_compares": result.cells_explored,
            "cells_pruned": result.cells_pruned,
            "signatures_explored": result.signatures_explored,
        }
    enum_row, sig_row = row["enumerate"], row["signature"]
    row["compare_ratio"] = (
        round(enum_row["language_compares"] / sig_row["language_compares"], 2)
        if sig_row["language_compares"]
        else float("inf")
    )
    row["speedup"] = (
        round(enum_row["seconds"] / sig_row["seconds"], 2)
        if sig_row["seconds"]
        else float("inf")
    )
    return row


def run_family(builder, sizes):
    rows = []
    for size in sizes:
        theory, left, right = builder(*size) if isinstance(size, tuple) else builder(size)
        row = _measure(theory, left, right)
        row["size"] = list(size) if isinstance(size, tuple) else size
        rows.append(row)
    return rows


def run_all(smoke=False):
    families = {
        "bitvec_nested_star": run_family(
            bitvec_pair, SMOKE_BITVEC_SIZES if smoke else BITVEC_SIZES
        ),
        "incnat_guard_chain": run_family(
            incnat_pair, SMOKE_INCNAT_SIZES if smoke else INCNAT_SIZES
        ),
    }
    largest = families["bitvec_nested_star"][-1]
    return {
        "benchmark": "cell_search",
        "description": (
            "signature-guided guard search vs explicit cell enumeration on the "
            "nested-sums-under-star family (language_compare calls + wall clock)"
        ),
        "smoke": smoke,
        "families": families,
        "largest_speedup": largest["speedup"],
        "largest_compare_ratio": largest["compare_ratio"],
    }


def check_report(report, require_speedup=True):
    """The acceptance gates; returns a list of failure strings."""
    failures = []
    for family, rows in report["families"].items():
        for row in rows:
            if row["signature"]["language_compares"] >= row["enumerate"]["language_compares"]:
                failures.append(
                    f"{family} size {row['size']}: signature search performed "
                    f"{row['signature']['language_compares']} comparisons, "
                    f"enumerator {row['enumerate']['language_compares']}"
                )
    if require_speedup and report["largest_speedup"] < SPEEDUP_TARGET:
        failures.append(
            f"largest-size speedup {report['largest_speedup']}x "
            f"below the {SPEEDUP_TARGET}x target"
        )
    return failures


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    report = run_all(smoke=smoke)
    artifact = os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_decision.json")
    )
    if not smoke:
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    if not smoke:
        print(f"# wrote {artifact}")
    # Wall-clock is only gated on the full run; the smoke lane (CI) checks the
    # deterministic comparison counts.
    failures = check_report(report, require_speedup=not smoke)
    for failure in failures:
        print(f"# FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_signature_search_beats_enumerator():
    """Regression guard: strictly fewer comparisons at every smoke size."""
    report = run_all(smoke=True)
    assert check_report(report, require_speedup=False) == []


if __name__ == "__main__":
    raise SystemExit(main())
