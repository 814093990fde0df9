"""Compiled symbolic automata: cold compilation vs warm ``aut``-cache reuse.

Two questions, answered on the paper's nested-sums-under-star family (the
Section 5 scaling shape also used by ``bench_cell_search.py``):

1. **Does the ``aut`` cache pay?**  Each size runs the same equivalence
   query twice through one checker + caches bundle: *cold* (every
   restricted-action sum compiled and minimized from scratch) and *warm*
   (the equivalence verdict memo is cleared so the signature search and
   product walks genuinely re-run, but the compiled automata are served
   from the ``aut`` LRU).  The warm run must perform **zero** new
   compilations — that part is deterministic and gated in both modes — and
   the full run additionally gates the wall-clock speedup.

2. **What does compilation cost against the derivative walk?**  For the
   family's loop actions ``L`` vs ``L;L`` (equivalent by ``m*;m* == m*``),
   compare the reference oracle's derivative ``language_compare``
   (:mod:`repro.core.oracle`) against compile + ``flat_compare`` — once cold
   (compilation amortized over a single comparison) and once hot (automata
   precompiled, the regime every warm session lives in after the first query
   touching a sum).  Derivatives are memoized only inside a decision call,
   so the oracle's baseline runs unmemoized: it recomputes every derivative
   it meets.

3. **Does the canonical-table fast path pay over the product walk?**  On the
   same precompiled automata, hot ``flat_compare`` vs the bare product walk
   it falls back to — on the *equivalent* pair (where the fast path decides
   without walking; this is the gated number) and on an *inequivalent*
   perturbed pair (depth ``d`` vs ``d+1``), where both walk (informational).
   ``flat_compare`` must agree with the reference oracle on both verdicts,
   and its witness must be accepted by exactly one side and be as short as
   the oracle's shortest distinguishing word (always gated).

Run directly to emit the ``BENCH_compile.json`` artifact at the repo root::

    PYTHONPATH=src python benchmarks/bench_compile.py            # full
    PYTHONPATH=src python benchmarks/bench_compile.py --smoke    # CI gate

Also collectable with pytest as a regression guard (deterministic gates
only — wall clock is never gated in the smoke/pytest lane).
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.core import terms as T
from repro.core.compile import compile_automaton
from repro.core.decision import EquivalenceChecker
from repro.core.kernels import _product_search, flat_compare
from repro.core.oracle import counterexample_word, derivative_accepts, language_compare
from repro.core.pushback import Normalizer
from repro.engine.cache import EngineCaches
from repro.theories.bitvec import BitVecTheory

#: (loop summands m, chain depth d) per size, smallest to largest.  ``m``
#: controls the number of guards (and hence signatures / distinct enabled
#: sums); ``d`` the length of each summand's action chain, which is what
#: grows the automata.  ``m`` stays at 2: the star-of-sums pushback is
#: doubly exponential in the summand count (the paper's Denest blow-up), and
#: normalization is not what this benchmark measures.
SIZES = [(1, 2), (2, 2), (2, 4), (2, 6), (2, 8)]
SMOKE_SIZES = [(1, 2), (2, 2)]

#: Full-run gate: warm aut-cache reuse vs cold compilation at the largest size.
WARM_SPEEDUP_TARGET = 5.0
#: Full-run gate: ``flat_compare`` vs the bare product walk on the largest
#: size's hot equivalent pair (the canonical-table fast path vs a full walk).
KERNEL_SPEEDUP_TARGET = 5.0
#: How many repeated comparisons the hot (precompiled) regime amortizes over.
HOT_REPEATS = 25


def _chain_sum_loop(theory, m, d):
    """Nested sums under star with depth-``d`` action chains:

    ``(x1 = F; y1_1 := T; ...; y1_d := T  +  ...  +  xm = F; ym_1 := T; ...)*``

    The Section 5 flip-loop shape, with each summand's single assignment
    deepened into a chain of ``d`` distinct assignments so the compiled
    automata have ~``m*d`` states over ~``m*d`` symbols — compilation, not
    solving, is the dominant cost, which is the regime the ``aut`` cache
    exists for.
    """
    summands = []
    for index in range(1, m + 1):
        chain = T.ttest(theory.eq(f"x{index}", False))
        for depth in range(1, d + 1):
            chain = T.tseq(chain, theory.assign(f"y{index}_{depth}", True))
        summands.append(chain)
    return T.tstar(T.tplus_all(summands))


def family_pair(m, d):
    theory = BitVecTheory()
    loop = _chain_sum_loop(theory, m, d)
    left = loop
    right = T.tseq(loop, loop)
    return theory, left, right, loop


def _measure_cold_warm(theory, left, right):
    """One size's cold-compile vs warm-aut-reuse row (normalization excluded)."""
    normalizer = Normalizer(theory, budget=5_000_000)
    x, y = normalizer.normalize(left), normalizer.normalize(right)
    caches = EngineCaches()
    checker = EquivalenceChecker(theory, caches=caches)
    started = time.perf_counter()
    cold_result = checker.check_equivalent_nf(x, y)
    cold_seconds = time.perf_counter() - started
    if not cold_result.equivalent:
        raise AssertionError("benchmark pair unexpectedly inequivalent (cold)")
    cold_states = checker.states_compiled
    cold_aut_misses = caches.aut.stats.misses
    # Clear the verdict memo so the signature search and every product walk
    # re-run; only the compiled automata (and satisfiability memos) stay warm.
    caches.equiv.clear()
    hits_before = caches.aut.stats.hits
    started = time.perf_counter()
    warm_result = checker.check_equivalent_nf(x, y)
    warm_seconds = time.perf_counter() - started
    if not warm_result.equivalent:
        raise AssertionError("benchmark pair unexpectedly inequivalent (warm)")
    return {
        "cold": {
            "seconds": round(cold_seconds, 6),
            "states_compiled": cold_states,
            "aut_misses": cold_aut_misses,
        },
        "warm": {
            "seconds": round(warm_seconds, 6),
            "states_compiled": checker.states_compiled - cold_states,
            "aut_hits": caches.aut.stats.hits - hits_before,
        },
        "warm_speedup": round(cold_seconds / warm_seconds, 2) if warm_seconds else float("inf"),
    }


def _measure_compare(theory, loop):
    """Compiled vs derivative comparison of the loop's restricted-action sums.

    ``L`` vs ``L;L`` themselves contain primitive tests; what the decision
    procedure compares per cell are the *restricted-action sums* of their
    normal forms — exactly what a signature with every guard enabled sees.
    """
    normalizer = Normalizer(theory, budget=5_000_000)
    left = T.tplus_all(action for _, action in normalizer.normalize(loop).sorted_pairs())
    right = T.tplus_all(
        action
        for _, action in normalizer.normalize(T.tseq(loop, loop)).sorted_pairs()
    )
    started = time.perf_counter()
    derivative_equal, _ = language_compare(left, right)
    derivative_seconds = time.perf_counter() - started
    started = time.perf_counter()
    a, b = compile_automaton(left), compile_automaton(right)
    compiled_equal, _ = flat_compare(a, b)
    compiled_cold_seconds = time.perf_counter() - started
    if not (derivative_equal and compiled_equal):
        raise AssertionError("loop pair unexpectedly inequivalent")
    # Hot regime: automata already cached, repeated comparisons (what a warm
    # session pays per signature after the first query touching these sums).
    started = time.perf_counter()
    for _ in range(HOT_REPEATS):
        flat_compare(a, b)
    compiled_hot_seconds = (time.perf_counter() - started) / HOT_REPEATS
    started = time.perf_counter()
    for _ in range(HOT_REPEATS):
        language_compare(left, right)
    derivative_hot_seconds = (time.perf_counter() - started) / HOT_REPEATS
    return {
        "automaton_states": {"left": a.state_count, "right": b.state_count,
                             "left_raw": a.raw_states, "right_raw": b.raw_states},
        "language_compare_seconds": round(derivative_seconds, 6),
        "language_compare_hot_seconds": round(derivative_hot_seconds, 6),
        "compiled_cold_seconds": round(compiled_cold_seconds, 6),
        "compiled_hot_seconds": round(compiled_hot_seconds, 6),
        "hot_speedup": (
            round(derivative_hot_seconds / compiled_hot_seconds, 2)
            if compiled_hot_seconds else float("inf")
        ),
    }


def _hot_seconds(fn, repeats=HOT_REPEATS):
    started = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - started) / repeats


def _walk(a, b):
    """The product walk ``flat_compare`` falls back to, without its fast path."""
    return _product_search(a, b, lambda pa, qb: pa != qb, None)


def _measure_kernels(theory, m, d):
    """``flat_compare`` vs the bare product walk on precompiled automata (hot).

    The equivalent pair (sums of ``L`` vs ``L;L``) compiles to byte-identical
    canonical tables, so ``flat_compare`` decides it on the equality fast
    path — the regime warm sessions live in, and the gated number.  The
    inequivalent pair (sums of the depth-``d`` vs depth-``d+1`` loop) takes
    the witness-producing walk either way; it is recorded but never
    wall-clock gated.  Both verdicts are checked against the reference oracle.
    """
    normalizer = Normalizer(theory, budget=5_000_000)

    def loop_sum(term):
        return T.tplus_all(
            action for _, action in normalizer.normalize(term).sorted_pairs()
        )

    loop = _chain_sum_loop(theory, m, d)
    sum_a = loop_sum(loop)
    sum_c = loop_sum(_chain_sum_loop(theory, m, d + 1))
    a = compile_automaton(sum_a)
    b = compile_automaton(loop_sum(T.tseq(loop, loop)))
    c = compile_automaton(sum_c)
    # Agreement with the oracle is a correctness gate, not a timing one.
    if flat_compare(a, b) != (True, None) or _walk(a, b) != (True, None):
        raise AssertionError("equivalent pair judged inequivalent")
    flat_verdict = flat_compare(a, c)
    if flat_verdict[0] or language_compare(sum_a, sum_c)[0]:
        raise AssertionError("perturbed pair unexpectedly equivalent")
    word = flat_verdict[1]
    if derivative_accepts(sum_a, word) == derivative_accepts(sum_c, word):
        raise AssertionError("witness word is accepted by both sides or neither")
    if len(word) != len(counterexample_word(sum_a, sum_c, max_length=4 * d + 8)):
        raise AssertionError("witness word is longer than the oracle's shortest")
    equivalent = {
        "walk_hot_seconds": round(_hot_seconds(lambda: _walk(a, b)), 9),
        "flat_hot_seconds": round(_hot_seconds(lambda: flat_compare(a, b)), 9),
    }
    equivalent["flat_speedup"] = (
        round(equivalent["walk_hot_seconds"] / equivalent["flat_hot_seconds"], 2)
        if equivalent["flat_hot_seconds"] else float("inf")
    )
    inequivalent = {
        "walk_hot_seconds": round(_hot_seconds(lambda: _walk(a, c)), 9),
        "flat_hot_seconds": round(_hot_seconds(lambda: flat_compare(a, c)), 9),
        "witness_length": len(word),
    }
    inequivalent["flat_speedup"] = (
        round(inequivalent["walk_hot_seconds"] / inequivalent["flat_hot_seconds"], 2)
        if inequivalent["flat_hot_seconds"] else float("inf")
    )
    return {"equivalent": equivalent, "inequivalent": inequivalent}


def run_all(smoke=False):
    rows = []
    for m, d in (SMOKE_SIZES if smoke else SIZES):
        theory, left, right, loop = family_pair(m, d)
        row = {"size": [m, d]}
        row.update(_measure_cold_warm(theory, left, right))
        row["compare"] = _measure_compare(theory, loop)
        row["kernels"] = _measure_kernels(theory, m, d)
        rows.append(row)
    return {
        "benchmark": "compile",
        "description": (
            "cold compilation vs warm aut-cache reuse, compiled comparisons "
            "vs the oracle's derivative language_compare, and the canonical-"
            "table fast path vs the product walk, on the nested-sums-under-"
            "star family"
        ),
        "smoke": smoke,
        "sizes": rows,
        "largest_warm_speedup": rows[-1]["warm_speedup"],
        "largest_hot_speedup": rows[-1]["compare"]["hot_speedup"],
        "largest_kernel_speedup": rows[-1]["kernels"]["equivalent"]["flat_speedup"],
    }


def check_report(report, require_speedup=True):
    """The acceptance gates; returns a list of failure strings."""
    failures = []
    for row in report["sizes"]:
        if row["cold"]["states_compiled"] <= 0:
            failures.append(f"size {row['size']}: cold run compiled no automata")
        if row["warm"]["states_compiled"] != 0:
            failures.append(
                f"size {row['size']}: warm run compiled "
                f"{row['warm']['states_compiled']} states instead of reusing the aut cache"
            )
        if row["warm"]["aut_hits"] <= 0:
            failures.append(f"size {row['size']}: warm run never hit the aut cache")
        # flat_compare must never lose to the bare walk on the hot
        # equivalent pair.  Gated in every lane, smoke included: the fast
        # path is two buffer comparisons against a full product walk, so the
        # margin is orders of magnitude — not a flaky wall-clock race.
        if row["kernels"]["equivalent"]["flat_speedup"] < 1.0:
            failures.append(
                f"size {row['size']}: flat_compare slower than the product walk "
                f"on the equivalent pair ({row['kernels']['equivalent']['flat_speedup']}x)"
            )
    if require_speedup and report["largest_warm_speedup"] < WARM_SPEEDUP_TARGET:
        failures.append(
            f"largest-size warm speedup {report['largest_warm_speedup']}x "
            f"below the {WARM_SPEEDUP_TARGET}x target"
        )
    if require_speedup and report["largest_kernel_speedup"] < KERNEL_SPEEDUP_TARGET:
        failures.append(
            f"largest-size fast-path speedup {report['largest_kernel_speedup']}x "
            f"below the {KERNEL_SPEEDUP_TARGET}x target"
        )
    return failures


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    report = run_all(smoke=smoke)
    artifact = os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_compile.json")
    )
    if not smoke:
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    if not smoke:
        print(f"# wrote {artifact}")
    # Wall clock is only gated on the full run; the smoke lane (CI) checks
    # the deterministic compilation/cache-hit counters.
    failures = check_report(report, require_speedup=not smoke)
    for failure in failures:
        print(f"# FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_warm_aut_cache_reuses_compiled_automata():
    """Regression guard: the warm run never recompiles (deterministic)."""
    report = run_all(smoke=True)
    assert check_report(report, require_speedup=False) == []


if __name__ == "__main__":
    raise SystemExit(main())
