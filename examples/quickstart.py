#!/usr/bin/env python3
"""Quickstart: build a KMT, parse terms, decide equivalence.

This walks through the library's core workflow on the theory of increasing
naturals (the paper's running example, Fig. 2):

1. construct a client theory and wrap it in a :class:`repro.KMT`;
2. parse terms in the concrete syntax (or build them programmatically);
3. normalize terms to see the pushback machinery at work;
4. decide equivalence, ordering and emptiness;
5. run programs against the executable tracing semantics.

Run with:  python examples/quickstart.py
"""

from repro import KMT, IncNatTheory
from repro.core.pretty import pretty_normal_form


def main():
    theory = IncNatTheory(variables=("x", "y"))
    kmt = KMT(theory)

    print("=== 1. parsing ===")
    program = kmt.parse("x < 2; while (x < 5) do inc(x) end; x > 4")
    print("parsed term:", kmt.pretty(program))

    print()
    print("=== 2. normalization (pushback) ===")
    loop = kmt.parse("inc(x)*; x > 3")
    normal_form = kmt.normalize(loop)
    steps = kmt.stats()["session"]["normalization_steps"]
    print(f"normalizing  {kmt.pretty(loop)}")
    print(f"  {len(normal_form)} summands, {steps} pushback steps")
    print("  normal form:", pretty_normal_form(normal_form))

    print()
    print("=== 3. equivalence checking ===")
    queries = [
        ("inc(x); x > 1", "x > 0; inc(x)"),                      # the Inc-GT axiom
        ("inc(x)*; x > 10", "inc(x)*; inc(x)*; x > 10"),         # Fig. 9 row 2
        ("inc(x)*; x > 10", "inc(x)*; x > 11"),                  # genuinely different
    ]
    for left, right in queries:
        verdict = kmt.equivalent(left, right)
        symbol = "==" if verdict else "!="
        print(f"  {left}   {symbol}   {right}")

    print()
    print("=== 4. ordering and emptiness ===")
    print("  x > 5  <=  x > 3 :", kmt.less_or_equal("x > 5", "x > 3"))
    print("  'x < 1; inc(x); x > 3' is empty:", kmt.is_empty("x < 1; inc(x); x > 3"))
    print("  'x < 1; inc(x); x > 0' is empty:", kmt.is_empty("x < 1; inc(x); x > 0"))

    print()
    print("=== 5. running programs (tracing semantics) ===")
    for trace in sorted(kmt.run(program), key=len):
        steps = " ; ".join(str(e.action) for e in trace if e.action is not None)
        print(f"  trace: {steps or '<no actions>'}  ->  final state {dict(trace.last_state)}")

    print()
    print("=== 6. counterexamples ===")
    result = kmt.check_equivalent("inc(x); x > 2", "inc(x); x > 1")
    print("  inc(x); x > 2  vs  inc(x); x > 1 :", result)
    if result.counterexample:
        print("  ", result.counterexample.describe())


if __name__ == "__main__":
    main()
