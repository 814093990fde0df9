"""Fig. 1: the motivating While programs, verified end to end.

The paper uses Pnat / Pset / Pmap (Fig. 1a–c) to motivate the theories it then
builds (naturals, sets, maps).  These benchmarks measure the full pipeline on
each program — parse the While source, compile to a KMT term, and prove the
trailing assert redundant — with the loop constants scaled down so a single
verification stays in the seconds range (the paper never reports numbers for
Fig. 1).
"""

import pytest

from repro.core.kmt import KMT
from repro.lang import parse_program
from repro.theories.bitvec import BitVecTheory
from repro.theories.incnat import IncNatTheory
from repro.theories.maps import MapTheory, NatBoolMapAdapter
from repro.theories.product import ProductTheory
from repro.theories.sets import NatExpressionAdapter, SetTheory

PNAT_BODY = """
assume i < 2;
while (i < 4) {
    inc(i);
    inc(j); inc(j);
}
"""

PSET_BODY = """
assume i < 1;
while (i < 4) {
    add(X, i);
    inc(i);
}
"""

PMAP_BODY = """
i := 0;
parity := F;
while (i < 4) {
    odd[i] := parity;
    inc(i);
    flip parity;
}
"""


def test_pnat(benchmark):
    """Fig. 1(a): the assert j > 3 after the counting loop never fires."""
    theory = IncNatTheory(variables=("i", "j"))
    kmt = KMT(theory)

    def verify():
        program = parse_program(PNAT_BODY + "assert j > 3;", theory).compile()
        stripped = parse_program(PNAT_BODY, theory).compile()
        return kmt.equivalent(program, stripped)

    assert benchmark(verify) is True


def test_pset(benchmark):
    """Fig. 1(b): after inserting 0..3 into X, in(X, 3) always holds."""
    nat = IncNatTheory(variables=("i",))
    adapter = NatExpressionAdapter(nat, variables=("i",))
    theory = SetTheory(nat, adapter, set_variables=("X",))
    kmt = KMT(theory)

    def verify():
        program = parse_program(PSET_BODY + "assert in(X, 3);", theory).compile()
        stripped = parse_program(PSET_BODY, theory).compile()
        return kmt.equivalent(program, stripped)

    assert benchmark(verify) is True


def test_pset_unbounded_membership(benchmark, kmt_sets):
    """The Section 2.3 claim: (inc i; add(X,i))*; i > N; in(X, N) is non-empty."""

    def verify():
        return kmt_sets.is_empty("(inc(i); add(X, i))*; i > 6; in(X, 6)")

    assert benchmark(verify) is False


def test_pmap(benchmark):
    """Fig. 1(c): after the parity loop, odd[3] = T always holds."""
    nat = IncNatTheory(variables=("i",))
    bools = BitVecTheory(variables=("parity",))
    inner = ProductTheory(nat, bools)
    adapter = NatBoolMapAdapter(nat, bools, key_variables=("i",), value_variables=("parity",))
    theory = MapTheory(inner, adapter, map_variables=("odd",))
    kmt = KMT(theory)

    def verify():
        program = parse_program(PMAP_BODY + "assert odd[3] = T;", theory).compile()
        stripped = parse_program(PMAP_BODY, theory).compile()
        return kmt.equivalent(program, stripped)

    result = benchmark.pedantic(verify, rounds=2, iterations=1)
    assert result is True
