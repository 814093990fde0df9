"""Shared fixtures and hypothesis strategies for the KMT test suite."""

from __future__ import annotations

import logging

import pytest
from hypothesis import settings
from hypothesis import strategies as st

# Derandomize hypothesis: with per-run random seeds the generators very
# occasionally produce a pathological term (sums nested under star) whose
# normalization grinds for minutes, wedging CI and tier-1 runs.  A fixed
# example stream keeps every run reproducible; per-example deadlines are
# disabled because wall-clock limits flake on slow single-core runners.
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")

from repro.core import terms as T
from repro.core.kmt import KMT
from repro.theories.bitvec import BitVecTheory, BoolAssign, BoolEq
from repro.theories.incnat import AssignNat, Gt, IncNatTheory, Incr
from repro.theories.netkat import NetKatTheory
from repro.theories.product import ProductTheory
from repro.utils.frozendict import FrozenDict


# ---------------------------------------------------------------------------
# theory / KMT fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def bitvec():
    return BitVecTheory(variables=("a", "b", "c"))


@pytest.fixture
def incnat():
    return IncNatTheory(variables=("x", "y"))


@pytest.fixture
def netkat():
    return NetKatTheory({"sw": (1, 2, 3), "dst": (1, 2)})


@pytest.fixture
def kmt_bitvec(bitvec):
    return KMT(bitvec)


@pytest.fixture
def kmt_incnat(incnat):
    return KMT(incnat)


@pytest.fixture
def kmt_netkat(netkat):
    return KMT(netkat)


@pytest.fixture
def kmt_product():
    return KMT(ProductTheory(IncNatTheory(variables=("x",)), BitVecTheory(variables=("a",))))


@pytest.fixture
def quiet_logging():
    """Restore the silent-by-default ``kmt`` hierarchy after the test."""
    yield
    logger = logging.getLogger("kmt")
    for handler in list(logger.handlers):
        if not isinstance(handler, logging.NullHandler):
            logger.removeHandler(handler)
            handler.close()
    logger.setLevel(logging.NOTSET)


# ---------------------------------------------------------------------------
# hypothesis strategies: BitVec terms (finite state, good for differential tests)
# ---------------------------------------------------------------------------

BITVEC_VARS = ("a", "b", "c")
INCNAT_VARS = ("x", "y")


def bitvec_primitive_tests():
    return st.sampled_from([BoolEq(v) for v in BITVEC_VARS])


def bitvec_primitive_actions():
    return st.sampled_from(
        [BoolAssign(v, value) for v in BITVEC_VARS for value in (True, False)]
    )


def bitvec_preds(max_leaves=4):
    """Random predicates over the BitVec theory."""
    leaves = st.one_of(
        st.just(T.pzero()),
        st.just(T.pone()),
        bitvec_primitive_tests().map(T.pprim),
    )

    def extend(children):
        return st.one_of(
            children.map(T.pnot),
            st.tuples(children, children).map(lambda ab: T.pand(*ab)),
            st.tuples(children, children).map(lambda ab: T.por(*ab)),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def bitvec_terms(max_leaves=4, allow_star=True):
    """Random terms over the BitVec theory (kept small for decidability tests)."""
    leaves = st.one_of(
        bitvec_preds(max_leaves=2).map(T.ttest),
        bitvec_primitive_actions().map(T.tprim),
    )

    def extend(children):
        options = [
            st.tuples(children, children).map(lambda pq: T.tplus(*pq)),
            st.tuples(children, children).map(lambda pq: T.tseq(*pq)),
        ]
        if allow_star:
            options.append(children.map(T.tstar))
        return st.one_of(*options)

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def bitvec_states():
    """All-variable boolean states for the BITVEC_VARS universe."""
    return st.builds(
        lambda values: FrozenDict(dict(zip(BITVEC_VARS, values))),
        st.tuples(*[st.booleans() for _ in BITVEC_VARS]),
    )


def all_bitvec_states():
    """The full (deterministic) list of states over BITVEC_VARS."""
    states = []
    for bits in range(2 ** len(BITVEC_VARS)):
        assignment = {
            var: bool((bits >> index) & 1) for index, var in enumerate(BITVEC_VARS)
        }
        states.append(FrozenDict(assignment))
    return states


# ---------------------------------------------------------------------------
# hypothesis strategies: IncNat
# ---------------------------------------------------------------------------


def incnat_primitive_tests(max_bound=4):
    return st.builds(Gt, st.sampled_from(INCNAT_VARS), st.integers(0, max_bound))


def incnat_primitive_actions(max_value=4):
    return st.one_of(
        st.builds(Incr, st.sampled_from(INCNAT_VARS)),
        st.builds(AssignNat, st.sampled_from(INCNAT_VARS), st.integers(0, max_value)),
    )


def incnat_preds(max_leaves=4):
    leaves = st.one_of(
        st.just(T.pzero()),
        st.just(T.pone()),
        incnat_primitive_tests().map(T.pprim),
    )

    def extend(children):
        return st.one_of(
            children.map(T.pnot),
            st.tuples(children, children).map(lambda ab: T.pand(*ab)),
            st.tuples(children, children).map(lambda ab: T.por(*ab)),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def incnat_terms(max_leaves=4, allow_star=True):
    leaves = st.one_of(
        incnat_preds(max_leaves=2).map(T.ttest),
        incnat_primitive_actions().map(T.tprim),
    )

    def extend(children):
        options = [
            st.tuples(children, children).map(lambda pq: T.tplus(*pq)),
            st.tuples(children, children).map(lambda pq: T.tseq(*pq)),
        ]
        if allow_star:
            options.append(children.map(T.tstar))
        return st.one_of(*options)

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def incnat_states(max_value=5):
    return st.builds(
        lambda values: FrozenDict(dict(zip(INCNAT_VARS, values))),
        st.tuples(*[st.integers(0, max_value) for _ in INCNAT_VARS]),
    )


# ---------------------------------------------------------------------------
# restricted actions (for automata tests)
# ---------------------------------------------------------------------------


def restricted_actions(max_leaves=5):
    """Random restricted actions over a tiny BitVec action alphabet."""
    leaves = st.one_of(
        st.just(T.tone()),
        st.just(T.tzero()),
        st.sampled_from(
            [T.tprim(BoolAssign("a", True)), T.tprim(BoolAssign("b", True)), T.tprim(BoolAssign("c", False))]
        ),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda pq: T.tplus(*pq)),
            st.tuples(children, children).map(lambda pq: T.tseq(*pq)),
            children.map(T.tstar),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)
