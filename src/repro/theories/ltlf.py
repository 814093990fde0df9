"""Past-time linear temporal logic on finite traces, LTLf (paper Fig. 3d, §2.4).

LTLf is a *higher-order* theory: it wraps an inner client theory ``T`` and
extends its predicate language with two temporal primitives whose arguments
are arbitrary predicates of the combined language::

    last(a)        — "a held in the previous state"  (false at the start of time)
    since(a, b)    — "b held at some point in the past and a has held since"
                     (degenerates to b at the start of time)

and the usual derived operators::

    start          ==  not last(true)
    wlast(a)       ==  not last(not a)          (weak last)
    ev(a)          ==  since(true, a)           (eventually in the past, ♦)
    always(a)      ==  not ev(not a)            (globally in the past, □)
    back_to(a, b)  ==  since(a, b) + always(a)  (the B operator)

Actions are exactly the inner theory's actions; states are inner states — all
the temporal information lives in the trace, which the tracing semantics
already records.

Pushback (Fig. 3d) needs the *derived* weakest precondition on the embedded
predicates ``a``/``b`` — this is where the recursive-module knot of the OCaml
implementation appears.  Here the theory calls
``self.kmt.weakest_precondition`` (the PB• relation restricted to primitive
actions)::

    pi ; last(a)      WP   a
    pi ; since(a, b)  WP   b'  +  a' ; since(a, b)
                           where pi;a == a';pi and pi;b == b';pi

Satisfiability of temporal predicates is decided by bounded trace search: a
formula is satisfiable iff it holds at the end of some finite trace, and we
look for traces up to a configurable length (default 8) by expanding the
temporal operators into per-position constraints on *independent* copies of
the inner theory's state and handing the result to the generic DPLL(T) engine
with a position-aware oracle.  This replaces the OCaml implementation's Z3
encoding; the bound is an explicit, documented approximation (sound for SAT
answers, and exact for the formulas appearing in the paper's examples, whose
temporal depth is small).  The inner theory must be a *state* theory (its
tests may only inspect the last state), which holds for every shipped theory
except LTLf itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import terms as T
from repro.core.theory import Theory
from repro.utils.errors import TheoryError

#: How long a trace the bounded satisfiability search will consider.
DEFAULT_TRACE_BOUND = 8


@dataclass(frozen=True)
class LtlLast:
    """The primitive test ``last(pred)``."""

    pred: object  # a repro.core.terms.Pred

    def __str__(self):
        return f"last({self.pred.pretty()})"


@dataclass(frozen=True)
class LtlSince:
    """The primitive test ``since(pred_a, pred_b)``."""

    pred_a: object
    pred_b: object

    def __str__(self):
        return f"since({self.pred_a.pretty()}, {self.pred_b.pretty()})"


@dataclass(frozen=True)
class _TaggedAtom:
    """An inner-theory test pinned to a trace position (bounded SAT only)."""

    position: int
    alpha: object

    def __str__(self):
        return f"{self.alpha}@{self.position}"


class _PositionOracle(Theory):
    """Wraps the inner theory so tagged atoms at different positions are independent."""

    name = "ltlf-position-oracle"

    def __init__(self, inner):
        super().__init__()
        self.inner = inner

    def owns_test(self, alpha):
        return isinstance(alpha, _TaggedAtom)

    def satisfiable_conjunction(self, literals):
        by_position = {}
        for atom, polarity in literals:
            by_position.setdefault(atom.position, []).append((atom.alpha, polarity))
        for _, inner_literals in by_position.items():
            if not self.inner.satisfiable_conjunction(inner_literals):
                return False
        return True


class LtlfTheory(Theory):
    """Past-time LTL on finite traces over an arbitrary (state) client theory."""

    name = "ltlf"

    def __init__(self, inner, trace_bound=DEFAULT_TRACE_BOUND):
        super().__init__()
        self.inner = inner
        self.trace_bound = trace_bound
        self._oracle = _PositionOracle(inner)

    # -- recursive knot -------------------------------------------------------
    def attach(self, kmt):
        super().attach(kmt)
        self.inner.attach(kmt)

    # -- ownership ---------------------------------------------------------
    def owns_test(self, alpha):
        return isinstance(alpha, (LtlLast, LtlSince)) or self.inner.owns_test(alpha)

    def owns_action(self, pi):
        return self.inner.owns_action(pi)

    # -- semantics -----------------------------------------------------------
    def initial_state(self):
        return self.inner.initial_state()

    def pred(self, alpha, trace):
        if isinstance(alpha, LtlLast):
            previous = trace.prefix()
            if previous is None:
                return False
            return self.require_kmt().eval_pred(alpha.pred, previous)
        if isinstance(alpha, LtlSince):
            kmt = self.require_kmt()
            if kmt.eval_pred(alpha.pred_b, trace):
                return True
            previous = trace.prefix()
            if previous is None:
                return False
            return kmt.eval_pred(alpha.pred_a, trace) and self.pred(alpha, previous)
        return self.inner.pred(alpha, trace)

    def act(self, pi, state):
        return self.inner.act(pi, state)

    # -- pushback -------------------------------------------------------------
    def push_back(self, pi, alpha):
        kmt = self.require_kmt()
        if isinstance(alpha, LtlLast):
            return [alpha.pred]
        if isinstance(alpha, LtlSince):
            pushed_a = kmt.weakest_precondition(pi, alpha.pred_a)
            pushed_b = kmt.weakest_precondition(pi, alpha.pred_b)
            return [pushed_b, T.pand(pushed_a, T.pprim(alpha))]
        return self.inner.push_back(pi, alpha)

    def subterms(self, alpha):
        if isinstance(alpha, LtlLast):
            return [alpha.pred]
        if isinstance(alpha, LtlSince):
            return [alpha.pred_a, alpha.pred_b]
        return self.inner.subterms(alpha)

    # -- satisfiability ---------------------------------------------------------
    def satisfiable(self, pred):
        from repro.smt.dpll import dpll_satisfiable

        if not _mentions_temporal(pred):
            return dpll_satisfiable(pred, self.inner)
        for length in range(1, self.trace_bound + 1):
            expanded = self._expand(pred, length - 1)
            if dpll_satisfiable(expanded, self._oracle):
                return True
        return False

    def satisfiable_conjunction(self, literals):
        from repro.smt.literals import conjunction_of

        return self.satisfiable(conjunction_of(literals))

    def _expand(self, pred, position):
        """Rewrite ``pred``, evaluated at ``position``, into per-position atoms."""
        if isinstance(pred, (T.PZero, T.POne)):
            return pred
        if isinstance(pred, T.PNot):
            return T.pnot(self._expand(pred.arg, position))
        if isinstance(pred, T.PAnd):
            return T.pand(self._expand(pred.left, position), self._expand(pred.right, position))
        if isinstance(pred, T.POr):
            return T.por(self._expand(pred.left, position), self._expand(pred.right, position))
        if isinstance(pred, T.PPrim):
            alpha = pred.alpha
            if isinstance(alpha, LtlLast):
                if position == 0:
                    return T.pzero()
                return self._expand(alpha.pred, position - 1)
            if isinstance(alpha, LtlSince):
                here_b = self._expand(alpha.pred_b, position)
                if position == 0:
                    return here_b
                here_a = self._expand(alpha.pred_a, position)
                earlier = self._expand(pred, position - 1)
                return T.por(here_b, T.pand(here_a, earlier))
            return T.pprim(_TaggedAtom(position, alpha))
        raise TypeError(f"not a Pred: {pred!r}")

    # -- derived operators ---------------------------------------------------------
    def last(self, pred):
        """``last(pred)`` — pred held in the previous state."""
        return T.pprim(LtlLast(pred))

    def since(self, pred_a, pred_b):
        """``since(a, b)`` — b held in the past and a has held since."""
        return T.pprim(LtlSince(pred_a, pred_b))

    def start(self):
        """``start`` — we are at the first state of the trace."""
        return T.pnot(self.last(T.pone()))

    def wlast(self, pred):
        """Weak last: true at the start of time, otherwise ``last(pred)``."""
        return T.pnot(self.last(T.pnot(pred)))

    def ever(self, pred):
        """``ev(a)`` / ♦a — a held at some point in the past (or now)."""
        return self.since(T.pone(), pred)

    def always(self, pred):
        """``always(a)`` / □a — a has held at every point so far."""
        return T.pnot(self.ever(T.pnot(pred)))

    def back_to(self, pred_a, pred_b):
        """``a B b`` — since(a, b) or a has held forever."""
        return T.por(self.since(pred_a, pred_b), self.always(pred_a))

    # -- parsing ------------------------------------------------------------------
    def parser_keywords(self):
        keywords = {
            "last": self._parse_unary(self.last),
            "wlast": self._parse_unary(self.wlast),
            "ev": self._parse_unary(self.ever),
            "eventually": self._parse_unary(self.ever),
            "always": self._parse_unary(self.always),
            "globally": self._parse_unary(self.always),
            "since": self._parse_binary(self.since),
            "backto": self._parse_binary(self.back_to),
            "start": lambda parser: self.start(),
        }
        keywords.update(self.inner.parser_keywords())
        return keywords

    def _parse_unary(self, build):
        def handler(parser):
            parser.expect_sym("(")
            start = parser.peek()
            term = parser.parse_expr()
            parser.expect_sym(")")
            return build(parser.expect_test(start, term))

        return handler

    def _parse_binary(self, build):
        def handler(parser):
            parser.expect_sym("(")
            first_start = parser.peek()
            first_term = parser.parse_expr()
            parser.expect_sym(",")
            second_start = parser.peek()
            second_term = parser.parse_expr()
            parser.expect_sym(")")
            return build(parser.expect_test(first_start, first_term),
                         parser.expect_test(second_start, second_term))

        return handler

    def parse_phrase(self, tokens):
        return self.inner.parse_phrase(tokens)

    def test_variables(self, alpha):
        if isinstance(alpha, (LtlLast, LtlSince)):
            return ()
        return self.inner.test_variables(alpha)

    def action_variables(self, pi):
        return self.inner.action_variables(pi)

    def describe(self):
        return f"ltlf({self.inner.describe()})"


def _mentions_temporal(pred):
    if isinstance(pred, T.PPrim):
        return isinstance(pred.alpha, (LtlLast, LtlSince))
    if isinstance(pred, T.PNot):
        return _mentions_temporal(pred.arg)
    if isinstance(pred, (T.PAnd, T.POr)):
        return _mentions_temporal(pred.left) or _mentions_temporal(pred.right)
    return False
