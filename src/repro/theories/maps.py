"""Unbounded maps over key/value expression theories (paper Sections 1.1, 2.3).

The map theory is higher order in the same way as the set theory: it wraps an
inner theory providing the expressions used as keys and values.

Primitive tests:   ``X[ck] = cv``    — does map ``X`` hold value ``cv`` at key ``ck``?
Primitive actions: ``X[ek] := ev``   — write the value of ``ev`` at the key ``ek``

(``ck``/``cv`` are constants, ``ek``/``ev`` arbitrary inner expressions),
plus all of the inner theory's primitives.

The paper displays the pushback axiom

    X[e1] := e2 ; X[c1] = c2   ==   (e1 = c1 ; e2 = c2  +  X[c1] = c2) ; X[e1] := e2

which is sound as an *inequality* (right-to-left) but over-approximates as a
weakest precondition: if ``X[c1] = c2`` held before the write and the write
lands on key ``c1`` with a different value, the test no longer holds
afterwards.  Because this reproduction checks its theories against an
executable tracing semantics, we implement the *precise* weakest
precondition::

    X[e1] := e2 ; X[c1] = c2   WP   e1 = c1 ; e2 = c2   +   ~(e1 = c1) ; X[c1] = c2

which still satisfies the framework's ordering obligations (both summands are
built from subterms of the original test).  This is a deliberate deviation
from the axiom as the paper displays it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import terms as T
from repro.core.parser import match_phrase, phrase_text
from repro.core.theory import Theory
from repro.utils.errors import ParseError, TheoryError
from repro.utils.frozendict import FrozenDict


@dataclass(frozen=True)
class MapEq:
    """The primitive test ``map_var[key_const] = value_const``."""

    map_var: str
    key: object
    value: object

    def __str__(self):
        return f"{self.map_var}[{self.key}] = {self.value}"


@dataclass(frozen=True)
class MapWrite:
    """The primitive action ``map_var[key_expr] := value_expr``."""

    map_var: str
    key_expr: object
    value_expr: object

    def __str__(self):
        return f"{self.map_var}[{self.key_expr}] := {self.value_expr}"


class MapAdapter:
    """How the map theory encodes key/value equality in the inner theory.

    The methods mirror :class:`repro.theories.sets.ExpressionAdapter` but come
    in key and value flavours because the paper's motivating example (Pmap)
    uses natural-number keys and Boolean values.
    """

    def key_eq_pred(self, key_expr, key_const):
        raise NotImplementedError

    def value_eq_pred(self, value_expr, value_const):
        raise NotImplementedError

    def key_eq_subterms(self, key_const):
        raise NotImplementedError

    def value_eq_subterms(self, value_const):
        raise NotImplementedError

    def eval_key(self, key_expr, inner_state):
        raise NotImplementedError

    def eval_value(self, value_expr, inner_state):
        raise NotImplementedError

    def parse_key(self, text):
        raise NotImplementedError

    def parse_value(self, text):
        raise NotImplementedError


class NatBoolMapAdapter(MapAdapter):
    """Keys are IncNat expressions, values are BitVec expressions.

    The inner theory is expected to be ``Product(IncNatTheory, BitVecTheory)``
    (or anything that can evaluate both kinds of state as a pair ``(nat_state,
    bool_state)``); this matches the Pmap example from Fig. 1(c) where
    ``odd[i] := parity``.
    """

    def __init__(self, incnat, bitvec, key_variables=(), value_variables=()):
        self.incnat = incnat
        self.bitvec = bitvec
        self.key_variables = tuple(key_variables)
        self.value_variables = tuple(value_variables)

    # keys ------------------------------------------------------------------
    def key_eq_pred(self, key_expr, key_const):
        key_const = int(key_const)
        if isinstance(key_expr, int):
            return T.pone() if key_expr == key_const else T.pzero()
        return self.incnat.eq(key_expr, key_const)

    def key_eq_subterms(self, key_const):
        return [self.key_eq_pred(v, key_const) for v in self.key_variables]

    def eval_key(self, key_expr, inner_state):
        nat_state = inner_state[0]
        if isinstance(key_expr, int):
            return key_expr
        return nat_state.get(key_expr, 0)

    def parse_key(self, text):
        text = text.strip()
        return int(text) if text.isdigit() else text

    # values ----------------------------------------------------------------
    def value_eq_pred(self, value_expr, value_const):
        value_const = bool(value_const)
        if isinstance(value_expr, bool):
            return T.pone() if value_expr == value_const else T.pzero()
        base = self.bitvec.eq(value_expr, True)
        return base if value_const else T.pnot(base)

    def value_eq_subterms(self, value_const):
        return [self.value_eq_pred(v, value_const) for v in self.value_variables]

    def eval_value(self, value_expr, inner_state):
        bool_state = inner_state[1]
        if isinstance(value_expr, bool):
            return value_expr
        return bool(bool_state.get(value_expr, False))

    def parse_value(self, text):
        text = text.strip()
        if text in ("T", "tt", "True"):
            return True
        if text in ("F", "ff", "False"):
            return False
        return text


class MapTheory(Theory):
    """Unbounded maps from inner-theory keys to inner-theory values."""

    name = "map"

    def __init__(self, inner, adapter, map_variables=()):
        super().__init__()
        self.inner = inner
        self.adapter = adapter
        self.map_variables = tuple(map_variables)

    # -- recursive knot -------------------------------------------------------
    def attach(self, kmt):
        super().attach(kmt)
        self.inner.attach(kmt)

    # -- ownership ---------------------------------------------------------
    def owns_test(self, alpha):
        return isinstance(alpha, MapEq) or self.inner.owns_test(alpha)

    def owns_action(self, pi):
        return isinstance(pi, MapWrite) or self.inner.owns_action(pi)

    # -- semantics -----------------------------------------------------------
    def initial_state(self):
        maps = FrozenDict({v: FrozenDict() for v in self.map_variables})
        return (maps, self.inner.initial_state())

    def pred(self, alpha, trace):
        if isinstance(alpha, MapEq):
            maps = trace.last_state[0]
            mapping = maps.get(alpha.map_var, FrozenDict())
            return mapping.get(alpha.key) == alpha.value
        projected = trace.map_states(lambda s: s[1])
        return self.inner.pred(alpha, projected)

    def act(self, pi, state):
        maps, inner_state = state
        if isinstance(pi, MapWrite):
            key = self.adapter.eval_key(pi.key_expr, inner_state)
            value = self.adapter.eval_value(pi.value_expr, inner_state)
            mapping = maps.get(pi.map_var, FrozenDict())
            return (maps.set(pi.map_var, mapping.set(key, value)), inner_state)
        return (maps, self.inner.act(pi, inner_state))

    # -- pushback -------------------------------------------------------------
    def push_back(self, pi, alpha):
        map_action = isinstance(pi, MapWrite)
        map_test = isinstance(alpha, MapEq)
        if map_action and map_test:
            if pi.map_var != alpha.map_var:
                return [T.pprim(alpha)]
            key_hits = self.adapter.key_eq_pred(pi.key_expr, alpha.key)
            value_matches = self.adapter.value_eq_pred(pi.value_expr, alpha.value)
            overwrite = T.pand(key_hits, value_matches)
            untouched = T.pand(T.pnot(key_hits), T.pprim(alpha))
            return [overwrite, untouched]
        if map_action and not map_test:
            return [T.pprim(alpha)]
        if not map_action and map_test:
            return [T.pprim(alpha)]
        return self.inner.push_back(pi, alpha)

    def subterms(self, alpha):
        if isinstance(alpha, MapEq):
            extras = []
            extras.extend(self.adapter.key_eq_subterms(alpha.key))
            extras.extend(self.adapter.value_eq_subterms(alpha.value))
            return extras
        return self.inner.subterms(alpha)

    # -- satisfiability ---------------------------------------------------------
    def satisfiable_conjunction(self, literals):
        cells = {}
        inner_literals = []
        for alpha, polarity in literals:
            if isinstance(alpha, MapEq):
                key = (alpha.map_var, alpha.key)
                cells.setdefault(key, []).append((alpha.value, polarity))
            else:
                inner_literals.append((alpha, polarity))
        for _, constraints in cells.items():
            positive_values = {value for value, polarity in constraints if polarity}
            negative_values = {value for value, polarity in constraints if not polarity}
            if len(positive_values) > 1:
                return False  # one cell cannot hold two values at once
            if positive_values & negative_values:
                return False
            # With at most one required value and any set of excluded values,
            # the cell is realisable (maps can also be undefined at a key).
        if inner_literals and not self.inner.satisfiable_conjunction(inner_literals):
            return False
        return True

    # -- parsing ------------------------------------------------------------------
    def parse_phrase(self, tokens):
        matched = match_phrase(tokens, "WORD", "[", "NUM", "]", "=", "WORD")
        if matched is None:
            matched = match_phrase(tokens, "WORD", "[", "NUM", "]", "=", "NUM")
        if matched is not None:
            map_var, key, value = matched
            return (
                "test",
                MapEq(map_var, self.adapter.parse_key(str(key)), self.adapter.parse_value(str(value))),
            )
        for value_kind in ("WORD", "NUM"):
            for key_kind in ("WORD", "NUM"):
                matched = match_phrase(tokens, "WORD", "[", key_kind, "]", ":=", value_kind)
                if matched is not None:
                    map_var, key, value = matched
                    return (
                        "action",
                        MapWrite(
                            map_var,
                            self.adapter.parse_key(str(key)),
                            self.adapter.parse_value(str(value)),
                        ),
                    )
        try:
            return self.inner.parse_phrase(tokens)
        except ParseError:
            raise ParseError(f"map theory cannot parse phrase: {phrase_text(tokens)!r}")

    def parser_keywords(self):
        return self.inner.parser_keywords()

    # -- convenience builders -----------------------------------------------------
    def write(self, map_var, key_expr, value_expr):
        """The action ``map_var[key_expr] := value_expr`` as a term."""
        return T.tprim(MapWrite(map_var, key_expr, value_expr))

    def test_variables(self, alpha):
        if isinstance(alpha, MapEq):
            return (alpha.map_var,)
        return self.inner.test_variables(alpha)

    def action_variables(self, pi):
        if isinstance(pi, MapWrite):
            return (pi.map_var,)
        return self.inner.action_variables(pi)

    def describe(self):
        return f"map({self.inner.describe()})"
