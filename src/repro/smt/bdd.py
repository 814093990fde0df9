"""A small reduced ordered binary decision diagram (ROBDD) package.

Built for the guard-signature search (:func:`repro.smt.dpll.enumerate_signatures`)
after Bryant (1986) and the decision diagrams of Smolka et al., "A Fast
Compiler for NetKAT" (ICFP 2015).  Nodes are small integers, ``FALSE`` and
``TRUE`` the terminals.  A unique table keyed on ``(level, low, high)`` gives
every function exactly one node, and ``not``, ``and`` and ``restrict`` are
memoized on node ids.  A diagram is built for one search and dies with it,
so it needs no lock and no eviction.
"""

from __future__ import annotations

from repro.core import terms as T

FALSE = 0
TRUE = 1


class BDD:
    """A unique table plus memoized operations over a fixed variable order.

    ``atoms`` lists the variables, top level first.  The terminals sit at
    level ``len(atoms)``, below every variable, so the top level of a set of
    nodes is a plain ``min``.
    """

    __slots__ = ("atoms", "_level_of", "level", "low", "high",
                 "_unique", "_not", "_and", "_restrict")

    def __init__(self, atoms):
        self.atoms = list(atoms)
        self._level_of = {alpha: index for index, alpha in enumerate(self.atoms)}
        self.level = [len(self.atoms)] * 2
        self.low = [FALSE, TRUE]
        self.high = [FALSE, TRUE]
        self._unique, self._not, self._and, self._restrict = {}, {}, {}, {}

    def node(self, level, low, high):
        """The unique node testing ``level`` with the given children."""
        if low == high:
            return low
        found = self._unique.get((level, low, high))
        if found is None:
            found = self._unique[(level, low, high)] = len(self.level)
            self.level.append(level)
            self.low.append(low)
            self.high.append(high)
        return found

    def negate(self, u):
        if u <= TRUE:
            return TRUE - u
        found = self._not.get(u)
        if found is None:
            found = self._not[u] = self.node(
                self.level[u], self.negate(self.low[u]), self.negate(self.high[u]))
        return found

    def conj(self, u, v):
        if u == FALSE or v == FALSE:
            return FALSE
        if u == TRUE or u == v:
            return v
        if v == TRUE:
            return u
        key = (u, v) if u < v else (v, u)
        found = self._and.get(key)
        if found is None:
            top = min(self.level[u], self.level[v])
            u0, u1 = (self.low[u], self.high[u]) if self.level[u] == top else (u, u)
            v0, v1 = (self.low[v], self.high[v]) if self.level[v] == top else (v, v)
            found = self._and[key] = self.node(top, self.conj(u0, v0), self.conj(u1, v1))
        return found

    def disj(self, u, v):
        return self.negate(self.conj(self.negate(u), self.negate(v)))

    def restrict(self, u, level, value):
        """``u`` with the variable at ``level`` fixed to ``value``."""
        if self.level[u] > level:
            return u  # a terminal, or every test below ``level``
        if self.level[u] == level:
            return self.high[u] if value else self.low[u]
        key = (u, level, value)
        found = self._restrict.get(key)
        if found is None:
            found = self._restrict[key] = self.node(
                self.level[u], self.restrict(self.low[u], level, value),
                self.restrict(self.high[u], level, value))
        return found

    def unit(self, u):
        """``(level, value)`` when ``u`` is exactly one literal, else None."""
        if u > TRUE and self.low[u] <= TRUE and self.high[u] <= TRUE:
            return self.level[u], self.high[u] == TRUE
        return None

    def from_pred(self, pred, memo):
        """The node of a predicate; ``memo`` maps predicates already built."""
        found = memo.get(pred)
        if found is None:
            if isinstance(pred, (T.POne, T.PZero)):
                found = TRUE if isinstance(pred, T.POne) else FALSE
            elif isinstance(pred, T.PPrim):
                found = self.node(self._level_of[pred.alpha], FALSE, TRUE)
            elif isinstance(pred, T.PNot):
                found = self.negate(self.from_pred(pred.arg, memo))
            elif isinstance(pred, T.PAnd):
                found = self.conj(self.from_pred(pred.left, memo),
                                  self.from_pred(pred.right, memo))
            elif isinstance(pred, T.POr):
                found = self.disj(self.from_pred(pred.left, memo),
                                  self.from_pred(pred.right, memo))
            else:
                raise TypeError(f"not a Pred: {pred!r}")
            memo[pred] = found
        return found
