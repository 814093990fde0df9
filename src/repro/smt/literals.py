"""Helpers for manipulating predicates as Boolean formulas over theory literals."""

from __future__ import annotations

from repro.core import terms as T


def atoms_of(*preds):
    """The distinct primitive tests occurring in the predicates, in sorted order."""
    atoms = set().union(*map(T.primitive_tests_of_pred, preds))
    wrapped = [T.pprim(a) for a in atoms]
    wrapped.sort(key=lambda p: p.sort_key())
    return [p.alpha for p in wrapped]


def substitute(pred, alpha, value):
    """Replace primitive test ``alpha`` with the constant ``value`` (a bool).

    The substitution is performed with the smart constructors, so the result
    is simplified on the fly (e.g. substituting the only atom of ``a ; ~a``
    collapses the predicate to ``0``).
    """
    if isinstance(pred, (T.PZero, T.POne)):
        return pred
    if isinstance(pred, T.PPrim):
        if pred.alpha == alpha:
            return T.pone() if value else T.pzero()
        return pred
    if isinstance(pred, T.PNot):
        return T.pnot(substitute(pred.arg, alpha, value))
    if isinstance(pred, T.PAnd):
        return T.pand(substitute(pred.left, alpha, value), substitute(pred.right, alpha, value))
    if isinstance(pred, T.POr):
        return T.por(substitute(pred.left, alpha, value), substitute(pred.right, alpha, value))
    raise TypeError(f"not a Pred: {pred!r}")


def evaluate(pred, assignment):
    """Evaluate a predicate under a total assignment ``{alpha: bool}``."""
    if isinstance(pred, T.PZero):
        return False
    if isinstance(pred, T.POne):
        return True
    if isinstance(pred, T.PPrim):
        return bool(assignment[pred.alpha])
    if isinstance(pred, T.PNot):
        return not evaluate(pred.arg, assignment)
    if isinstance(pred, T.PAnd):
        return evaluate(pred.left, assignment) and evaluate(pred.right, assignment)
    if isinstance(pred, T.POr):
        return evaluate(pred.left, assignment) or evaluate(pred.right, assignment)
    raise TypeError(f"not a Pred: {pred!r}")


def conjunction_of(literals):
    """Build the predicate conjunction of ``(alpha, polarity)`` literals."""
    out = T.pone()
    for alpha, polarity in literals:
        lit = T.pprim(alpha) if polarity else T.pnot(T.pprim(alpha))
        out = T.pand(out, lit)
    return out
