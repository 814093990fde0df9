"""The KAT term language: predicates and actions (paper Fig. 5).

Predicates (tests) form a Boolean algebra::

    a, b ::= 0 | 1 | ~a | a + b | a ; b | alpha        (alpha: theory test)

Actions form a Kleene algebra with the Boolean algebra embedded::

    p, q ::= a | p + q | p ; q | p* | pi               (pi: theory action)

Nodes are immutable and *hash consed*: structurally equal terms are the same
Python object, which makes the set-heavy normalization procedure fast and lets
smart constructors rewrite common identities at construction time (the first
optimization described in Section 4.1 of the paper).

Theory primitives (``alpha`` / ``pi``) are arbitrary hashable objects supplied
by client theories; the core never inspects them beyond equality, hashing and
the callbacks on the owning :class:`~repro.core.theory.Theory`.
"""

from __future__ import annotations

import weakref

# ---------------------------------------------------------------------------
# configuration (ablation hooks)
# ---------------------------------------------------------------------------


class TermConfig:
    """Global switches for the term layer.

    ``smart_constructors`` controls whether the algebraic rewrites (``p;1 = p``,
    ``a+a = a``, ``(p*)* = p*`` ...) are applied at construction time.  The
    ablation benchmark disables them to measure their effect.
    """

    def __init__(self):
        self.smart_constructors = True


CONFIG = TermConfig()


class smart_constructors_disabled:
    """Context manager that temporarily disables smart-constructor rewrites."""

    def __enter__(self):
        self._saved = CONFIG.smart_constructors
        CONFIG.smart_constructors = False
        return self

    def __exit__(self, exc_type, exc, tb):
        CONFIG.smart_constructors = self._saved
        return False


#: Structural key -> the one live node with that structure.  The table holds
#: its nodes weakly: a node lives only as long as something else (a caller, a
#: memo entry, a parent node) holds it, so memory follows what is still in use
#: rather than every term ever built.
_INTERN_TABLE = weakref.WeakValueDictionary()


def clear_intern_table():
    """Forget every interned node; for tests only.

    Nodes still held elsewhere stay alive, but an equal node built afterwards
    is a new object.  The table is weak, so nothing needs clearing to bound
    memory.
    """
    _INTERN_TABLE.clear()


def _intern(node):
    key = (node.__class__, *node._key())
    existing = _INTERN_TABLE.get(key)
    if existing is not None:
        return existing
    _INTERN_TABLE[key] = node
    return node


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


class Pred:
    """Base class for KAT predicates (tests)."""

    __slots__ = ("_hash", "size", "_sort_key", "__weakref__")

    def _key(self):
        raise NotImplementedError

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.__class__.__name__, self._key()))
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return False
        return self._key() == other._key()

    def __ne__(self, other):
        return not self.__eq__(other)

    def __repr__(self):
        return self.pretty()

    def pretty(self):
        raise NotImplementedError

    def sort_key(self):
        """A deterministic total-order key (size first, then syntax).

        Computed once per node: the key only depends on the node's structure.
        """
        key = self._sort_key
        if key is None:
            key = self._sort_key = (self.size, self.pretty())
        return key

    # Convenience operator overloads so examples/tests read naturally.
    def __add__(self, other):
        if isinstance(other, Pred):
            return por(self, other)
        if isinstance(other, Term):
            return tplus(ttest(self), other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Pred):
            return pand(self, other)
        if isinstance(other, Term):
            return tseq(ttest(self), other)
        return NotImplemented

    def __invert__(self):
        return pnot(self)

    def as_term(self):
        """Embed this predicate into the action language."""
        return ttest(self)


class PZero(Pred):
    """The impossible test ``0`` (``drop`` / ``false``)."""

    __slots__ = ()

    def __init__(self):
        self._hash = self._sort_key = None
        self.size = 1

    def _key(self):
        return ()

    def pretty(self):
        return "false"


class POne(Pred):
    """The trivially-true test ``1`` (``skip`` / ``true``)."""

    __slots__ = ()

    def __init__(self):
        self._hash = self._sort_key = None
        self.size = 1

    def _key(self):
        return ()

    def pretty(self):
        return "true"


class PPrim(Pred):
    """A theory-supplied primitive test ``alpha``."""

    __slots__ = ("alpha",)

    def __init__(self, alpha):
        self._hash = self._sort_key = None
        self.alpha = alpha
        self.size = 1

    def _key(self):
        return (self.alpha,)

    def pretty(self):
        return str(self.alpha)


class PNot(Pred):
    """Negation ``~a``."""

    __slots__ = ("arg",)

    def __init__(self, arg):
        self._hash = self._sort_key = None
        self.arg = arg
        self.size = arg.size + 1

    def _key(self):
        return (self.arg,)

    def pretty(self):
        return f"~({self.arg.pretty()})"


class PAnd(Pred):
    """Conjunction ``a ; b`` (sequencing of tests).

    ``_canonical`` caches :func:`repro.core.normalform.canonicalize_test` of
    this node; a guard that is already canonical holds a sentinel there rather
    than itself, so the slot never makes a reference cycle.
    """

    __slots__ = ("left", "right", "_canonical")

    def __init__(self, left, right):
        self._hash = self._sort_key = self._canonical = None
        self.left = left
        self.right = right
        self.size = left.size + right.size + 1

    def _key(self):
        return (self.left, self.right)

    def pretty(self):
        return f"({self.left.pretty()};{self.right.pretty()})"


class POr(Pred):
    """Disjunction ``a + b``."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self._hash = self._sort_key = None
        self.left = left
        self.right = right
        self.size = left.size + right.size + 1

    def _key(self):
        return (self.left, self.right)

    def pretty(self):
        return f"({self.left.pretty()} + {self.right.pretty()})"


PRED_ZERO = _intern(PZero())
PRED_ONE = _intern(POne())


def pzero():
    """The predicate ``0``."""
    return PRED_ZERO


def pone():
    """The predicate ``1``."""
    return PRED_ONE


def pprim(alpha):
    """Wrap a theory primitive test."""
    return _intern(PPrim(alpha))


def pnot(a):
    """Smart constructor for negation.

    Rewrites ``~0 = 1``, ``~1 = 0`` and ``~~a = a``.
    """
    if not isinstance(a, Pred):
        raise TypeError(f"pnot expects a Pred, got {a!r}")
    if CONFIG.smart_constructors:
        if a is PRED_ZERO or isinstance(a, PZero):
            return PRED_ONE
        if a is PRED_ONE or isinstance(a, POne):
            return PRED_ZERO
        if isinstance(a, PNot):
            return a.arg
    return _intern(PNot(a))


def pand(a, b):
    """Smart constructor for conjunction.

    Rewrites the unit/annihilator/idempotence laws
    ``1;a = a``, ``a;1 = a``, ``0;a = 0``, ``a;0 = 0``, ``a;a = a`` and the
    contradiction ``a;~a = 0``.
    """
    if not isinstance(a, Pred) or not isinstance(b, Pred):
        raise TypeError(f"pand expects Preds, got {a!r}, {b!r}")
    if CONFIG.smart_constructors:
        if isinstance(a, PZero) or isinstance(b, PZero):
            return PRED_ZERO
        if isinstance(a, POne):
            return b
        if isinstance(b, POne):
            return a
        if a == b:
            return a
        if isinstance(a, PNot) and a.arg == b:
            return PRED_ZERO
        if isinstance(b, PNot) and b.arg == a:
            return PRED_ZERO
    return _intern(PAnd(a, b))


def por(a, b):
    """Smart constructor for disjunction.

    Rewrites ``0+a = a``, ``a+0 = a``, ``1+a = 1``, ``a+1 = 1``, ``a+a = a``
    and the excluded middle ``a+~a = 1``.
    """
    if not isinstance(a, Pred) or not isinstance(b, Pred):
        raise TypeError(f"por expects Preds, got {a!r}, {b!r}")
    if CONFIG.smart_constructors:
        if isinstance(a, POne) or isinstance(b, POne):
            return PRED_ONE
        if isinstance(a, PZero):
            return b
        if isinstance(b, PZero):
            return a
        if a == b:
            return a
        if isinstance(a, PNot) and a.arg == b:
            return PRED_ONE
        if isinstance(b, PNot) and b.arg == a:
            return PRED_ONE
    return _intern(POr(a, b))


def pand_all(preds):
    """Conjunction of an iterable of predicates (``1`` when empty)."""
    result = PRED_ONE
    for p in preds:
        result = pand(result, p)
    return result


def por_all(preds):
    """Disjunction of an iterable of predicates (``0`` when empty)."""
    result = PRED_ZERO
    for p in preds:
        result = por(result, p)
    return result


# ---------------------------------------------------------------------------
# actions (terms)
# ---------------------------------------------------------------------------


class Term:
    """Base class for KAT actions.

    ``restricted`` is set at construction from the children's flags: true iff
    the term contains no tests other than ``0`` and ``1`` (see
    :func:`is_restricted`).
    """

    __slots__ = ("_hash", "size", "_sort_key", "restricted", "__weakref__")

    def _key(self):
        raise NotImplementedError

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.__class__.__name__, self._key()))
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return False
        return self._key() == other._key()

    def __ne__(self, other):
        return not self.__eq__(other)

    def __repr__(self):
        return self.pretty()

    def pretty(self):
        raise NotImplementedError

    def sort_key(self):
        """A deterministic total-order key (size first, then syntax), computed once."""
        key = self._sort_key
        if key is None:
            key = self._sort_key = (self.size, self.pretty())
        return key

    # Operator overloads mirroring the paper's syntax.
    def __add__(self, other):
        if isinstance(other, Term):
            return tplus(self, other)
        if isinstance(other, Pred):
            return tplus(self, ttest(other))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Term):
            return tseq(self, other)
        if isinstance(other, Pred):
            return tseq(self, ttest(other))
        return NotImplemented

    def star(self):
        return tstar(self)


class TTest(Term):
    """An embedded predicate."""

    __slots__ = ("pred",)

    def __init__(self, pred):
        self._hash = self._sort_key = None
        self.pred = pred
        self.size = pred.size
        self.restricted = isinstance(pred, (PZero, POne))

    def _key(self):
        return (self.pred,)

    def pretty(self):
        return self.pred.pretty()


class TPrim(Term):
    """A theory-supplied primitive action ``pi``."""

    __slots__ = ("pi",)

    def __init__(self, pi):
        self._hash = self._sort_key = None
        self.pi = pi
        self.size = 1
        self.restricted = True

    def _key(self):
        return (self.pi,)

    def pretty(self):
        return str(self.pi)


class TPlus(Term):
    """Parallel composition (choice) ``p + q``."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self._hash = self._sort_key = None
        self.left = left
        self.right = right
        self.size = left.size + right.size + 1
        self.restricted = left.restricted and right.restricted

    def _key(self):
        return (self.left, self.right)

    def pretty(self):
        return f"({self.left.pretty()} + {self.right.pretty()})"


class TSeq(Term):
    """Sequential composition ``p ; q``."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self._hash = self._sort_key = None
        self.left = left
        self.right = right
        self.size = left.size + right.size + 1
        self.restricted = left.restricted and right.restricted

    def _key(self):
        return (self.left, self.right)

    def pretty(self):
        return f"({self.left.pretty()};{self.right.pretty()})"


class TStar(Term):
    """Kleene star ``p*``."""

    __slots__ = ("arg",)

    def __init__(self, arg):
        self._hash = self._sort_key = None
        self.arg = arg
        self.size = arg.size + 1
        self.restricted = arg.restricted

    def _key(self):
        return (self.arg,)

    def pretty(self):
        return f"({self.arg.pretty()})*"


TERM_ZERO = _intern(TTest(PRED_ZERO))
TERM_ONE = _intern(TTest(PRED_ONE))


def tzero():
    """The action ``0`` (drop)."""
    return TERM_ZERO


def tone():
    """The action ``1`` (skip)."""
    return TERM_ONE


def ttest(pred):
    """Embed a predicate into the action language."""
    if not isinstance(pred, Pred):
        raise TypeError(f"ttest expects a Pred, got {pred!r}")
    if pred is PRED_ZERO:
        return TERM_ZERO
    if pred is PRED_ONE:
        return TERM_ONE
    return _intern(TTest(pred))


def tprim(pi):
    """Wrap a theory primitive action."""
    return _intern(TPrim(pi))


def tplus(p, q):
    """Smart constructor for choice.

    Rewrites ``0+p = p``, ``p+0 = p`` and ``p+p = p``; merges adjacent
    embedded tests with the predicate-level ``+``.
    """
    if not isinstance(p, Term) or not isinstance(q, Term):
        raise TypeError(f"tplus expects Terms, got {p!r}, {q!r}")
    if CONFIG.smart_constructors:
        if p is TERM_ZERO or (isinstance(p, TTest) and isinstance(p.pred, PZero)):
            return q
        if q is TERM_ZERO or (isinstance(q, TTest) and isinstance(q.pred, PZero)):
            return p
        if p == q:
            return p
        if isinstance(p, TTest) and isinstance(q, TTest):
            return ttest(por(p.pred, q.pred))
    return _intern(TPlus(p, q))


def tseq(p, q):
    """Smart constructor for sequencing.

    Rewrites ``1;p = p``, ``p;1 = p``, ``0;p = 0``, ``p;0 = 0``; merges
    adjacent embedded tests with the predicate-level ``;``.
    """
    if not isinstance(p, Term) or not isinstance(q, Term):
        raise TypeError(f"tseq expects Terms, got {p!r}, {q!r}")
    if CONFIG.smart_constructors:
        if isinstance(p, TTest) and isinstance(p.pred, PZero):
            return TERM_ZERO
        if isinstance(q, TTest) and isinstance(q.pred, PZero):
            return TERM_ZERO
        if isinstance(p, TTest) and isinstance(p.pred, POne):
            return q
        if isinstance(q, TTest) and isinstance(q.pred, POne):
            return p
        if isinstance(p, TTest) and isinstance(q, TTest):
            return ttest(pand(p.pred, q.pred))
    return _intern(TSeq(p, q))


def tstar(p):
    """Smart constructor for Kleene star.

    Rewrites ``0* = 1``, ``1* = 1``, ``a* = 1`` for embedded tests ``a`` and
    ``(p*)* = p*``.
    """
    if not isinstance(p, Term):
        raise TypeError(f"tstar expects a Term, got {p!r}")
    if CONFIG.smart_constructors:
        if isinstance(p, TTest):
            # Tests are idempotent and below 1, so a* = 1 for any test a.
            return TERM_ONE
        if isinstance(p, TStar):
            return p
    return _intern(TStar(p))


def tplus_all(terms):
    """Choice over an iterable of terms (``0`` when empty)."""
    result = TERM_ZERO
    for t in terms:
        result = tplus(result, t)
    return result


def tseq_all(terms):
    """Sequence over an iterable of terms (``1`` when empty)."""
    result = TERM_ONE
    for t in terms:
        result = tseq(result, t)
    return result


def tif(cond, then_branch, else_branch):
    """``if b then p else q`` as the KAT term ``b;p + ~b;q`` (paper Section 1.1)."""
    return tplus(tseq(ttest(cond), then_branch), tseq(ttest(pnot(cond)), else_branch))


def twhile(cond, body):
    """``while b do p`` as the KAT term ``(b;p)*;~b`` (paper Section 1.1)."""
    return tseq(tstar(tseq(ttest(cond), body)), ttest(pnot(cond)))


# ---------------------------------------------------------------------------
# queries over terms
# ---------------------------------------------------------------------------


def is_restricted(term):
    """True iff ``term`` contains no tests other than ``0`` and ``1``.

    Restricted actions (the set ``T_RA`` of the paper, Section 3.3.1) are the
    action parts of normal forms; their denotations are regular languages over
    the primitive-action alphabet.
    """
    if not isinstance(term, Term):
        raise TypeError(f"not a Term: {term!r}")
    return term.restricted


def primitive_actions(term):
    """The set of theory primitive actions occurring in ``term``."""
    out = set()
    _collect_actions(term, out)
    return out


def _collect_actions(term, out):
    if isinstance(term, TPrim):
        out.add(term.pi)
    elif isinstance(term, (TPlus, TSeq)):
        _collect_actions(term.left, out)
        _collect_actions(term.right, out)
    elif isinstance(term, TStar):
        _collect_actions(term.arg, out)
    elif isinstance(term, TTest):
        pass
    else:
        raise TypeError(f"not a Term: {term!r}")


def primitive_tests_of_pred(pred):
    """The set of theory primitive tests occurring in a predicate."""
    out = set()
    _collect_pred_prims(pred, out)
    return out


def _collect_pred_prims(pred, out):
    if isinstance(pred, PPrim):
        out.add(pred.alpha)
    elif isinstance(pred, PNot):
        _collect_pred_prims(pred.arg, out)
    elif isinstance(pred, (PAnd, POr)):
        _collect_pred_prims(pred.left, out)
        _collect_pred_prims(pred.right, out)
    elif isinstance(pred, (PZero, POne)):
        pass
    else:
        raise TypeError(f"not a Pred: {pred!r}")


def primitive_tests_of_term(term):
    """The set of theory primitive tests occurring anywhere in a term."""
    out = set()
    _collect_term_prims(term, out)
    return out


def _collect_term_prims(term, out):
    if isinstance(term, TTest):
        _collect_pred_prims(term.pred, out)
    elif isinstance(term, TPrim):
        pass
    elif isinstance(term, (TPlus, TSeq)):
        _collect_term_prims(term.left, out)
        _collect_term_prims(term.right, out)
    elif isinstance(term, TStar):
        _collect_term_prims(term.arg, out)
    else:
        raise TypeError(f"not a Term: {term!r}")


def pred_of_term(term):
    """Return the predicate of an embedded test, or ``None`` otherwise."""
    if isinstance(term, TTest):
        return term.pred
    return None
