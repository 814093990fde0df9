"""The maximal-subterm ordering on tests and normal forms (paper Fig. 6).

Normalization pushes tests to the front of a term; its termination measure is
the *maximal subterm ordering*: ``x <= y`` iff ``sub(mt(x))`` is a subset of
``sub(mt(y))`` where ``mt`` collects the maximal tests of a term and ``sub``
closes under (theory-provided) subterms.

We use Lemma B.12 (``sub(mt(A)) = union of sub(a) for a in seqs(A)``) to
compute ordering keys directly from ``seqs`` without first computing ``mt``;
``mt`` itself is still needed to pick which test to push back next (splitting,
Lemma 3.2).

Because ``sub`` can be moderately expensive for theories with large subterm
sets (IncNat's ``x > n`` has ``n+1`` subterms) the computations are memoized
per :class:`OrderingContext`; the pushback engine starts a fresh context for
each normalization run (``Normalizer.reset_stats``), so the tables never
outlive it.
"""

from __future__ import annotations

from repro.core import terms as T


class OrderingContext:
    """Memoized subterm/ordering computations for a fixed client theory."""

    def __init__(self, theory):
        self.theory = theory
        self._sub_cache = {}
        self._seqs_cache = {}

    # ------------------------------------------------------------------
    # seqs: split a test into its top-level conjuncts
    # ------------------------------------------------------------------
    def seqs(self, pred):
        """The set of sequenced factors of a test (Fig. 6 ``seqs``)."""
        cached = self._seqs_cache.get(pred)
        if cached is not None:
            return cached
        if isinstance(pred, T.PAnd):
            result = frozenset(self.seqs(pred.left) | self.seqs(pred.right))
        else:
            result = frozenset({pred})
        self._seqs_cache[pred] = result
        return result

    def seqs_of_set(self, preds):
        out = set()
        for p in preds:
            out |= self.seqs(p)
        return frozenset(out)

    # ------------------------------------------------------------------
    # sub: subterm closure
    # ------------------------------------------------------------------
    def sub(self, pred):
        """The subterm closure of a test (Fig. 6 ``sub``)."""
        cached = self._sub_cache.get(pred)
        if cached is not None:
            return cached
        zero = T.pzero()
        one = T.pone()
        if isinstance(pred, T.PZero):
            result = frozenset({zero})
        elif isinstance(pred, T.POne):
            result = frozenset({zero, one})
        elif isinstance(pred, T.PPrim):
            # The theory lists the predicates its pushback may produce from
            # this primitive; close over *their* subterms too (they may be
            # compound, e.g. the Set theory returns encoded equality tests).
            closure = set()
            for extra in self.theory.subterms(pred.alpha):
                closure |= self.sub(extra)
            result = frozenset({zero, one, pred}) | frozenset(closure)
        elif isinstance(pred, T.PNot):
            inner = self.sub(pred.arg)
            result = frozenset({zero, one}) | inner | frozenset(T.pnot(b) for b in inner)
        elif isinstance(pred, T.POr):
            result = frozenset({pred}) | self.sub(pred.left) | self.sub(pred.right)
        elif isinstance(pred, T.PAnd):
            result = frozenset({pred}) | self.sub(pred.left) | self.sub(pred.right)
        else:
            raise TypeError(f"not a Pred: {pred!r}")
        self._sub_cache[pred] = result
        return result

    # ------------------------------------------------------------------
    # mt: maximal tests
    # ------------------------------------------------------------------
    def mt(self, preds):
        """The maximal tests of a set of tests (Fig. 6 ``mt``).

        ``b`` is maximal iff it is not a subterm of any *other* factor.
        """
        factors = self.seqs_of_set(preds)
        maximal = set()
        for b in factors:
            dominated = False
            for c in factors:
                if c is b or c == b:
                    continue
                if b in self.sub(c):
                    dominated = True
                    break
            if not dominated:
                maximal.add(b)
        return frozenset(maximal)

    # ------------------------------------------------------------------
    # the ordering itself
    # ------------------------------------------------------------------
    def key(self, preds):
        """The ordering key ``sub(mt(preds))`` computed via Lemma B.12."""
        out = set()
        for factor in self.seqs_of_set(preds):
            out |= self.sub(factor)
        return frozenset(out)

    def leq(self, xs, ys):
        """``xs`` is no larger than ``ys`` in the maximal-subterm ordering."""
        return self.key(xs) <= self.key(ys)

    def lt(self, xs, ys):
        """``xs`` is strictly smaller than ``ys``."""
        kx = self.key(xs)
        ky = self.key(ys)
        return kx < ky

    def pred_leq(self, a, b):
        return self.leq({a}, {b})

    def pred_lt(self, a, b):
        return self.lt({a}, {b})

    # ------------------------------------------------------------------
    # deterministic choice among maximal tests
    # ------------------------------------------------------------------
    def pick_maximal(self, preds):
        """Pick one maximal test deterministically (largest sort key first).

        Any maximal test keeps normalization terminating (Theorem 3.5); the
        paper notes different choices may produce smaller or larger terms.  We
        pick the syntactically largest so theory-specific "big" tests (e.g.
        temporal operators) are eliminated early, which matches the OCaml
        implementation's behaviour on the worked examples.
        """
        candidates = self.mt(preds)
        if not candidates:
            return None
        return max(candidates, key=lambda p: p.sort_key())
