"""Normalization via pushback (paper Fig. 8, Section 3.3).

Normalization rewrites an arbitrary KMT term into a normal form
``Σ aᵢ·mᵢ`` (tests at the front, restricted actions behind) by repeatedly
*pushing tests back* through actions.  The engine below implements the five
mutually recursive relations of Fig. 8:

``PB•``  (:meth:`Normalizer.pb_test_action`)
    push a single test back through a restricted action;
``PBR``  (:meth:`Normalizer.pb_restricted`)
    push a whole normal form back through a restricted action;
``PBT``  (:meth:`Normalizer.pb_test`)
    push a single test back through a normal form;
``PBJ``  (:meth:`Normalizer.pb_join`)
    sequentially compose two normal forms;
``PB*``  (:meth:`Normalizer.pb_star`)
    compute the Kleene star of a normal form;

plus the top-level syntax-directed ``norm`` relation
(:meth:`Normalizer.normalize`).

The only theory-specific ingredient is the client's weakest-precondition
relation ``push_back(pi, alpha)`` (rule ``Prim``); everything else is generic.

Termination is Theorem 3.5 of the paper, but the ``Denest`` rule can blow up
doubly-exponentially (the Fig. 9 timeout row).  A configurable *step budget*
turns that blow-up into a :class:`NormalizationBudgetExceeded` exception.
Every call of a relation is one step, memo hits included: a PB• or PB* memo
hit costs one step, not the work it saves.
"""

from __future__ import annotations

from repro.core import terms as T
from repro.core.nnf import nnf
from repro.core.normalform import NormalForm
from repro.core.ordering import OrderingContext
from repro.utils.errors import KmtError, NormalizationBudgetExceeded, PushbackCycle

#: Default number of pushback steps before giving up.  Generous enough for all
#: the paper's benchmarks except the deliberately-diverging Fig. 9 row 7.
DEFAULT_BUDGET = 500_000


class NormalizationStats:
    """Counters describing one normalization run (used by benchmarks)."""

    def __init__(self):
        self.steps = 0
        self.prim_pushbacks = 0
        self.star_expansions = 0
        self.denests = 0
        self.max_normal_form_size = 0

    def as_dict(self):
        return {
            "steps": self.steps,
            "prim_pushbacks": self.prim_pushbacks,
            "star_expansions": self.star_expansions,
            "denests": self.denests,
            "max_normal_form_size": self.max_normal_form_size,
        }

    def __repr__(self):
        return f"NormalizationStats({self.as_dict()})"


class Normalizer:
    """Pushback-based normalization for one client theory."""

    #: How many pushback steps pass between two ``cancel`` checks.  Checking
    #: on every step would put an extra call in the hottest loop of the
    #: system; a power-of-two stride keeps the common case to one bit-and.
    CANCEL_STRIDE = 256

    def __init__(self, theory, budget=DEFAULT_BUDGET, cancel=None):
        self.theory = theory
        self.ctx = OrderingContext(theory)
        self.budget = budget
        #: Optional cooperative-cancellation hook: a callable invoked every
        #: :data:`CANCEL_STRIDE` steps that raises (typically
        #: :class:`~repro.utils.errors.DeadlineExceeded`) to abandon the run.
        #: Mutable — a long-lived session normalizer sets it per query.
        self.cancel = cancel
        self.stats = NormalizationStats()
        self._pb_cache = {}
        self._pb_star_cache = {}
        # Subproblems being computed right now: re-entering one is a cycle.
        self._pb_in_progress = set()
        self._star_in_progress = set()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def reset_stats(self):
        """Start a fresh stats window, budget and set of memos.

        A long-lived normalizer — the engine's per-session instance — calls
        this before each normalization, so the step budget applies per
        normalization rather than to the session's lifetime.  The memos
        (PB•, PB* and the ordering context's tables) are per normalization
        too: they start empty here and hold only the last run's entries, so
        the step budget bounds them; answers that outlive a query live in the
        session's LRU tables.  Returns the previous stats.
        """
        previous = self.stats
        self.stats = NormalizationStats()
        self.ctx = OrderingContext(self.theory)
        self._pb_cache = {}
        self._pb_star_cache = {}
        return previous

    def _tick(self):
        self.stats.steps += 1
        if self.budget is not None and self.stats.steps > self.budget:
            raise NormalizationBudgetExceeded(self.budget)
        if self.cancel is not None and self.stats.steps % self.CANCEL_STRIDE == 0:
            self.cancel()

    def _record(self, nf):
        if len(nf) > self.stats.max_normal_form_size:
            self.stats.max_normal_form_size = len(nf)
        return nf

    # ------------------------------------------------------------------
    # top-level norm relation
    # ------------------------------------------------------------------
    def normalize(self, term):
        """Normalize an arbitrary term (the ``norm`` relation of Fig. 8)."""
        self._tick()
        if isinstance(term, T.TTest):
            return self._record(NormalForm.of_test(term.pred))          # Pred
        if isinstance(term, T.TPrim):
            return self._record(NormalForm.of_action(term))             # Act
        if isinstance(term, T.TPlus):
            left = self.normalize(term.left)
            right = self.normalize(term.right)
            return self._record(left.union(right))                      # Par
        if isinstance(term, T.TSeq):
            left = self.normalize(term.left)
            right = self.normalize(term.right)
            return self._record(self.pb_join(left, right))              # Seq
        if isinstance(term, T.TStar):
            inner = self.normalize(term.arg)
            return self._record(self.pb_star(inner))                    # Star
        raise TypeError(f"not a Term: {term!r}")

    # ------------------------------------------------------------------
    # PBJ: sequential composition of normal forms
    # ------------------------------------------------------------------
    # The PBJ, PBR and PBT sums collect the pairs of their summands into one
    # set: every summand is a normal form already, so its pairs are canonical
    # and need no second pass.
    def pb_join(self, x, y):
        """``x · y  PBJ  z`` — compose two normal forms sequentially."""
        self._tick()
        out = set()
        y_pairs = y.sorted_pairs()
        for a_i, m_i in x.sorted_pairs():
            for b_j, n_j in y_pairs:
                pushed = self.pb_test_action(m_i, b_j)        # m_i · b_j PB• x_ij
                out |= pushed.seq_action(n_j).prefix_test(a_i).pairs
        return self._record(NormalForm._of_canonical(out))

    # ------------------------------------------------------------------
    # PBR: push a normal form back through a restricted action
    # ------------------------------------------------------------------
    def pb_restricted(self, m, x):
        """``m · x  PBR  y`` for a restricted action ``m`` and normal form ``x``."""
        self._tick()
        out = set()
        for a_i, n_i in x.sorted_pairs():
            pushed = self.pb_test_action(m, a_i)
            out |= pushed.seq_action(n_i).pairs
        return self._record(NormalForm._of_canonical(out))

    # ------------------------------------------------------------------
    # PBT: push a test back through a normal form
    # ------------------------------------------------------------------
    def pb_test(self, x, a):
        """``x · a  PBT  y`` for a normal form ``x`` and a test ``a``."""
        self._tick()
        out = set()
        for a_i, m_i in x.sorted_pairs():
            pushed = self.pb_test_action(m_i, a)
            out |= pushed.prefix_test(a_i).pairs
        return self._record(NormalForm._of_canonical(out))

    # ------------------------------------------------------------------
    # PB•: push a test back through a restricted action
    # ------------------------------------------------------------------
    def pb_test_action(self, m, a):
        """``m · a  PB•  y`` for a restricted action ``m`` and a test ``a``.

        Memoized on ``(m, a)`` for the current normalization; the step is
        ticked before the lookup, so a memo hit still costs one step.  A pair
        met again while it is still being computed raises
        :class:`~repro.utils.errors.PushbackCycle`.
        """
        self._tick()
        key = (m, a)
        result = self._pb_cache.get(key)
        if result is not None:
            return result
        if key in self._pb_in_progress:
            raise PushbackCycle("PB•", self.theory.name)
        self._pb_in_progress.add(key)
        try:
            result = self._pb_test_action_uncached(m, a)
        finally:
            self._pb_in_progress.discard(key)
        self._pb_cache[key] = result
        return result

    def _pb_test_action_uncached(self, m, a):
        # --- rules driven by the structure of the test -------------------
        if isinstance(a, T.PZero):
            result = NormalForm.zero()                                  # SeqZero
        elif isinstance(a, T.POne):
            result = self._nf_of_restricted(m)                          # SeqOne
        elif isinstance(a, T.PAnd):
            partial = self.pb_test_action(m, a.left)                    # SeqSeqTest
            result = self._record(self.pb_test(partial, a.right))
        elif isinstance(a, T.POr):
            left = self.pb_test_action(m, a.left)                       # SeqParTest
            right = self.pb_test_action(m, a.right)
            result = self._record(left.union(right))

        # a is now a primitive test or a negation.
        # --- rules driven by the structure of the action -----------------
        elif isinstance(m, T.TTest):
            if isinstance(m.pred, T.PZero):
                result = NormalForm.zero()
            elif isinstance(m.pred, T.POne):
                # 1 · a == a · 1
                result = self._record(NormalForm.of_test(a))
            else:
                raise KmtError(f"non-restricted action in pushback: {m!r}")
        elif isinstance(m, T.TSeq):
            inner = self.pb_test_action(m.right, a)                      # SeqSeqAction
            result = self._record(self.pb_restricted(m.left, inner))
        elif isinstance(m, T.TPlus):
            left = self.pb_test_action(m.left, a)                        # SeqParAction
            right = self.pb_test_action(m.right, a)
            result = self._record(left.union(right))
        elif isinstance(m, T.TStar):
            result = self._record(self._pb_test_through_star(m, a))
        elif isinstance(m, T.TPrim):
            result = self._record(self._pb_test_through_prim(m, a))
        else:
            raise TypeError(f"not a Term: {m!r}")
        return result

    def _nf_of_restricted(self, m):
        """The normal form ``1 · m`` of a restricted action (handles 0/1 tests)."""
        if isinstance(m, T.TTest):
            if isinstance(m.pred, T.PZero):
                return NormalForm.zero()
            if isinstance(m.pred, T.POne):
                return NormalForm.one()
            raise KmtError(f"non-restricted action: {m!r}")
        return NormalForm.of_action(m)

    def _pb_test_through_prim(self, m, a):
        """Rules ``Prim`` and ``PrimNeg``: the only theory-specific step.

        The PB• memo already answers a repeated ``(m, a)``, so each theory
        ``push_back`` runs once per normalization.
        """
        pi = m.pi
        if isinstance(a, T.PPrim):
            self.stats.prim_pushbacks += 1
            preds = list(self.theory.push_back(pi, a.alpha))
            for p in preds:
                if not isinstance(p, T.Pred):
                    raise KmtError(
                        f"theory {self.theory.name!r}.push_back must return Preds, got {p!r}"
                    )
            return NormalForm({(p, m) for p in preds})
        if isinstance(a, T.PNot):
            inner = self.pb_test_action(m, a.arg)
            # By Lemma B.27 every action in `inner` is the primitive `m` itself,
            # so the pushed-back test is the sum of the inner tests.
            summed = T.por_all(sorted((t for t, _ in inner), key=lambda p: p.sort_key()))
            negated = nnf(T.pnot(summed))
            return NormalForm({(negated, m)})
        raise KmtError(f"unexpected test shape in primitive pushback: {a!r}")

    def _pb_test_through_star(self, m, a):
        """Rules ``SeqStarSmaller`` and ``SeqStarInv``: push ``a`` through ``n*``."""
        n = m.arg
        x = self.pb_test_action(n, a)
        if self.ctx.lt(x.tests(), {a}):
            # SeqStarSmaller: n*·a == a + n*·x
            y = self.pb_restricted(m, x)
            return NormalForm.of_test(a).union(y)
        # SeqStarInv: split x around a, i.e. n·a == a·t + u.
        self.stats.star_expansions += 1
        if a in self.ctx.mt(x.tests()):
            t, u = x.split(a, self.ctx)
        else:
            # Degenerate case (x == a·0 + x); sound, and the ordering still
            # decreases because a does not occur in x at all.
            t, u = NormalForm.zero(), x
        xr = self.pb_restricted(m, u)        # n*·u  PBR  xr
        y = self.pb_star(t)                  # t*    PB*  y
        z = self.pb_join(xr, y)              # xr·y  PBJ  z
        return y.prefix_test(a).union(z)     # result: a·y + z

    # ------------------------------------------------------------------
    # PB*: Kleene star of a normal form
    # ------------------------------------------------------------------
    def pb_star(self, x):
        """``x*  PB*  y`` — hoist the tests of ``x`` out of a Kleene star."""
        self._tick()
        cached = self._pb_star_cache.get(x)
        if cached is not None:
            return cached
        if x in self._star_in_progress:
            # The theory violated its ordering obligations; fail loudly rather
            # than recurse forever.
            raise PushbackCycle("PB*", self.theory.name)
        self._star_in_progress.add(x)
        try:
            result = self._pb_star_uncached(x)
        finally:
            self._star_in_progress.discard(x)
        self._pb_star_cache[x] = result
        return self._record(result)

    def _pb_star_uncached(self, x):
        if x.is_vacuous():
            return NormalForm.one()                                       # StarZero

        # Shortcut: if every test is 1 the star is already a restricted action.
        if all(isinstance(test, T.POne) for test, _ in x.pairs):
            body = T.tplus_all(action for _, action in x.sorted_pairs())
            return NormalForm.of_action(T.tstar(body))

        pair_tests = frozenset(test for test, _ in x.pairs)
        a = self.ctx.pick_maximal(pair_tests)
        if a is None or isinstance(a, T.POne):
            body = x.to_term()
            if T.is_restricted(body):
                return NormalForm.of_action(T.tstar(body))
            raise KmtError(f"cannot find a maximal test to split {x!r}")

        x1, x2 = x.split(a, self.ctx)

        if x2.is_vacuous():
            # x == a·x1.  Push a through x1 first (w ≡ x1·a as a normal form)
            # and pick the branch by looking at the *pushed* tests: sliding
            # recurses on w, so its guard must be that w's tests sit strictly
            # below a — guarding on x1's tests (as an earlier revision did) is
            # unsound when pushback returns a unchanged (e.g. a test that
            # commutes with every action of x1), which made pb_star re-enter
            # on the same normal form and fail for terms like (b := T + a = T)*.
            w = self.pb_test(x1, a)
            if self.ctx.lt(w.tests(), {a}):
                # Slide: (a·x1)* == 1 + a·((x1·a pushed)* · x1)
                y_star = self.pb_star(w)
                z = self.pb_join(y_star, x1)
                return NormalForm.one().union(z.prefix_test(a))
            # Expand: split w around a, i.e. x1·a == a·t + u, and use
            # (a·x1)* == 1 + a·(t + u)*·x1.
            self.stats.star_expansions += 1
            if a in self.ctx.mt(w.tests()):
                t, u = w.split(a, self.ctx)
            else:
                t, u = NormalForm.zero(), w
            y = self.pb_star(t.union(u))
            z = self.pb_join(y, x1)
            return NormalForm.one().union(z.prefix_test(a))

        # Denest: (a·x1 + x2)* == x2'·((a·(x1·x2'))* ...) — Fig. 8 Denest rule.
        self.stats.denests += 1
        y2 = self.pb_star(x2)                      # x2*       PB*  y2
        x1p = self.pb_join(x1, y2)                 # x1·y2     PBJ  x1p
        z = self.pb_star(x1p.prefix_test(a))       # (a·x1p)*  PB*  z
        return self.pb_join(y2, z)                 # y2·z      PBJ  result


# ---------------------------------------------------------------------------
# module-level convenience wrappers
# ---------------------------------------------------------------------------


def normalize(term, theory, budget=DEFAULT_BUDGET):
    """Normalize ``term`` with a fresh :class:`Normalizer`; return the normal form."""
    return Normalizer(theory, budget=budget).normalize(term)


def normalize_with_stats(term, theory, budget=DEFAULT_BUDGET):
    """Normalize and also return the :class:`NormalizationStats` of the run."""
    normalizer = Normalizer(theory, budget=budget)
    nf = normalizer.normalize(term)
    return nf, normalizer.stats
