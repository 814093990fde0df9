"""The ``KMT`` facade: a client theory plus everything the framework derives.

This is the Python analogue of the paper's ``module K = KAT(IncNat)`` /
``module D = Decide(P)`` instantiation: construct a :class:`KMT` from a
:class:`~repro.core.theory.Theory` and you get

* a parser for the theory's concrete syntax,
* the tracing semantics (evaluation of terms on states),
* pushback-based normalization,
* the equivalence / ordering / emptiness decision procedures, and
* the weakest-precondition operation on arbitrary embedded predicates that
  higher-order theories (LTLf, Temporal NetKAT) need — this is the recursive
  knot the OCaml implementation ties with recursive modules.
"""

from __future__ import annotations

from repro.core import parser as parser_mod
from repro.core import semantics, terms
from repro.core.decision import EquivalenceChecker
from repro.core.pushback import DEFAULT_BUDGET, Normalizer
from repro.utils.errors import KmtError


class KMT:
    """A Kleene algebra modulo the given client theory."""

    def __init__(self, theory, budget=DEFAULT_BUDGET, caches=None):
        self.theory = theory
        self.budget = budget
        self.checker = EquivalenceChecker(theory, budget=budget, caches=caches)
        self.caches = self.checker.caches
        theory.attach(self)

    def __repr__(self):
        return f"KMT({self.theory.describe()})"

    # ------------------------------------------------------------------
    # parsing / printing
    # ------------------------------------------------------------------
    def parse(self, text):
        """Parse a term in the theory's concrete syntax."""
        return parser_mod.parse_term(text, self.theory)

    def parse_pred(self, text):
        """Parse a predicate in the theory's concrete syntax."""
        return parser_mod.parse_pred(text, self.theory)

    def pretty(self, term_or_pred):
        from repro.core.pretty import pretty_pred, pretty_term

        if isinstance(term_or_pred, terms.Pred):
            return pretty_pred(term_or_pred)
        return pretty_term(term_or_pred)

    # ------------------------------------------------------------------
    # normalization
    # ------------------------------------------------------------------
    def normalize(self, term):
        """Normalize a term into Σ aᵢ·mᵢ form."""
        return Normalizer(self.theory, budget=self.budget).normalize(term)

    def normalize_with_stats(self, term):
        normalizer = Normalizer(self.theory, budget=self.budget)
        nf = normalizer.normalize(term)
        return nf, normalizer.stats

    # ------------------------------------------------------------------
    # decision procedures
    # ------------------------------------------------------------------
    def equivalent(self, p, q):
        """Decide ``p == q``.  Accepts terms or source strings."""
        p, q = self._coerce_term(p), self._coerce_term(q)
        return self.checker.equivalent(p, q)

    def check_equivalent(self, p, q):
        """Decide ``p == q`` and return the detailed result (counterexample etc.)."""
        p, q = self._coerce_term(p), self._coerce_term(q)
        return self.checker.check_equivalent(p, q)

    def less_or_equal(self, p, q):
        """Decide ``p <= q`` (i.e. ``p + q == q``)."""
        p, q = self._coerce_term(p), self._coerce_term(q)
        return self.checker.less_or_equal(p, q)

    def includes(self, p, q):
        """Decide ``p <= q`` by per-cell compiled-automaton containment."""
        return self.check_inclusion(p, q).includes

    def check_inclusion(self, p, q):
        """Like :meth:`includes` but returns the detailed
        :class:`~repro.core.decision.InclusionResult` (witness word etc.)."""
        p, q = self._coerce_term(p), self._coerce_term(q)
        return self.checker.check_inclusion(p, q)

    def member(self, term, word):
        """Is ``word`` a possible action sequence of ``term``?

        ``word`` is a sequence of primitive actions — raw theory actions,
        ``TPrim`` terms, or source strings (a string element may spell several
        actions separated by ``;``, e.g. ``"inc(x); inc(y)"``); a single
        string is accepted as a one-element word.  Decided on the compiled
        automata of the term's normal form (:meth:`EquivalenceChecker.member_nf`).
        """
        term = self._coerce_term(term)
        return self.checker.member_nf(self.checker.normalize(term), self._coerce_word(word))

    def member_many(self, term, words):
        """Batched membership: judge many words against one term in one call.

        Each element of ``words`` follows :meth:`member`'s word forms.
        Returns a list of bools aligned with ``words``; the term is
        normalized once and every summand automaton judges all
        still-undecided words together
        (:meth:`EquivalenceChecker.member_nf_many`).
        """
        term = self._coerce_term(term)
        nf = self.checker.normalize(term)
        return self.checker.member_nf_many(
            nf, [self._coerce_word(word) for word in words]
        )

    def is_empty(self, p):
        """Decide whether ``p`` denotes no traces (``p == 0``)."""
        return self.checker.is_empty(self._coerce_term(p))

    def partition(self, ps):
        """Partition terms into equivalence classes (list of index lists)."""
        return self.checker.partition([self._coerce_term(p) for p in ps])

    def satisfiable(self, pred):
        """Decide satisfiability of a predicate over the theory's tests."""
        if isinstance(pred, str):
            pred = self.parse_pred(pred)
        return self.theory.satisfiable(pred)

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def run(self, term, state=None, star_bound=semantics.DEFAULT_STAR_BOUND):
        """Run a term from a state (default: the theory's initial state)."""
        term = self._coerce_term(term)
        if state is None:
            state = self.theory.initial_state()
        return semantics.run(term, state, self.theory, star_bound)

    def output_states(self, term, state=None, star_bound=semantics.DEFAULT_STAR_BOUND):
        term = self._coerce_term(term)
        if state is None:
            state = self.theory.initial_state()
        return semantics.output_states(term, state, self.theory, star_bound)

    def accepts(self, term, state=None, star_bound=semantics.DEFAULT_STAR_BOUND):
        """True iff running the term from the state produces at least one trace."""
        return bool(self.run(term, state, star_bound))

    def eval_pred(self, pred, trace):
        """Evaluate an arbitrary embedded predicate on a trace.

        Used by higher-order theories whose primitive tests wrap predicates of
        the full language (e.g. LTLf's ``last a`` / ``a since b``).
        """
        return semantics.eval_pred(pred, trace, self.theory)

    # ------------------------------------------------------------------
    # weakest preconditions on arbitrary predicates (recursive knot)
    # ------------------------------------------------------------------
    def weakest_precondition(self, pi, pred):
        """Return a predicate ``a'`` with ``pi ; pred == a' ; pi``.

        ``pi`` is a theory primitive action and ``pred`` an arbitrary
        predicate of the derived language.  Implemented with the PB• relation;
        by Lemma B.27 pushing a test back through a *primitive* action leaves
        the action unchanged, so the result can be read off as the sum of the
        pushed-back tests.
        """
        normalizer = Normalizer(self.theory, budget=self.budget)
        nf = normalizer.pb_test_action(terms.tprim(pi), pred)
        action = terms.tprim(pi)
        tests = []
        for test, m in nf.sorted_pairs():
            if m != action:
                raise KmtError(
                    "weakest_precondition: pushback through a primitive action "
                    f"produced a non-primitive action {m!r}"
                )
            tests.append(test)
        return terms.por_all(tests)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _coerce_term(self, p):
        if isinstance(p, str):
            return self.parse(p)
        if isinstance(p, terms.Pred):
            return terms.ttest(p)
        if isinstance(p, terms.Term):
            return p
        raise TypeError(f"expected a Term, Pred or source string, got {p!r}")

    def _coerce_word(self, word, parse=None):
        """Normalize a word argument into a tuple of theory primitive actions.

        See :meth:`member` for the accepted element forms; string elements go
        through ``parse`` (default :meth:`parse`).  Raises ``KmtError`` when
        an element is not (a sequence of) primitive actions — tests, sums and
        stars have no place in a word.
        """
        if isinstance(word, str):
            word = [word]
        if parse is None:
            parse = self.parse
        pis = []
        for element in word:
            if isinstance(element, str):
                element = parse(element)
            if isinstance(element, terms.Term):
                self._flatten_word_term(element, pis)
            else:
                pis.append(element)  # a raw theory primitive action
        return tuple(pis)

    def _flatten_word_term(self, term, out):
        if isinstance(term, terms.TPrim):
            out.append(term.pi)
        elif isinstance(term, terms.TSeq):
            self._flatten_word_term(term.left, out)
            self._flatten_word_term(term.right, out)
        elif isinstance(term, terms.TTest) and isinstance(term.pred, terms.POne):
            pass  # "1" spells the empty word
        else:
            raise KmtError(
                f"word elements must be primitive actions (got {term!r}); "
                "tests, sums and stars cannot appear in a word"
            )
