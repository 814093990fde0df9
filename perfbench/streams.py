"""Seeded request streams for the benchmark workloads, with known verdicts.

Every generated request carries the answer it must get, derived from how the
request was built (a KAT law, a fresh-action perturbation, a contradiction, a
planted dead statement, a loop whose bound fixes the post-condition) — never
from the engine's own output.  The same seed always yields the same stream.

A request is a ``Query(record, expect)``: ``record`` is the JSON request
without its ``id``; ``expect`` maps keys of the response's ``result`` object
to the values they must have.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple


class Query(NamedTuple):
    record: dict
    expect: dict


def check(response, expect):
    """True when a response answers ``ok`` with every expected result field."""
    if not response.get("ok"):
        return False
    result = response.get("result")
    if not isinstance(result, dict):
        return False
    return all(result.get(key) == value for key, value in expect.items())


def encode(query, request_id):
    """The request line sent on the wire for ``query`` under ``request_id``."""
    record = dict(query.record)
    record["id"] = request_id
    return json.dumps(record, sort_keys=True)


def _q(expect, **record):
    return Query(record, expect)


# ---------------------------------------------------------------------------
# query families (the paper's shapes), each with a true and a false variant
# ---------------------------------------------------------------------------
# ``t`` is a token unique to the query; it names the variables so that no
# two queries of a stream share a term and nothing replays from a cache.


def star_idempotence(rng, t, holds):
    """Fig. 9: ``inc(x)*; x > c == inc(x)*; inc(x)*; x > c``."""
    c = rng.randint(1, 9)
    left = f"inc(x{t})*; x{t} > {c}"
    right = f"inc(x{t})*; inc(x{t})*; x{t} > {c}"
    if not holds:
        right += f"; inc(z{t})"
    return _q({"equivalent": holds}, op="equiv", theory="incnat", left=left, right=right)


def commuting_counters(rng, t, holds, c):
    """Fig. 9: ``inc(x)*; x>c; inc(y)*; y>c == inc(x)*; inc(y)*; x>c; y>c``."""
    left = f"inc(x{t})*; x{t} > {c}; inc(y{t})*; y{t} > {c}"
    right = f"inc(x{t})*; inc(y{t})*; x{t} > {c}; y{t} > {c}"
    if not holds:
        right += f"; inc(z{t})"
    return _q({"equivalent": holds}, op="equiv", theory="incnat", left=left, right=right)


def parity_loop(rng, t, holds):
    """Fig. 9: ``x = F; (flip x; flip x)* == (flip x; flip x)*; x = F``."""
    start = "F" if holds else "T"
    return _q({"equivalent": holds}, op="equiv", theory="bitvec",
              left=f"p{t} = {start}; (flip p{t}; flip p{t})*",
              right=f"(flip p{t}; flip p{t})*; p{t} = F")


def population_count(rng, t, holds):
    """Fig. 9: population count over naturals x booleans."""
    y, a, b, c = f"y{t}", f"a{t}", f"b{t}", f"c{t}"
    left = (f"{y} < 1; {a} = T; inc({y}); (1 + {b} = T; inc({y})); "
            f"(1 + {c} = T; inc({y})); {y} > 2")
    right = f"{y} < 1; {a} = T; {b} = T; {c} = T; inc({y}); inc({y}); inc({y})"
    if not holds:
        right += f"; inc(z{t})"
    return _q({"equivalent": holds}, op="equiv", theory="product", left=left, right=right)


def nested_sums(rng, t, holds, n, m):
    """Section 5: ``ctx; (x1 = F; x1 := T + ... )*`` against its loop doubled."""
    context = "; ".join(f"c{t}_{i} = T" for i in range(n))
    loop = "(" + " + ".join(f"x{t}_{i} = F; x{t}_{i} := T" for i in range(m)) + ")*"
    right = f"{context}; {loop}; {loop}"
    if not holds:
        right += f"; flip z{t}"
    return _q({"equivalent": holds}, op="equiv", theory="bitvec",
              left=f"{context}; {loop}", right=right)


def netkat_forward(rng, t, holds):
    """``sw = a; sw <- b == sw = a; sw <- b; sw = b`` (a test that must hold)."""
    a = rng.randint(1, 60)
    b = a + rng.randint(1, 5)
    after = b if holds else b + 1
    return _q({"equivalent": holds}, op="equiv", theory="netkat",
              left=f"sw{t} = {a}; sw{t} <- {b}",
              right=f"sw{t} = {a}; sw{t} <- {b}; sw{t} = {after}")


def ltlf_counter(rng, t, holds):
    """LTLf model checking of a bounded counter: ``always(j <= n)`` holds."""
    n = rng.randint(2, 5)
    bound = n if holds else n - 1
    return _q({"holds": holds}, op="verify", theory="ltlf-nat",
              pre=f"start; j{t} < 1",
              program=f"while (j{t} < {n}) {{ inc(j{t}); }}",
              post=f"always(j{t} <= {bound})")


def ltlf_counter_equiv(rng, t, holds):
    """The same model check phrased as an equivalence (paper Section 2.4)."""
    n = rng.randint(2, 5)
    bound = n if holds else n - 1
    run = f"start; j{t} < 1; while (j{t} < {n}) do inc(j{t}) end"
    return _q({"equivalent": holds}, op="equiv", theory="ltlf-nat",
              left=run, right=f"{run}; always(j{t} <= {bound})")


def pnat_triple(rng, t, holds):
    """Fig. 1a (Pnat): ``{i < s} while (i < L) {inc i; inc j; inc j} {j > k}``."""
    start = rng.randint(1, 2)
    bound = rng.randint(3, 6)
    j_min = 2 * (bound - start + 1)
    post = j_min - 1 if holds else j_min
    return _q({"holds": holds}, op="verify", theory="incnat",
              pre=f"i{t} < {start}",
              program=f"while (i{t} < {bound}) {{ inc(i{t}); inc(j{t}); inc(j{t}); }}",
              post=f"j{t} > {post}")


def pset_triple(rng, t, holds, choice):
    """Fig. 1b (Pset): unbounded set membership after a filling loop.

    ``in(X, c)`` holds exactly for ``c < L``.  The sets preset fixes its
    variable names, so freshness comes from ``choice`` instead: a
    non-repeating draw from :func:`pset_choices`.
    """
    index, other, target, bound, member, pad = choice
    return _q({"holds": holds}, op="verify", theory="sets",
              pre=f"{index} < 1",
              program=f"{f'inc({other}); ' * pad}while ({index} < {bound}) "
                      f"{{ add({target}, {index}); inc({index}); }}",
              post=f"in({target}, {member})")


def pset_choices(rng, holds):
    """Endless seeded draws of distinct Pset parameters for one verdict."""
    choices = [
        (index, other, target, bound, member, pad)
        for index, other in (("i", "j"), ("j", "k"), ("k", "i"))
        for target in ("X", "Y")
        for bound in range(2, 6)
        for member in (range(bound) if holds else range(bound, bound + 21))
        for pad in range(6)
    ]
    while True:
        rng.shuffle(choices)
        yield from choices


def leq_law(rng, t, holds):
    """``p <= p + q``; adding a fresh action to the left breaks it."""
    p = f"x{t} > {rng.randint(0, 9)}; inc(x{t}); inc(y{t})"
    q = f"inc(w{t})"
    left = p if holds else f"{p} + inc(z{t})"
    return _q({"leq": holds}, op="leq", theory="incnat", left=left, right=f"{p} + {q}")


def inclusion_law(rng, t, holds):
    """Inclusion of a summand in a sum; a fresh action is never included."""
    p = f"x{t} > {rng.randint(0, 9)}; inc(x{t})"
    q = f"inc(y{t})*"
    left = p if holds else f"{p} + inc(z{t})"
    return _q({"includes": holds}, op="inclusion", theory="incnat",
              left=left, right=f"{q} + {p}")


def member_word(rng, t, holds):
    """A word of the right length is a trace of ``inc(x)*; x > c``."""
    c = rng.randint(0, 9)
    word = [f"inc(x{t})"] * rng.randint(1, 4)
    if not holds:
        word.append(f"inc(z{t})")
    return _q({"member": holds}, op="member", theory="incnat",
              term=f"inc(x{t})*; x{t} > {c}", word=word)


def norm_shape(rng, t, holds):
    """``p + p`` normalizes to one summand; ``b; ~b; p`` to none."""
    c = rng.randint(0, 9)
    p = f"x{t} > {c}; inc(x{t})"
    if holds:
        return _q({"summands": 1}, op="norm", theory="incnat", term=f"{p} + {p}")
    return _q({"summands": 0}, op="norm", theory="incnat",
              term=f"x{t} > {c}; ~(x{t} > {c}); inc(x{t})")


def sat_interval(rng, t, holds):
    """``x > c; ~(x > c + d)`` is satisfiable; the reversed bounds are not."""
    c, d = rng.randint(0, 20), rng.randint(1, 5)
    if holds:
        pred = f"x{t} > {c}; ~(x{t} > {c + d})"
    else:
        pred = f"x{t} > {c + d}; ~(x{t} > {c})"
    return _q({"satisfiable": holds}, op="sat", theory="incnat", pred=pred)


def sat_bits(rng, t, holds):
    """Bit-vector satisfiability: ``a = T; (b = T + ~(a = T))`` vs ``a = T; a = F``."""
    if holds:
        pred = f"a{t} = T; (b{t} = T + ~(a{t} = T))"
    else:
        pred = f"a{t} = T; a{t} = F"
    return _q({"satisfiable": holds}, op="sat", theory="bitvec", pred=pred)


def empty_contradiction(rng, t, holds):
    """``b; ~b; p`` is empty; ``b; p`` with satisfiable ``b`` is not."""
    c = rng.randint(0, 9)
    if holds:
        term = f"x{t} > {c}; ~(x{t} > {c}); inc(x{t})"
    else:
        term = f"x{t} > {c}; inc(x{t}); inc(y{t})"
    return _q({"empty": holds}, op="empty", theory="incnat", term=term)


def prog_equiv_branches(rng, t, holds):
    """``if (b) {p} else {q}`` equals ``if (~b) {q} else {p}``; an extra
    statement on one side breaks it."""
    c = rng.randint(0, 9)
    left = f"if (x{t} > {c}) {{ inc(x{t}); }} else {{ inc(y{t}); }}"
    right = f"if (~(x{t} > {c})) {{ inc(y{t}); }} else {{ inc(x{t}); }}"
    if not holds:
        right += f" inc(z{t});"
    return _q({"equivalent": holds}, op="prog_equiv", theory="incnat",
              left=left, right=right)


def dead_code_planted(rng, t, holds):
    """Planted dead statements behind a contradicting ``assume``/``if``."""
    c = rng.randint(2, 9)
    planted = rng.randint(1, 3) if holds else 0
    body = " ".join(f"inc(b{t});" for _ in range(max(planted, 1)))
    guard = f"x{t} < {c}" if holds else f"x{t} > {c + 5}"
    return _q({"dead": planted, "total": 3 + max(planted, 1)}, op="dead_code",
              theory="incnat",
              program=f"assume x{t} > {c}; if ({guard}) {{ {body} }} inc(y{t});")


# ---------------------------------------------------------------------------
# cold_mix: distinct queries, every op, fixed family proportions per round
# ---------------------------------------------------------------------------
# One round is a fixed multiset of (family, parameters) slots; a seed shuffles
# each round and draws the light constants.  Heavy parameters cycle with the
# round number, so every seed sees the same cost mix and the tail percentiles
# stay comparable across seeds.

_COLD_LIGHT = (
    (star_idempotence, 2), (parity_loop, 2), (population_count, 2),
    (netkat_forward, 2), (ltlf_counter, 2), (ltlf_counter_equiv, 2),
    (pnat_triple, 2), (pset_triple, 2), (leq_law, 2), (inclusion_law, 2),
    (member_word, 2), (norm_shape, 2), (sat_interval, 2), (sat_bits, 2),
    (empty_contradiction, 2), (prog_equiv_branches, 2), (dead_code_planted, 2),
)
_COUNTER_CONSTANTS = (1, 2, 3)
_NESTED_SIZES = ((2, 2), (3, 2), (4, 3), (5, 3), (6, 3))


def _cold_round(rng, round_index, pset):
    slots = []
    for family, count in _COLD_LIGHT:
        for k in range(count):
            holds = k % 2 == 0
            params = (next(pset[holds]),) if family is pset_triple else ()
            slots.append((family, (holds,), params))
    c = _COUNTER_CONSTANTS[round_index % len(_COUNTER_CONSTANTS)]
    slots.append((commuting_counters, (True,), (c,)))
    slots.append((commuting_counters, (False,), (_COUNTER_CONSTANTS[0],)))
    n, m = _NESTED_SIZES[round_index % len(_NESTED_SIZES)]
    slots.append((nested_sums, (round_index % 4 != 3,), (n, m)))
    rng.shuffle(slots)
    return slots


def cold_mix(seed, prefix="q"):
    """Endless stream of distinct queries over every op and six theories."""
    rng = random.Random(f"cold_mix:{seed}")
    pset = {holds: pset_choices(random.Random(f"cold_mix:{seed}:{holds}"), holds)
            for holds in (True, False)}
    index = 0
    round_index = 0
    while True:
        for family, flags, params in _cold_round(rng, round_index, pset):
            yield family(rng, f"{prefix}{index}", *flags, *params)
            index += 1
        round_index += 1


# ---------------------------------------------------------------------------
# warm_replay / routed_replay: a fixed warm set, replayed in seeded shuffles
# ---------------------------------------------------------------------------

WARM_SET_SIZE = 240


def warm_set(seed):
    """A few hundred distinct queries covering every op and a spread of sizes.

    The heavy Section 5 shapes appear at several sizes so request text
    lengths range from a few dozen bytes to a few hundred.
    """
    rng = random.Random(f"warm_set:{seed}")
    pset = {holds: pset_choices(random.Random(f"warm_set:{seed}:{holds}"), holds)
            for holds in (True, False)}
    queries = []
    index = 0
    while len(queries) < WARM_SET_SIZE:
        for family, count in _COLD_LIGHT:
            for k in range(count):
                holds = k % 2 == 0
                params = (next(pset[holds]),) if family is pset_triple else ()
                queries.append(family(rng, f"w{index}", holds, *params))
                index += 1
        n, m = ((2, 2), (3, 2), (4, 2), (6, 2), (8, 2))[index % 5]
        queries.append(nested_sums(rng, f"w{index}", True, n, m))
        queries.append(commuting_counters(rng, f"w{index + 1}", True, 1 + index % 2))
        index += 2
    return queries[:WARM_SET_SIZE]


def replay_order(seed, size):
    """Endless seeded shuffles of ``range(size)``, one full pass at a time."""
    rng = random.Random(f"replay:{seed}")
    order = list(range(size))
    while True:
        rng.shuffle(order)
        yield from order


def warm_replay(seed):
    """``(warm_set, endless replay stream)`` for the replay workloads."""
    queries = warm_set(seed)
    return queries, (queries[i] for i in replay_order(seed, len(queries)))


# ---------------------------------------------------------------------------
# edit_recheck: IDE-shaped revisions of Fig. 1 programs in straight-line chains
# ---------------------------------------------------------------------------


_STEPS = (1, 2, 1, 3)
EDIT_STATEMENTS = (10, 26)


class _Document:
    """One program under edit: a Fig. 1a/1b loop inside a straight-line chain.

    The chain holds live statements (``inc(v);`` / ``v += n;``) and one
    planted dead block: an ``assume v > c`` followed by an ``if (v < c)``
    whose body can never run.  Every verdict follows from the construction:
    the loop and the live increments of ``j`` fix the post-condition bound,
    the planted body is exactly the dead code, an edit to live code changes
    the program's traces and an edit inside the dead block does not.
    """

    MIN_STATEMENTS, MAX_STATEMENTS = EDIT_STATEMENTS

    def __init__(self, rng, tag, kind, target):
        self.rng = rng
        self.kind = kind
        if kind == "nat":
            self.theory = "incnat"
            self.i, self.j = f"i{tag}", f"j{tag}"
            self.live_vars = (f"a{tag}", f"b{tag}", self.j)
        else:
            self.theory = "sets"
            self.i, self.j = "i", "j"
            self.live_vars = ("j", "k")
        self.guard_var = self.live_vars[0]
        self.bound = rng.randint(3, 5)
        self.dead_constant = rng.randint(2, 9)
        self.dead_body = rng.randint(1, 2)
        self.live = []  # [var, step] per live statement, in program order
        while self.statement_count() < target:
            k = len(self.live)
            self.live.append([self.live_vars[k % len(self.live_vars)], _STEPS[k % len(_STEPS)]])
        self.loop_at = self.dead_at = len(self.live)
        self.edits = rng.randrange(4)
        self.holds = rng.random() < 0.5

    def statement_count(self):
        loop = 4 if self.kind == "nat" else 3
        return len(self.live) + loop + 2 + self.dead_body

    def _loop(self):
        if self.kind == "nat":
            return (f"while ({self.i} < {self.bound}) {{ inc({self.i}); "
                    f"inc({self.j}); inc({self.j}); }}")
        return f"while (i < {self.bound}) {{ add(X, i); inc(i); }}"

    def _dead_block(self):
        guard, constant = self.guard_var, self.dead_constant
        body = " ".join(f"inc({guard});" for _ in range(self.dead_body))
        return f"assume {guard} > {constant}; if ({guard} < {constant}) {{ {body} }}"

    def render(self):
        lines = [f"inc({var});" if step == 1 else f"{var} += {step};"
                 for var, step in self.live]
        # Insert the later position first so both indices stay valid.
        for at, text in sorted(((self.loop_at, self._loop()),
                                (self.dead_at, self._dead_block())), reverse=True):
            lines.insert(min(at, len(lines)), text)
        return "\n".join(lines) + "\n"

    def triple(self, holds):
        """``(pre, post)`` of a verify request whose verdict is ``holds``."""
        if self.kind == "nat":
            j_min = 2 * self.bound + sum(step for var, step in self.live if var == self.j)
            post = j_min - 1 if holds else j_min
            return f"{self.i} < 1", f"{self.j} > {post}"
        member = self.bound - 1 if holds else self.bound
        return "i < 1", f"in(X, {member})"

    def edit(self):
        """Apply the document's next edit; returns True when the program's
        traces are unchanged (the edit touched only the dead block).

        Edits cycle through four kinds — toggle a dead statement, change a
        live constant, insert a live statement, delete one — so a document
        stays within one statement of its starting length; the seed picks
        where each edit lands and where the cycle starts.
        """
        rng = self.rng
        kind = self.edits % 4
        self.edits += 1
        if kind == 0:
            self.dead_body = 3 - self.dead_body
            return True
        if kind == 1:
            steps = [item for item in self.live if item[1] > 1]
            if steps and self.edits % 8 < 4:
                item = rng.choice(steps)
                item[1] = 5 - item[1]
            else:
                self.bound = 3 + (self.bound - 2) % 3
            return False
        if kind == 2:
            position = rng.randint(0, len(self.live))
            self.live.insert(position, [rng.choice(self.live_vars), 1])
            delta = 1
        else:
            position = rng.randrange(len(self.live))
            del self.live[position]
            delta = -1
        if position < self.loop_at:
            self.loop_at += delta
        if position < self.dead_at:
            self.dead_at += delta
        return False


EDIT_DOCUMENTS = 12
DEAD_CODE_EVERY = 5


def edit_recheck(seed, prefix="e"):
    """Endless IDE stream: per revision ``verify`` + ``prog_equiv`` (previous
    vs current), and ``dead_code`` on every :data:`DEAD_CODE_EVERY`-th
    revision of each document (so every document, long or short, is swept
    equally often and the latency tail has the same make-up for every seed)."""
    rng = random.Random(f"edit_recheck:{seed}")
    # Starting lengths are spread evenly over the range and stay within one
    # statement of it, so every seed sees the same size mix.
    span = _Document.MAX_STATEMENTS - _Document.MIN_STATEMENTS
    documents = [
        _Document(rng, f"{prefix}{d}", "set" if d % 6 == 2 else "nat",
                  _Document.MIN_STATEMENTS + span * d // (EDIT_DOCUMENTS - 1))
        for d in range(EDIT_DOCUMENTS)
    ]
    while True:
        # Each cycle edits every document once, in a seeded order.
        for document in rng.sample(documents, len(documents)):
            before = document.render()
            unchanged = document.edit()
            after = document.render()
            document.holds = not document.holds
            pre, post = document.triple(document.holds)
            yield Query({"op": "verify", "theory": document.theory, "pre": pre,
                         "program": after, "post": post}, {"holds": document.holds})
            yield Query({"op": "prog_equiv", "theory": document.theory,
                         "left": before, "right": after}, {"equivalent": unchanged})
            if document.edits % DEAD_CODE_EVERY == 0:
                yield Query({"op": "dead_code", "theory": document.theory,
                             "program": after},
                            {"dead": document.dead_body,
                             "total": document.statement_count()})
