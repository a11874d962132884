"""Request templates with verdicts fixed by construction, and the three
seeded workloads built from them.

Every template is a label-permuted family: its placeholders ``{a}``,
``{b}``, ... are replaced by distinct labels, and the verdict holds for
every choice of distinct labels (trees carry one label per node over an
infinite alphabet).  ``reason`` says in one line why.  The expected
answers are never taken from the engines; ``tests/test_templates.py``
checks every positive expectation ("not contained", "satisfiable", "not
equivalent") by finding a witness tree with the independent
``ReferenceEvaluator``, and every negative one by finding none on small
trees.

A workload is a list of *rounds*.  A round holds each latency class in a
fixed proportion, shuffled by the seed, so every seed and every whole
number of rounds has the same mix and the percentiles fall inside one
class's band (see ``Workload.classes``).
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field

__all__ = ["TEMPLATES", "WORKLOADS", "Plan", "Request", "Template",
           "Workload", "build"]


@dataclass(frozen=True)
class Template:
    name: str
    kind: str  # "contains" | "satisfiable" | "equivalent"
    lhs: str  # ``expr`` of a satisfiability problem, else ``alpha``
    rhs: str | None  # ``beta``; None for satisfiability
    expected: bool  # contained / satisfiable / equivalent
    klass: str  # the latency class the template belongs to
    reason: str

    @property
    def arity(self) -> int:
        text = self.lhs + (self.rhs or "")
        return sum(1 for name in "abcd" if "{" + name + "}" in text)

    def record(self, labels: tuple[str, ...], **extra) -> dict:
        names = dict(zip("abcd", labels))
        if self.kind == "satisfiable":
            record = {"kind": self.kind, "expr": self.lhs.format(**names)}
        else:
            record = {"kind": self.kind, "alpha": self.lhs.format(**names),
                      "beta": self.rhs.format(**names)}
        record.update(extra)
        return record


def _t(name, kind, lhs, rhs, expected, klass, reason) -> Template:
    return Template(name, kind, lhs, rhs, expected, klass, reason)


_CHAIN = "down[{a}][<down[{b}]>]/down[{b}][<down[{c}]/down>]/down[{c}]"
_CHAIN4 = (_CHAIN + "[<down[{d}]>]/down[{d}][<down[{a}][<down>]>]"
           "/down[{a}]")

TEMPLATES: dict[str, Template] = {t.name: t for t in [
    # -- positive downward tree patterns: the ``patterns`` engine ---------
    _t("pat.drop_filters", "contains", "down[{a}]/down[{b}]", "down/down",
       True, "pattern", "dropping filters only weakens a path"),
    _t("pat.add_filter", "contains", "down/down", "down[{a}]/down",
       False, "pattern", "the middle node may carry a label other than a"),
    _t("pat.other_label", "contains", "down[{a}]", "down[{b}]",
       False, "pattern", "a child labelled a is not labelled b"),
    _t("pat.proper_desc", "contains", "down/down*[{a}]", "down*[{a}]",
       True, "pattern", "a proper descendant is a descendant-or-self"),
    _t("pat.self_pair", "contains", "down*[{a}]", "down/down*[{a}]",
       False, "pattern", "the pair (x, x) with x labelled a is only on "
                         "the left"),
    _t("pat.grandchild", "contains", "down[{a}]/down[{b}]/down[{c}]",
       "down*[{c}]", True, "pattern",
       "a great-grandchild labelled c is a descendant labelled c"),
    _t("pat.exists_child", "contains", "down[{a}][<down[{b}]>]",
       "down[<down>]", True, "pattern",
       "a child with a b-child has some child"),
    _t("pat.need_label", "contains", "down[<down[{a}]>]", "down[{a}]",
       False, "pattern", "a child with an a-child need not be labelled a"),
    _t("pat.chain", "contains", _CHAIN, "down/down/down[{c}]", True,
       "pattern", "the chain's third step is a c-labelled great-grandchild"),
    _t("pat.chain_short", "contains", "down[{a}]/down[{b}]", _CHAIN, False,
       "pattern", "a two-step path is never a three-step path"),
    _t("pat.chain4", "contains", _CHAIN4, "down*[{d}]/down[{a}]", True,
       "pattern", "the long chain ends in an a-child of a d-node"),
    _t("pat.chain4_short", "contains", "down[{a}]/down*[{d}]", _CHAIN4,
       False, "pattern", "an a-child's d-labelled descendant-or-self is "
                         "fewer than five steps away"),
    _t("pat.chain4_steps", "contains", _CHAIN4,
       "down[{a}]/down[{b}]/down/down[{d}]/down[{a}]", True, "pattern",
       "the long chain's steps carry the labels a, b, c, d, a"),
    # -- node satisfiability ---------------------------------------------
    _t("sat.two_labels", "satisfiable", "{a} and {b}", None, False,
       "boolean", "a node carries exactly one label"),
    _t("sat.either", "satisfiable", "{a} or {b}", None, True, "boolean",
       "a node labelled a"),
    _t("sat.a_not_b", "satisfiable", "{a} and not {b}", None, True,
       "boolean", "a node labelled a is not labelled b"),
    _t("sat.neither", "satisfiable", "not {a} and not {b}", None, True,
       "boolean", "the alphabet is infinite: a node with a third label"),
    _t("sat.both_children", "satisfiable", "<down[{a}]> and <down[{b}]>",
       None, True, "boolean", "a node with an a-child and a b-child"),
    _t("sat.child_no_child", "satisfiable", "<down[{a}]> and not <down>",
       None, False, "boolean", "an a-child is a child"),
    _t("sat.excluded", "satisfiable",
       "({a} or {b}) and not {a} and not {b}", None, False, "boolean",
       "a or b contradicts neither a nor b"),
    # -- small ``intersect`` satisfiability: ``expspace`` ------------------
    _t("cap.same_child", "satisfiable", "<down[{a}] intersect down[{b}]>",
       None, False, "intersect", "one child cannot carry two labels"),
    _t("cap.grandchild", "satisfiable",
       "<down*[{a}] intersect down/down[{a}]>", None, True, "intersect",
       "an a-labelled grandchild is a descendant-or-self"),
    _t("cap.two_grandchildren", "satisfiable",
       "<down/down[{a}] intersect down/down[{b}]>", None, False,
       "intersect", "one grandchild cannot carry two labels"),
    _t("cap.child_desc", "satisfiable",
       "<down[{a}] intersect down/down*>", None, True, "intersect",
       "every child is a proper descendant"),
    # -- equivalence of patterns: ``bidirectional`` over ``patterns`` -------
    _t("eq.star_star", "equivalent", "down*/down*[{a}]", "down*[{a}]", True,
       "equivalence", "descendant-or-self is transitive and reflexive"),
    _t("eq.filter", "equivalent", "down", "down[{a}]", False,
       "equivalence", "a child need not be labelled a"),
    _t("eq.trivial_filter", "equivalent", "down[{a}]/down",
       "down[{a}]/down[<down*>]", True, "equivalence",
       "<down*> holds at every node"),
    _t("eq.proper", "equivalent", "down/down*[{a}]", "down*[{a}]", False,
       "equivalence", "(x, x) with x labelled a is only on the right"),
    # -- union / intersect containments: ``expspace`` ----------------------
    _t("exp.union_left", "contains", "down[{a}] union down[{b}]", "down",
       True, "expspace", "both members are children"),
    _t("exp.union_right", "contains", "down", "down[{a}] union down[{b}]",
       False, "expspace", "a child with a third label"),
    _t("exp.cap_self", "contains", "down[{a}] intersect down/down*[{a}]",
       "down[{a}]", True, "expspace", "an intersection is contained in "
                                      "each member"),
    _t("exp.union_desc", "contains", "down/down[{a}] union down[{b}]",
       "down*", True, "expspace", "every member is a descendant"),
    _t("exp.cap_grand", "contains",
       "down/down[{a}] intersect down*[{a}]", "down[{b}]", False,
       "expspace", "an a-labelled grandchild is not a b-labelled child"),
    # -- upward and sibling axes: ``automata`` ------------------------------
    _t("up.drop_filter", "contains", "up[{a}]", "up", True, "automata",
       "dropping a filter only weakens a path"),
    _t("up.siblings", "contains", "up/down[{a}]",
       "left*[{a}] union right*[{a}]", True, "automata",
       "an a-child of my parent is an a-labelled sibling or me"),
    _t("up.root", "contains", "left*[{a}] union right*[{a}]",
       "up/down[{a}]", False, "automata",
       "an a-labelled root is its own sibling-or-self but has no parent"),
    _t("up.right_plus", "contains", "right[{a}]", "right/right*", True,
       "automata", "the next sibling is a following sibling"),
    _t("up.left_sibling", "contains", "left[{a}]", "up/down", True,
       "automata", "a left sibling is a child of my parent"),
    _t("up.parent_sibling", "satisfiable", "<up[{a}]> and <left[{b}]>",
       None, True, "automata",
       "a node with an a-parent and a b-labelled left sibling"),
    _t("up.first_child", "satisfiable", "<right[{a}]> and not <left>",
       None, True, "automata",
       "a first child whose next sibling is labelled a"),
    _t("up.grandparent", "satisfiable", "<up/up[{a}]> and not <up>", None,
       False, "automata", "a node with a grandparent has a parent"),
    # -- Boolean decomposition case: falls through to ``bounded`` -----------
    _t("bnd.except", "contains", "down*[{a}]", "down* except down*[{b}]",
       True, "bounded", "a node labelled a is not labelled b"),
]}


@dataclass(frozen=True)
class Request:
    record: dict
    template: Template

    @property
    def body(self) -> bytes:
        return json.dumps(self.record, sort_keys=True).encode("utf-8")


#: The fewest timed requests in a run: at least ten lie beyond p95.
MIN_REQUESTS = 200


@dataclass(frozen=True)
class Workload:
    """How one workload draws its requests.

    ``classes`` gives the number of requests of each latency class in one
    round; each class cycles through its templates in a fixed order, so
    the seed changes the labels and the order within a round, never the
    mix.  ``copies`` is the number of label sets each template is drawn
    with in the replayed workloads (``None``: fresh labels for every
    request).  ``rate`` is the nominal number of timed requests per second
    of ``--seconds``, at least :data:`MIN_REQUESTS`.  ``trace_rounds`` is
    the length of the traced run.
    """

    name: str
    why: str
    cache: bool
    classes: dict[str, int]
    copies: int | None
    rate: float
    trace_rounds: int
    timeout: float | None = None

    @property
    def round_size(self) -> int:
        return sum(self.classes.values())

    def rounds_for(self, seconds: float) -> int:
        wanted = max(MIN_REQUESTS, round(seconds * self.rate))
        return -(-wanted // self.round_size)


WORKLOADS: dict[str, Workload] = {w.name: w for w in [
    Workload(
        "cache_hit",
        "56 distinct requests of every kind, 3 to 61 AST nodes, answered "
        "at set-up and replayed: the request path with the engines idle",
        cache=True,
        classes={"pattern": 26, "boolean": 14, "intersect": 8,
                 "equivalence": 8},
        copies=2, rate=2400.0, trace_rounds=30),
    Workload(
        "warm_miss",
        "cache off, sessions compiled at set-up, cheap conclusive "
        "problems: per-attempt dispatch (fork, pipe, pickle, admits) "
        "dominates",
        cache=False,
        classes={"pattern": 12, "boolean": 4, "equivalence": 2,
                 "intersect": 2},
        copies=2, rate=150.0, trace_rounds=10, timeout=30.0),
    Workload(
        "cold_miss",
        "fresh labels into an empty cache: each request compiles a "
        "session, misses, runs the engines and stores; engines dominate",
        cache=True,
        classes={"pattern": 12, "expspace": 3, "automata": 3, "bounded": 2},
        copies=None, rate=6.0, trace_rounds=2, timeout=60.0),
]}


@dataclass
class Plan:
    """What one run sends: the untimed warm-up, then the timed rounds."""

    workload: Workload
    warmup: list[Request]
    rounds: list[list[Request]]

    @property
    def timed(self) -> list[Request]:
        return [request for one in self.rounds for request in one]


def _templates(klass: str) -> list[Template]:
    return [t for t in TEMPLATES.values() if t.klass == klass]


def _labels(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct labels; the ``l`` prefix keeps every one clear
    of the expression syntax's keywords."""
    seen: set[str] = set()
    while len(seen) < count:
        seen.add("l" + "".join(rng.choices(string.ascii_lowercase, k=6)))
    labels = sorted(seen)
    rng.shuffle(labels)
    return labels


def _one_per_schema(requests: list[Request]) -> list[Request]:
    """One request per compiled-schema id the daemon will see, computed
    the way the daemon does (canonical problem, then its label alphabet),
    so answering these compiles every session the replay needs."""
    from repro.analysis.session import MAX_SESSIONS, schema_id_of
    from repro.server.protocol import parse_problem_record

    chosen: dict[str, Request] = {}
    for request in requests:
        _, _, problem = parse_problem_record(request.record)
        canonical = problem.canonical()
        key = schema_id_of(*canonical.expressions(), edtd=canonical.edtd)
        chosen.setdefault(key, request)
    if len(chosen) > MAX_SESSIONS:
        raise ValueError(f"{len(chosen)} schemas exceed the session LRU "
                         f"({MAX_SESSIONS})")
    return list(chosen.values())


def build(name: str, seed: int, rounds: int) -> Plan:
    """The seeded plan of workload ``name`` with ``rounds`` timed rounds."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    extra = {} if workload.timeout is None else {"timeout": workload.timeout}
    if workload.copies is None:
        # Fresh labels for every request, the warm-up's too, so no timed
        # request meets a session or a cache entry made before it.
        labels = iter(_labels(rng, 4 * (rounds * workload.round_size + 3)))
        served = {klass: 0 for klass in workload.classes}

        def draw(klass: str) -> Request:
            templates = _templates(klass)
            template = templates[served[klass] % len(templates)]
            served[klass] += 1
            return Request(template.record(
                tuple(next(labels) for _ in range(4)), **extra), template)

        warmup = [draw(klass) for klass in ("pattern", "automata",
                                            "pattern")]
        served = {klass: 0 for klass in workload.classes}
    else:
        # A fixed set of distinct requests: every template with ``copies``
        # of a few label sets, each replayed once per cycle of its class.
        labels = _labels(rng, 4 * 8)
        sets = [tuple(labels[4 * i:4 * i + 4]) for i in range(8)]
        pools: dict[str, list[Request]] = {}
        for klass in workload.classes:
            pools[klass] = [
                Request(template.record(sets[(index * workload.copies
                                              + copy) % len(sets)],
                                        **extra), template)
                for copy in range(workload.copies)
                for index, template in enumerate(_templates(klass))]
        served = {klass: 0 for klass in workload.classes}

        def draw(klass: str) -> Request:
            pool = pools[klass]
            request = pool[served[klass] % len(pool)]
            served[klass] += 1
            return request

        distinct = list({request.body: request for pool in pools.values()
                         for request in pool}.values())
        warmup = distinct if workload.cache else _one_per_schema(distinct)
    timed = []
    for _ in range(rounds):
        one = [draw(klass) for klass, count in workload.classes.items()
               for _ in range(count)]
        rng.shuffle(one)
        timed.append(one)
    return Plan(workload, warmup, timed)
