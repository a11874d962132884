"""Every template's expected answer against brute force over small trees,
with the independent ``ReferenceEvaluator``.

A positive expectation ("not contained", "satisfiable", "not
equivalent") is proved by the witness tree the search finds.  A negative
one cannot be proved by search; it is checked to have no counterexample
on the small trees, beside the template's one-line reason."""

from __future__ import annotations

import re

import pytest

from repro.semantics.reference import ReferenceEvaluator
from repro.trees.generate import all_trees
from repro.xpath import parse_node, parse_path

from servebench.workloads import TEMPLATES, Template, WORKLOADS, build

#: Witnesses are searched up to this many nodes; negatives checked up to
#: NEGATIVE_NODES.
WITNESS_NODES = 5
NEGATIVE_NODES = 4

LABELS = ("la", "lb", "lc", "ld")
FRESH = "lz"


def _holds(template: Template, tree) -> bool:
    """True when ``tree`` witnesses the template's positive answer
    (satisfiable; not contained; not equivalent)."""
    names = dict(zip("abcd", LABELS))
    evaluator = ReferenceEvaluator(tree)
    if template.kind == "satisfiable":
        return bool(evaluator.nodes(parse_node(template.lhs.format(**names))))
    left = evaluator.path(parse_path(template.lhs.format(**names)))
    right = evaluator.path(parse_path(template.rhs.format(**names)))
    left_pairs = {(s, t) for s, targets in left.items() for t in targets}
    right_pairs = {(s, t) for s, targets in right.items() for t in targets}
    if template.kind == "contains":
        return not left_pairs <= right_pairs
    return left_pairs != right_pairs


def _alphabet(template: Template) -> list[str]:
    return list(LABELS[:template.arity]) + [FRESH]


def _positive(template: Template) -> bool:
    """Whether the expectation is the kind a witness proves."""
    return template.expected if template.kind == "satisfiable" \
        else not template.expected


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_expectation_agrees_with_brute_force(name):
    template = TEMPLATES[name]
    assert template.reason
    alphabet = _alphabet(template)
    if _positive(template):
        assert any(_holds(template, tree)
                   for tree in all_trees(WITNESS_NODES, alphabet)), \
            f"{name}: no witness up to {WITNESS_NODES} nodes"
    else:
        for tree in all_trees(NEGATIVE_NODES, alphabet):
            assert not _holds(template, tree), \
                f"{name}: counterexample {tree!r}"


def test_placeholders_are_contiguous():
    for template in TEMPLATES.values():
        text = template.lhs + (template.rhs or "")
        used = [n for n in "abcd" if "{" + n + "}" in text]
        assert used == list("abcd"[:len(used)]), template.name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_plans_repeat_per_seed_and_keep_the_mix(workload):
    first, again = build(workload, 7, 2), build(workload, 7, 2)
    other = build(workload, 8, 2)
    assert [r.body for r in first.timed] == [r.body for r in again.timed]
    assert [r.body for r in first.timed] != [r.body for r in other.timed]
    assert sorted(r.template.name for r in first.timed) \
        == sorted(r.template.name for r in other.timed)


def test_cold_miss_never_repeats_a_label():
    plan = build("cold_miss", 3, 4)
    seen: set[str] = set()
    for request in plan.warmup + plan.timed:
        text = " ".join(str(value) for value in request.record.values())
        labels = set(re.findall(r"(?<![a-z])l[a-z]{6}(?![a-z])", text))
        assert labels and not labels & seen, request.record
        seen |= labels


def test_warm_miss_sessions_fit_the_lru():
    from repro.analysis.session import MAX_SESSIONS

    plan = build("warm_miss", 5, 3)
    assert 0 < len(plan.warmup) <= MAX_SESSIONS
