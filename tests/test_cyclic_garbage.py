"""Checking, compiling and running a policy leave no cyclic garbage.

Turning the collector off for a run is sound only if nothing that a run or
its set-up does leaves a reference cycle behind: with the collector
disabled around the work, an explicit `gc.collect()` afterwards must find
no unreachable object. The policies are the ten corpus policies and the
three of `test_batch_plan.FAULT_IN_A_BATCH`, which fault on either side
of the channel.
"""

import gc

import pytest

from dcmon.corpus import CORPUS_IDS, build_policy_source
from dcmon.dsl import parse_policy, validate_policy
from dcmon.engine import CompiledPolicy
from dcmon.lang.nodes import AppendStmt, Assign, Binary, Call, Expr, PruneStmt, SetAttrStmt, Unary, walk_exprs
from dcmon.sim import run
from dcmon.tracegen import make_bench_trace

from test_batch_plan import FAULT_IN_A_BATCH

SOURCES = {pid: build_policy_source(pid) for pid in CORPUS_IDS}
SOURCES.update((f"fault_{name}", case["src"]) for name, case in FAULT_IN_A_BATCH.items())

TRACE = make_bench_trace(per_kind=120)


def unreachable_after(work) -> int:
    """The objects that `work()` leaves unreachable, with the collector off
    while it runs."""
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        gc.enable()


def compiled(src: str) -> CompiledPolicy:
    cp = validate_policy(parse_policy(src))
    assert isinstance(cp, CompiledPolicy), cp
    return cp


@pytest.mark.parametrize("name", SOURCES)
def test_checking_a_policy_leaves_no_cycle(name):
    assert unreachable_after(lambda: compiled(SOURCES[name])) == 0


@pytest.mark.parametrize(
    "kwargs", [{}, {"concurrent_same_t": True}, {"channel_connected": False}], ids=["sequential", "concurrent", "down"]
)
@pytest.mark.parametrize("name", SOURCES)
def test_a_run_leaves_no_cycle(name, kwargs):
    cp = compiled(SOURCES[name])
    assert unreachable_after(lambda: run(TRACE, cp, **kwargs)) == 0


def recursive_walk(node) -> list:
    """The preorder of `walk_exprs`, by recursion."""
    if isinstance(node, (Assign, AppendStmt, SetAttrStmt)):
        return recursive_walk(node.value)
    if isinstance(node, PruneStmt):
        return recursive_walk(node.horizon)
    if not isinstance(node, Expr):
        return []
    out = [node]
    if isinstance(node, Unary):
        out += recursive_walk(node.operand)
    elif isinstance(node, Binary):
        out += recursive_walk(node.left) + recursive_walk(node.right)
    elif isinstance(node, Call):
        for arg in node.args:
            out += recursive_walk(arg)
    return out


@pytest.mark.parametrize("pid", CORPUS_IDS)
def test_walk_exprs_keeps_the_preorder(pid):
    spec = parse_policy(SOURCES[pid])
    nodes = [c.body for c in spec.conditions] + [r.guard for r in spec.rules]
    nodes += [stmt for a in spec.actions for stmt in a.body]
    for node in nodes:
        # identity, not equality: equal leaves may sit at different places
        assert list(map(id, walk_exprs(node))) == list(map(id, recursive_walk(node)))
    assert sum(len(walk_exprs(node)) for node in nodes) > len(nodes)
