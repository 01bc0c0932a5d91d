"""History and execution-tree consistency checkers.

is_linearizable asks the classic question about a single history: does
some completion admit a precedence-respecting total order that replays
correctly through the sequential specification?

The stronger properties quantify over a prefix-closed tree of histories
(what an execution could have done so far, and everything it might do
next). A strategy assigns every tree node a linearization of its own
history such that moving to a child only ever appends: the parent's
choice is a prefix of the child's. The write-strong variant relaxes the
prefix requirement to the subsequence of update operations only. A node
may keep operations pending; its candidates range over every completion
of its own history.

Searches are deterministic: candidates are generated lazily in a fixed
canonical order (complete operations by response position, pending ones
after, ties by op id), so the first strategy or counterexample found is
always the same one. brute_force_strategy_oracle re-decides strategy
existence by materializing every candidate per node and scanning the
product space; it exists to cross-check the incremental search and is
deliberately plain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Sequence

from .seqspec import (
    OperationEvent,
    OpHistory,
    SequentialSpec,
    Op,
    Value,
    inv,
    res,
)

OP_CAP = 8  # most complete operations a history may hold for the search


class SizeLimitError(Exception):
    """Input exceeds a brute-force budget."""


class LinEntry(NamedTuple):
    """One operation occurrence inside a chosen linearization."""

    op_id: int
    op: Op
    value: Value
    process: int


Linearization = tuple  # tuple[LinEntry, ...]


def linearization_as_history(entries: Sequence[LinEntry]) -> OpHistory:
    """Render a linearization as a sequential invocation/response history."""
    events: list[OperationEvent] = []
    for e in entries:
        events.append(inv(e.op, e.process, e.op_id))
        events.append(res(e.op, e.process, e.op_id, e.value))
    return OpHistory(events)


def write_projection(entries: Sequence[LinEntry]) -> tuple:
    """The subsequence of update (WRITE) operations, identity and value."""
    return tuple(e for e in entries if e.op.name == "WRITE")


def linearizations(
    h: OpHistory,
    spec: SequentialSpec,
    require_prefix: Sequence[LinEntry] = (),
    write_prefix: Optional[Sequence[LinEntry]] = None,
) -> Iterator[Linearization]:
    """Yield every valid linearization of a completion of h.

    A candidate places all complete operations and any subset of the
    pending ones, in some order that respects real-time precedence, and
    replays correctly through the spec (the response each operation gets
    from the replay must equal its recorded response; a pending
    operation's response is whatever the replay position dictates).

    require_prefix pins the first entries exactly (strong-prefix search);
    write_prefix instead pins the update subsequence (write-strong
    search). Raises SizeLimitError when complete ops exceed OP_CAP.
    """
    ops = h.ops
    complete_count = sum(1 for o in ops if o.complete)
    if complete_count > OP_CAP:
        raise SizeLimitError(f"{complete_count} complete ops exceeds cap {OP_CAP}")

    preds: dict[int, frozenset] = {}
    for b in ops:
        before = frozenset(
            a.op_id
            for a in ops
            if a.op_id != b.op_id and a.res_index is not None and a.res_index < b.inv_index
        )
        preds[b.op_id] = before

    order = sorted(ops, key=lambda o: (o.res_index if o.complete else 10**9, o.op_id))
    must_place = frozenset(o.op_id for o in ops if o.complete)
    require_prefix = tuple(require_prefix)
    wprefix = None if write_prefix is None else tuple(write_prefix)

    def walk(placed: frozenset, state, seq: tuple, wcount: int) -> Iterator[Linearization]:
        if must_place <= placed and len(seq) >= len(require_prefix):
            if wprefix is None or wcount >= len(wprefix):
                yield seq
        for o in order:
            if o.op_id in placed or not preds[o.op_id] <= placed:
                continue
            new_state, value = spec.apply(state, o.op)
            if o.complete and value != o.value:
                continue
            if len(seq) < len(require_prefix):
                want = require_prefix[len(seq)]
                if want.op_id != o.op_id or want.value != value:
                    continue
            nw = wcount
            if o.op.name == "WRITE":
                if wprefix is not None and wcount < len(wprefix):
                    want = wprefix[wcount]
                    if want.op_id != o.op_id or want.value != value:
                        continue
                nw = wcount + 1
            entry = LinEntry(o.op_id, o.op, value, o.process)
            yield from walk(placed | {o.op_id}, new_state, seq + (entry,), nw)

    yield from walk(frozenset(), spec.initial_state, (), 0)


def is_linearizable(h: OpHistory, spec: SequentialSpec) -> Optional[Linearization]:
    """First valid linearization in canonical order, or None."""
    for cand in linearizations(h, spec):
        return cand
    return None


# --- execution trees --------------------------------------------------------


@dataclass
class TreeNode:
    node_id: int
    parent: Optional[int]
    history: OpHistory
    children: list = field(default_factory=list)


class ExecutionTree:
    """A prefix-closed set of histories arranged as a rooted tree.

    Every child's event log must extend its parent's log; add_node
    enforces that, so holding an ExecutionTree is holding evidence of
    prefix-closure.
    """

    def __init__(self, root_history: OpHistory):
        self.nodes: dict[int, TreeNode] = {0: TreeNode(0, None, root_history)}
        self._next = 1

    @property
    def root(self) -> int:
        return 0

    def add_node(self, history: OpHistory, parent: int) -> int:
        pev = self.nodes[parent].history.events
        if history.events[: len(pev)] != pev:
            raise ValueError("child history must extend its parent's event log")
        nid = self._next
        self._next += 1
        self.nodes[nid] = TreeNode(nid, parent, history)
        self.nodes[parent].children.append(nid)
        return nid

    def __len__(self) -> int:
        return len(self.nodes)

    def bfs_order(self) -> list[int]:
        out = [self.root]
        i = 0
        while i < len(out):
            out.extend(self.nodes[out[i]].children)
            i += 1
        return out


def make_triple_tree(h: OpHistory, h0: OpHistory, h1: OpHistory) -> ExecutionTree:
    """The three-node tree {H, H0, H1} with H0, H1 children of H."""
    tree = ExecutionTree(h)
    tree.add_node(h0, 0)
    tree.add_node(h1, 0)
    return tree


# --- strategy search --------------------------------------------------------


@dataclass
class Strategy:
    """A prefix-monotone (or update-monotone) assignment, node -> linearization."""

    mode: str
    assignment: dict  # node_id -> Linearization

    def to_json(self) -> dict:
        return {
            "result": "strategy",
            "mode": self.mode,
            "assignment": {
                str(nid): [
                    {"opId": e.op_id, "op": str(e.op), "value": e.value}
                    for e in entries
                ]
                for nid, entries in sorted(self.assignment.items())
            },
        }


@dataclass
class Counterexample:
    """A sub-tree admitting no strategy; re-checking it alone also fails."""

    mode: str
    node_ids: tuple
    histories: dict  # node_id -> OpHistory
    candidate_counts: dict  # node_id -> int
    explanation: str

    def to_json(self) -> dict:
        return {
            "result": "counterexample",
            "mode": self.mode,
            "nodes": [
                {
                    "node": nid,
                    "history": self.histories[nid].to_json(),
                    "candidates": self.candidate_counts[nid],
                }
                for nid in self.node_ids
            ],
            "explanation": self.explanation,
        }


def _search(
    tree: ExecutionTree,
    spec: SequentialSpec,
    mode: str,
    members: Optional[frozenset] = None,
) -> Optional[dict]:
    """Backtracking strategy search over (an induced subtree of) the tree.

    Returns an assignment dict or None. Memoizes failed (node, constraint)
    pairs so revisits under the same inherited constraint are free.
    """
    if members is None:
        members = frozenset(tree.nodes)
    failed: set = set()
    assignment: dict = {}

    def children(nid: int) -> list:
        return [c for c in tree.nodes[nid].children if c in members]

    def assign(nid: int, constraint) -> bool:
        key = (nid, constraint)
        if key in failed:
            return False
        node = tree.nodes[nid]
        if mode == "strong":
            gen = linearizations(node.history, spec, require_prefix=constraint)
        else:
            gen = linearizations(node.history, spec, write_prefix=constraint)
        for cand in gen:
            assignment[nid] = cand
            child_constraint = cand if mode == "strong" else write_projection(cand)
            if all(assign(c, child_constraint) for c in children(nid)):
                return True
        failed.add(key)
        assignment.pop(nid, None)
        return False

    if assign(tree.root, ()):
        return dict(assignment)
    return None


def _count_candidates(node: TreeNode, spec: SequentialSpec, limit: int = 4096) -> int:
    n = 0
    for _ in linearizations(node.history, spec):
        n += 1
        if n >= limit:
            break
    return n


def _shrink_failing_subtree(tree: ExecutionTree, spec: SequentialSpec, mode: str) -> frozenset:
    """Grow nodes in BFS order until infeasible, then prune removable leaves.

    The result is prefix-closed, still admits no strategy, and dropping
    any single remaining leaf would make a strategy exist.
    """
    order = tree.bfs_order()
    members: list = []
    for nid in order:
        members.append(nid)
        if _search(tree, spec, mode, frozenset(members)) is None:
            break
    core = set(members)

    pruned = True
    while pruned:
        pruned = False
        leaves = sorted(
            nid
            for nid in core
            if nid != tree.root
            and not any(c in core for c in tree.nodes[nid].children)
        )
        for leaf in leaves:
            trial = frozenset(core - {leaf})
            if _search(tree, spec, mode, trial) is None:
                core.discard(leaf)
                pruned = True
                break
    return frozenset(core)


def _strategy_or_counterexample(tree: ExecutionTree, spec: SequentialSpec, mode: str):
    assignment = _search(tree, spec, mode)
    if assignment is not None:
        return Strategy(mode=mode, assignment=assignment)
    core = _shrink_failing_subtree(tree, spec, mode)
    counts = {nid: _count_candidates(tree.nodes[nid], spec) for nid in core}
    kind = "prefix" if mode == "strong" else "update-subsequence"
    explanation = (
        f"no {kind}-monotone assignment exists over nodes {sorted(core)}: "
        "every candidate for the base history fails to extend into all of "
        "its retained children"
    )
    return Counterexample(
        mode=mode,
        node_ids=tuple(sorted(core)),
        histories={nid: tree.nodes[nid].history for nid in core},
        candidate_counts=counts,
        explanation=explanation,
    )


def strong_linearization_exists(tree: ExecutionTree, spec: SequentialSpec):
    """Strategy whose choices grow by strict sequence prefix, else Counterexample."""
    return _strategy_or_counterexample(tree, spec, "strong")


def write_strong_linearization_exists(tree: ExecutionTree, spec: SequentialSpec):
    """Strategy monotone on the update subsequence only, else Counterexample.

    Histories without update operations degenerate gracefully: the
    constraint is empty, so this is then per-node linearizability.
    """
    return _strategy_or_counterexample(tree, spec, "write-strong")


def brute_force_strategy_oracle(
    tree: ExecutionTree,
    spec: SequentialSpec,
    mode: str = "strong",
    node_limit: int = 64,
    cand_limit: int = 64,
):
    """Independent strategy decision by exhaustive product-space scan.

    Materializes every candidate per node up front (SizeLimitError past
    cand_limit per node or node_limit nodes), then tries assignments
    outright with no memoization or incremental constraint threading.
    Returns a Strategy or None.
    """
    if mode not in ("strong", "write-strong"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(tree.nodes) > node_limit:
        raise SizeLimitError(f"{len(tree.nodes)} nodes exceeds limit {node_limit}")
    all_cands: dict[int, list] = {}
    for nid, node in tree.nodes.items():
        cands = []
        for c in linearizations(node.history, spec):
            cands.append(c)
            if len(cands) > cand_limit:
                raise SizeLimitError(
                    f"node {nid} has more than {cand_limit} linearizations"
                )
        all_cands[nid] = cands

    def compatible(parent_cand, child_cand) -> bool:
        if mode == "strong":
            return child_cand[: len(parent_cand)] == parent_cand
        pw = write_projection(parent_cand)
        cw = write_projection(child_cand)
        return cw[: len(pw)] == pw

    chosen: dict = {}

    def assign(nid: int, parent_cand) -> bool:
        for cand in all_cands[nid]:
            if parent_cand is not None and not compatible(parent_cand, cand):
                continue
            chosen[nid] = cand
            if all(assign(c, cand) for c in tree.nodes[nid].children):
                return True
        chosen.pop(nid, None)
        return False

    if assign(tree.root, None):
        return Strategy(mode=mode, assignment=dict(chosen))
    return None
