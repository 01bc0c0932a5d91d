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
    OpHistory,
    SequentialSpec,
    Op,
    Value,
)

OP_CAP = 8  # most complete operations a history may hold for the search
COUNT_CAP = 4096  # most candidates a counterexample counts per node
_MODES = ("strong", "write-strong")  # the tree checkers' properties


class SizeLimitError(Exception):
    """Input exceeds a brute-force budget."""


class LinEntry(NamedTuple):
    """One operation occurrence inside a chosen linearization."""

    op_id: int
    op: Op
    value: Value
    process: int


Linearization = tuple  # tuple[LinEntry, ...]


def write_projection(entries: Sequence[LinEntry]) -> tuple:
    """The subsequence of update (WRITE) operations, identity and value."""
    return tuple(e for e in entries if e.op.name == "WRITE")


class _Prepared(NamedTuple):
    """What linearizations derives from a history alone, kept in the
    history's _prepared slot (see OpHistory)."""

    complete: int  # how many operations completed
    preds: dict  # op_id -> op_ids of the operations that precede it
    order: tuple  # complete ops by response position, pending ones after
    must_place: frozenset  # op_ids every candidate places: the complete ones


def _prepare(h: OpHistory) -> _Prepared:
    prepared = h._prepared
    if prepared is None:
        ops = h.ops
        must_place = frozenset(o.op_id for o in ops if o.complete)
        prepared = h._prepared = _Prepared(
            len(must_place),
            {b.op_id: frozenset(a.op_id for a in ops if h.precedes(a, b)) for b in ops},
            tuple(sorted(ops, key=lambda o: (o.res_index if o.complete else 10**9, o.op_id))),
            must_place,
        )
    return prepared


def linearizations(
    h: OpHistory,
    spec: SequentialSpec,
    pin: Sequence[LinEntry] = (),
    mode: str = "strong",
) -> Iterator[Linearization]:
    """Iterate over every valid linearization of a completion of h.

    A candidate places all complete operations and any subset of the
    pending ones, in some order that respects real-time precedence, and
    replays correctly through the spec (the response each operation gets
    from the replay must equal its recorded response; a pending
    operation's response is whatever the replay position dictates).

    pin fixes how a candidate starts: in "strong" mode its first
    entries are exactly pin (strong-prefix search), in "write-strong"
    mode its update subsequence starts with pin (write-strong search).
    Raises ValueError for any other mode, and SizeLimitError when
    complete ops exceed OP_CAP, both at the call.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    prepared = _prepare(h)
    if prepared.complete > OP_CAP:
        raise SizeLimitError(f"{prepared.complete} complete ops exceeds cap {OP_CAP}")
    preds, order, must_place = prepared.preds, prepared.order, prepared.must_place
    pin = tuple(pin)
    strong = mode == "strong"

    # k counts the placed entries pin speaks about: every entry in strong
    # mode, only the updates in write-strong mode
    def walk(placed: frozenset, state, seq: tuple, k: int) -> Iterator[Linearization]:
        if must_place <= placed and k >= len(pin):
            yield seq
        for o in order:
            if o.op_id in placed or not preds[o.op_id] <= placed:
                continue
            new_state, value = spec.apply(state, o.op)
            if o.complete and value != o.value:
                continue
            counted = strong or o.op.name == "WRITE"
            if counted and k < len(pin):
                want = pin[k]
                if want.op_id != o.op_id or want.value != value:
                    continue
            entry = LinEntry(o.op_id, o.op, value, o.process)
            yield from walk(placed | {o.op_id}, new_state, seq + (entry,), k + counted)

    return walk(frozenset(), spec.initial_state, (), 0)


def is_linearizable(h: OpHistory, spec: SequentialSpec) -> Optional[Linearization]:
    """First valid linearization in canonical order, or None."""
    for cand in linearizations(h, spec):
        return cand
    return None


# --- execution trees --------------------------------------------------------


@dataclass
class TreeNode:
    parent: Optional[int]
    history: OpHistory
    children: list = field(default_factory=list)


class ExecutionTree:
    """A prefix-closed set of histories arranged as a rooted tree.

    Every child's event log must extend its parent's log; add_node
    enforces that, so holding an ExecutionTree is holding evidence of
    prefix-closure. Nodes may share one OpHistory object; add_node has
    nothing to check for a child that holds its parent's.
    """

    def __init__(self, root_history: OpHistory):
        self.nodes: dict[int, TreeNode] = {0: TreeNode(None, root_history)}

    @property
    def root(self) -> int:
        return 0

    def add_node(self, history: OpHistory, parent: int) -> int:
        parent_history = self.nodes[parent].history
        if history is not parent_history:
            pev = parent_history.events
            if history.events[: len(pev)] != pev:
                raise ValueError("child history must extend its parent's event log")
        nid = len(self.nodes)
        self.nodes[nid] = TreeNode(parent, history)
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
        for cand in linearizations(tree.nodes[nid].history, spec, constraint, mode):
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


def _count_candidates(node: TreeNode, spec: SequentialSpec) -> int:
    n = 0
    for _ in linearizations(node.history, spec):
        n += 1
        if n >= COUNT_CAP:
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
    if mode not in _MODES:
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
