"""Valence classification and adversarial schedule construction.

A scenario fixes a protocol, a driver, and one distinguished decision
operation (the TEST or the READ of the driver program). A configuration
is 0-valent if no finite extension makes the decision operation return
1, 1-valent symmetrically, and bivalent when both return values remain
reachable. Bivalence verdicts are absolute: they carry two replayable
certificate histories, one per value. Univalence verdicts are relative
to the exploration budget unless the reachable state space was exhausted
below it (or the decision already returned, which settles the matter).

On top of classification this module builds the adversarial machinery:

  * bivalent_successor: given a bivalent configuration and a forced next
    step e, search the configurations reachable without applying e for
    one where applying e lands bivalent again (shortest detour first);
  * build_hbi: iterate that against a process rotation, always
    forcing the oldest pending message, to produce an arbitrarily long
    schedule that keeps every process taking steps, keeps every
    traversed configuration bivalent, and (on subjects where the search
    can steer around completions) never lets any operation finish;
  * completed_implies_univalent_audit: sweep reachable configurations
    for the incriminating combination "some operation completed, yet
    still bivalent", and package each hit as a three-node history tree
    whose induced strategy check must come back negative.

Everything here is deterministic: exploration orders are canonical,
and build_hbi's process rotation is given, not drawn (the command line
draws it from --seed).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Optional

from .checkers import (
    ExecutionTree,
    SizeLimitError,
    make_triple_tree,
    strong_linearization_exists,
    write_strong_linearization_exists,
)
from .model import (
    Configuration,
    NotApplicable,
    PreconditionViolated,
    Step,
    apply_history,
    apply_step,
    applicable,
    initial_configuration,
    logged_events,
    schedule_records,
)
from .protocols import BuiltProtocol, build_protocol
from .seqspec import OpHistory, RESPONSE


FAIR_BOUND = 240  # steps a fair run takes before it gives up
VALENCE_DEPTH = 8  # default depth of classify_valence's bounded sweep
PROBE_DEPTH = 3  # the sweep fair-probes every class this shallow


@dataclass
class Scenario:
    """A runnable experiment: protocol, driver, decision op, rotation.

    It also holds the memos its searches share, none of which changes a
    result: the fair-run suffixes (_fair_run), the intern table of the
    compact keys (_compact_key), and the successor table of the sweeps
    that stop at decisions (reach with stop_decided): classify_valence's
    and the audit's outer sweep. Sweeps from nearby configurations, as
    bivalent_successor's candidates are, overlap, so a later sweep skips
    the steps an earlier one took to a class it has already seen. No
    other sweep remembers: the progress sweep and bivalent_successor's
    detour sweep leave the table as it was.
    """

    built: BuiltProtocol
    rotation: Optional[tuple] = None
    _suffixes: dict = field(default_factory=dict, repr=False, compare=False)
    # intern table of _compact_key: each states tuple, inbox row and
    # channel matrix met -> a small int, numbered at first sight
    _ids: defaultdict = field(
        default_factory=lambda: defaultdict(count().__next__), repr=False, compare=False
    )
    # successor table of the stop_decided sweeps (see reach): compact
    # key -> per enabled step, the key of the child the step was a dedup
    # hit on, None where it found a new class or was not taken
    _successors: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def system(self):
        return self.built.system

    @property
    def name(self) -> str:
        return self.built.system.name

    @property
    def n(self) -> int:
        return self.built.system.num_processes

    @property
    def decision_process(self) -> Optional[int]:
        return self.system.driver.decision_process

    def initial(self) -> Configuration:
        return initial_configuration(self.system)

    def decided(self, config: Configuration) -> Optional[int]:
        """Value the decision operation returned in config, if it has:
        the deciding process's state records it (SysState.decided)."""
        dp = self.decision_process
        return None if dp is None else config.states[dp].decided

    def vkey(self, config: Configuration) -> tuple:
        """Behavioral identity: the core key (states, inbox, channels),
        which holds the decision in the decider's state. No search calls
        it; it stays for the benchmark tracer, which wraps it by name.
        reach and the fair-run suffix memo key by the collapse-compressed
        form (_compact_key)."""
        return config.core_key()


def build_scenario(protocol: str = "naive-tos", n: Optional[int] = None, **kw) -> Scenario:
    built = build_protocol(protocol, n)
    return Scenario(built=built, **kw)


def completed_count(config: Configuration) -> int:
    """Operations that have returned in config, read from each process's
    state (SysState.done), not from the event log."""
    return sum(s.done for s in config.states)


# --- reachability ------------------------------------------------------------


def _compact_key(ids, config: Configuration) -> tuple:
    """The core key collapse-compressed (Holzmann, "State compression
    in SPIN", 1997): (states id, one id per inbox row, channels id),
    each part interned in `ids` at first sight. Two configurations get
    equal compact keys exactly when their core keys are equal, and a
    tuple of ints hashes in C and is untracked by the garbage collector.
    """
    return (ids[config.states], *map(ids.__getitem__, config.inbox), ids[config.channels])


def _child_key(ids, child: Configuration, parent: Configuration, pkey: tuple, p: int) -> tuple:
    """The compact key of `child`, which a step of process p made of
    `parent`, whose key is pkey. A step that sent nothing replaced only
    the states tuple and, on a receipt, row p, so only those are looked
    up; the other ids are the parent's. A send replaced the channel
    matrix and its receivers' rows, and its child is keyed in full:
    hashing the unchanged rows in C costs less than testing each row
    for identity in Python."""
    if child.channels is not parent.channels:  # a send
        return _compact_key(ids, child)
    key = list(pkey)
    key[0] = ids[child.states]
    row = child.inbox[p]
    if row is not parent.inbox[p]:  # a receipt
        key[p + 1] = ids[row]
    return tuple(key)


def reach(
    scenario: Scenario,
    start: Configuration,
    depth: int,
    *,
    forbid: Optional[Step] = None,
    stop_decided: bool = False,
):
    """Breadth-first sweep of the configurations reachable from start.

    Yields (config, history, d) once per core key within `depth`
    steps, start first, each as soon as it is discovered, so a caller
    that stops early pays for no more than it saw. Within a layer,
    steps go by process id, idle receipt first, then messages oldest
    first. Classes at `depth` are yielded but never kept for expansion;
    so are decided classes under stop_decided. `forbid` is a step no
    history takes.

    Sleep sets (Godefroid, LNCS 1032) skip edges that can only land on
    a class already seen. Say c was reached from its parent P by a step
    of process p, and s is a step of a process q < p enabled at P. Steps
    of distinct processes commute on the core key (see the model
    module), so c·s lies in the class of P·s·t, where t is c's own
    step. If the class of P·s was expanded before c, that expansion
    applied t or skipped it by this same rule, so c·s is a dedup hit
    and c skips s.
    s qualifies when P computed it and its class, new or already seen,
    is expandable (not decided under stop_decided), and when s was
    asleep at P itself: q's state is then the same as at P's parent, so
    P·s is not decided either, and its class entered `seen` before P
    was expanded. Every skipped edge is a dedup hit, so the yields are
    exactly those of the unpruned sweep. A sleeper is the received
    message itself, whose receiver is the process, or the process id
    for an idle receipt. Messages match by identity: a message keeps its
    object from the send to its receipt.

    Steps go by their index in the inbox, and a Step is built only for
    a yielded history. `seen` maps compact keys (_compact_key), which
    are equal exactly when core keys are, each to the key object first
    met for its class, so it keeps no configuration alive, and one
    setdefault both tests a child and records it. The core key holds
    the decision in the decider's state, so no event log is read. Each
    frontier entry carries its key, and a child that sent nothing
    interns only the parts its step replaced (_child_key). A step whose
    apply_step returns `config` itself (an idle receipt that changes
    nothing, see the model module) is a dedup hit, sleepers included,
    with no key computed: config's own class is in `seen` and
    expandable. A no-op that returns a new, equal configuration takes
    the full path and hits `seen` the same way.

    A sweep that stops at decisions goes through the scenario's
    successor table, and no other sweep does. The table maps a class's
    compact key to one slot per enabled step, in enabled-step order. A
    slot holds the compact key of the step's child when that step was a
    dedup hit, at any layer, and the child is undecided; a decided
    child is never expandable, so it always takes the full path. A
    later sweep that meets the class skips such a step when the child
    is in its `seen`: no apply_step and no key, and the sleepers are
    unchanged, because the full path would have found the same
    expandable class (at the last layer no sleepers are kept at all).
    A remembered child not in `seen` is stepped under its remembered
    key. This is exact: equal compact keys mean equal core keys, and
    apply_step is deterministic on the core, so a slot's step lands in
    one class from every member of its class. A step that found a new
    class is not remembered: overlapping sweeps tend to find a class
    first through the same step, so such a slot is seldom a hit later,
    and it would hold most of the table's memory. The slot keeps the key
    object `seen` first met, and a remembered child enters `seen` under
    the slot's object, so the table and the sweeps share one tuple per
    class where they can.
    """
    system = scenario.system
    ids = scenario._ids
    dp = scenario.decision_process
    stop = stop_decided and dp is not None
    key = _compact_key(ids, start)
    seen = {key: key}  # each class's key -> the key object first met for it
    first_key = seen.setdefault
    yield start, (), 0
    # an entry is (config, key, history, sleepers, cut): c's sleepers
    # are the first `cut` of a list shared with its siblings, in
    # enabled-step order
    layer = deque()
    if depth > 0 and not (stop_decided and scenario.decided(start) is not None):
        layer.append((start, key, (), (), 0))
    fp, fm = (-1, None) if forbid is None else forbid
    table = scenario._successors if stop else None
    d = 0
    while layer:
        d += 1
        below: deque = deque()
        keep = d < depth  # else no child is expanded, nor needs sleepers
        while layer:
            config, key, hist, sleepers, cut = layer.popleft()
            shared: list = []
            i = 0
            kids = None if table is None else table.get(key)
            off = 1  # kids[off + j] is the slot of the current process's j-th step
            for p, row in enumerate(config.inbox):
                sibling_cut = len(shared)
                for j, m in enumerate((None,) + row, -1):
                    # a sleeper is still enabled here, in the same order,
                    # holding the same message object as at the parent
                    if i < cut:
                        s = sleepers[i]
                        if s is m or m is None and s == p:
                            i += 1
                            if keep:
                                shared.append(s)
                            continue
                    if p == fp and m == fm:
                        continue
                    known = None
                    if kids is not None:
                        known = kids[off + j]
                        if known is not None and known in seen:  # a remembered dedup hit
                            if keep:
                                shared.append(p if m is None else m)
                            continue
                    child = apply_step(config, (p, m), system, j)
                    if child is config:  # an idle no-op: config's own class
                        if keep:
                            shared.append(p)
                        continue
                    expandable = keep and not (stop and child.states[dp].decided is not None)
                    child_key = _child_key(ids, child, config, key, p) if known is None else known
                    first = first_key(child_key, child_key)
                    if first is not child_key:  # a dedup hit
                        if expandable:
                            shared.append(p if m is None else m)
                        if table is not None and child.states[dp].decided is None:
                            if kids is None:  # one slot per enabled step
                                slots = len(config.inbox) + sum(map(len, config.inbox))
                                kids = table[key] = [None] * slots
                            kids[off + j] = first
                        continue
                    # m came from inbox[p], so Step's receiver check cannot fail
                    child_hist = hist + (tuple.__new__(Step, (p, m)),)
                    yield child, child_hist, d
                    if expandable:
                        below.append((child, child_key, child_hist, shared, sibling_cut))
                        shared.append(p if m is None else m)
                off += len(row) + 1
        layer = below


# --- fair schedules ---------------------------------------------------------


@dataclass
class FairRun:
    """A fair run's steps, the value its decision returned (None when
    none returned) and the configuration it ended in."""

    history: tuple
    value: Optional[int]
    final: Configuration


def _fair_run(scenario: Scenario, config: Configuration, live, bound: int) -> FairRun:
    """Round-robin over live processes, oldest message first, until the
    decision returns, the system stops changing, or the bound is hit;
    the run's value is None unless the decision returned.

    The decision is read from the decider's state (SysState.decided).
    What happens after a round boundary depends only on the boundary's
    configuration and the live processes, as long as the steps left
    cover it, so every boundary of a run that decided or went quiescent
    is remembered in the scenario's suffix memo, keyed by the boundary's
    compact key (_compact_key) and the live processes, as the run and
    the boundary's offset in its history. A later run that reaches a
    remembered boundary with at least the suffix's length left takes
    the suffix instead of stepping it again: its history is the steps
    it took plus the run's from the offset on, and its value and final
    configuration are the run's own. A run cut at the bound is not
    remembered. A round that leaves the compact key as it was leaves
    the run quiescent.
    """
    system = scenario.system
    dp = scenario.decision_process
    v = scenario.decided(config)
    if v is not None:
        return FairRun((), v, config)
    live = tuple(live)
    ids = scenario._ids
    memo = scenario._suffixes
    boundaries: list = []  # (memo key, history offset)
    history: list = []
    current = config
    key = _compact_key(ids, config)
    run = None
    while len(history) < bound:
        hit = memo.get((key, live))
        if hit is not None:
            done, offset = hit  # a run that decided or went quiescent
            if len(done.history) - offset <= bound - len(history):
                run = FairRun(tuple(history) + done.history[offset:], done.value, done.final)
                break
        boundaries.append(((key, live), len(history)))
        for p in live:
            row = current.inbox[p]
            m = row[0] if row else None
            nxt = apply_step(current, (p, m), system, 0 if row else -1)
            history.append(tuple.__new__(Step, (p, m)))  # m is from inbox[p]
            v = nxt.states[p].decided if p == dp else None
            if v is not None:
                run = FairRun(tuple(history), v, nxt)
                break
            current = nxt
            if len(history) >= bound:
                break
        if run is not None or len(history) >= bound:
            break
        key, prior = _compact_key(ids, current), key
        if key == prior:
            run = FairRun(tuple(history), None, current)  # nothing will ever change again
            break
    if run is None:
        return FairRun(tuple(history), None, current)
    for boundary, offset in boundaries:
        memo[boundary] = (run, offset)
    return run


def fair_completion(
    scenario: Scenario,
    config: Configuration,
    crashed: Optional[int] = None,
    bound: Optional[int] = None,
) -> FairRun:
    """Fair round-robin schedule with at most one crashed process."""
    if crashed is not None and (
        isinstance(crashed, bool) or not (isinstance(crashed, int) and 0 <= crashed < scenario.n)
    ):
        raise PreconditionViolated(
            f"crashed must be None or a process id below {scenario.n}, not {crashed!r}"
        )
    bound = FAIR_BOUND if bound is None else bound
    live = [p for p in range(scenario.n) if p != crashed]
    return _fair_run(scenario, config, live, bound)


def staged_probe(scenario: Scenario, config: Configuration, hold: int) -> FairRun:
    """Hold one process back until the rest quiesce, then run everyone.

    Fair overall (the held process still takes infinitely many steps in
    the limit); exists to harvest order-dependent decision values. The
    run's value is None when no decision returned.
    """
    live = [p for p in range(scenario.n) if p != hold]
    first = _fair_run(scenario, config, live, FAIR_BOUND)
    if first.value is not None:
        return first
    rest = _fair_run(scenario, first.final, list(range(scenario.n)), FAIR_BOUND)
    return FairRun(first.history + rest.history, rest.value, rest.final)


# --- valence classification --------------------------------------------------


class ValenceTag(Enum):
    ZERO_VALENT = "0-valent"
    ONE_VALENT = "1-valent"
    BIVALENT = "bivalent"
    UNKNOWN_AT_BOUND = "unknown-at-bound"


_VALENT = {0: ValenceTag.ZERO_VALENT, 1: ValenceTag.ONE_VALENT}


@dataclass
class Valence:
    """Classification result. certificates maps a return value to a
    history from the classified configuration that realizes it."""

    tag: ValenceTag
    certificates: dict
    exhausted: bool
    depth: int

    @property
    def is_bivalent(self) -> bool:
        return self.tag is ValenceTag.BIVALENT

    def to_json(self) -> dict:
        return {
            "tag": self.tag.value,
            "certificates": {
                str(v): schedule_records(hist) for v, hist in sorted(self.certificates.items())
            },
            "exhausted": self.exhausted,
            "depth": self.depth,
        }


def classify_valence(
    scenario: Scenario, config: Configuration, depth: Optional[int] = None
) -> Valence:
    """Classify a configuration, cheap probes first, bounded search after.

    The probe battery runs fair schedules (plain, staged, single-crash)
    from the configuration itself. Those deliver oldest-first, which can
    systematically hide one decision value behind stale replies, so the
    bounded sweep additionally runs a fair probe from every configuration
    within PROBE_DEPTH: a short out-of-order prefix plus a fair tail
    reaches values no oldest-first schedule can. Every probe goes through
    the scenario's suffix memo (see _fair_run). The sweep goes through
    the scenario's successor table (see reach), so it does not step
    again what an earlier sweep stepped to a class it has already seen;
    the verdict is the one a cold scenario gives.

    Bivalent and already-decided verdicts are absolute; bounded verdicts
    are relative to `depth`.
    """
    depth = VALENCE_DEPTH if depth is None else depth
    v0 = scenario.decided(config)
    if v0 is not None:
        return Valence(_VALENT[v0], {v0: ()}, exhausted=True, depth=0)

    certs: dict = {}

    def record(run: FairRun, prefix: tuple = ()) -> None:
        if run.value is not None and run.value not in certs:
            certs[run.value] = prefix + run.history

    # a crash of q is covered too: the staged probe's first run is the
    # fair run without q
    record(fair_completion(scenario, config))
    for q in range(scenario.n):
        if 0 in certs and 1 in certs:
            break
        record(staged_probe(scenario, config, q))

    if 0 in certs and 1 in certs:
        return Valence(ValenceTag.BIVALENT, certs, exhausted=False, depth=0)

    # bounded breadth-first sweep of every scheduling choice; decided
    # classes settle their valence and are not expanded. The sweep is
    # truncated when an undecided class sits at `depth`, and it always
    # covers one layer, even at depth 0.
    truncated = False
    for nxt, hist, d in reach(scenario, config, max(depth, 1), stop_decided=True):
        if d == 0:
            continue  # the configuration itself, probed above
        v = scenario.decided(nxt)
        if v is not None:
            certs.setdefault(v, hist)
        else:
            if d <= PROBE_DEPTH:
                record(fair_completion(scenario, nxt), hist)
            truncated = truncated or d >= depth
        if 0 in certs and 1 in certs:
            return Valence(ValenceTag.BIVALENT, certs, exhausted=False, depth=d)

    if len(certs) == 1 and not truncated:
        return Valence(_VALENT[next(iter(certs))], certs, exhausted=True, depth=depth)
    return Valence(ValenceTag.UNKNOWN_AT_BOUND, certs, exhausted=not truncated, depth=depth)


# --- bivalent successor search ------------------------------------------------


@dataclass
class BivalentSuccessor:
    config: Configuration
    detour: tuple  # steps applied before the forced one
    valence: Valence
    new_completions: int


@dataclass
class SuccessorNotFound:
    explored: int
    evidence: tuple


def bivalent_successor(
    scenario: Scenario,
    config: Configuration,
    step_e: Step,
    search_depth: int = 6,
):
    """Find a bivalent configuration of the form e(E), E reachable from
    config without ever applying e.

    Breadth-first over detour length, in reach's canonical order. A
    completion-free bivalent successor at any depth beats a completing
    one at a shallower depth; the shallowest completing candidate is
    remembered as a fallback. e stays applicable along every detour
    because only e consumes its message.
    """
    if not applicable(config, step_e):
        raise NotApplicable(f"{step_e} is not applicable at the starting configuration")

    system = scenario.system
    base_completed = completed_count(config)
    cand_tags: dict = {}  # detour -> ValenceTag of e(detour config)
    fallback = None  # shallowest bivalent-but-completing candidate

    for cfg, det, _ in reach(scenario, config, search_depth, forbid=step_e):
        succ = apply_step(cfg, step_e, system)
        cls = classify_valence(scenario, succ)
        cand_tags[det] = cls.tag
        if cls.is_bivalent:
            new = completed_count(succ) - base_completed
            if new == 0:
                return BivalentSuccessor(succ, det, cls, new)
            if fallback is None:
                fallback = BivalentSuccessor(succ, det, cls, new)

    if fallback is not None:
        return fallback
    evidence = _case_two_evidence(scenario, config, step_e, cand_tags)
    return SuccessorNotFound(explored=len(cand_tags), evidence=evidence)


def _case_two_evidence(scenario, config, step_e, cand_tags) -> tuple:
    """Spot pairs where stepping the forced process again flips the
    resulting valence, and show that stalling that process still lets
    some operation complete under a fair schedule. cand_tags maps each
    detour from `config` to the tag of step_e after it; each of the at
    most 3 flips found is replayed from `config` for its fair run."""
    univalent = {ValenceTag.ZERO_VALENT, ValenceTag.ONE_VALENT}
    live = [p for p in range(scenario.n) if p != step_e.process]
    out = []
    for det, tag in cand_tags.items():
        if not det or det[-1].process != step_e.process or tag not in univalent:
            continue
        ptag = cand_tags.get(det[:-1])
        if ptag in univalent and ptag is not tag:
            cfg, _ = apply_history(config, det, scenario.system)
            run = _fair_run(scenario, cfg, live, FAIR_BOUND)
            completes = completed_count(run.final) > completed_count(cfg)
            out.append(
                {
                    "detour_len": len(det),
                    "bridge_process": step_e.process,
                    "valences": (ptag.value, tag.value),
                    "progress_without_that_process": completes,
                }
            )
            if len(out) >= 3:
                break
    return tuple(out)


# --- the non-terminating bivalent schedule ------------------------------------


@dataclass
class HbiSegment:
    round: int
    slot: int
    process: int
    scheduled_uid: Optional[int]
    start_index: int  # offset of this segment's first step in the history
    detour_len: int
    certificates: dict  # value -> history from the segment's end config


@dataclass
class HbiStuck:
    round: int
    slot: int
    process: int
    explored: int
    evidence: tuple


@dataclass
class HbiReport:
    scenario: str
    rotation: tuple
    history: tuple
    segments: list
    completions: tuple  # response events logged along the way (want: none)
    rounds_completed: int
    stuck: Optional[HbiStuck]
    initial: dict  # value -> history from the initial configuration, certified bivalent

    def certificates_at(self, index: int) -> dict:
        """Bivalence certificates for the configuration after `index`
        steps of the history: ride the current segment to its end, then
        use the end configuration's certificates. Valence never recovers
        once lost, so an ancestor of a certified-bivalent configuration
        is itself bivalent via exactly this suffix construction. With no
        segment, index 0 is the initial configuration, and its
        certificates are the ones build_hbi certified it with."""
        if not 0 <= index <= len(self.history):
            raise IndexError(index)
        for seg in reversed(self.segments):
            if seg.start_index <= index:
                end = seg.start_index + seg.detour_len + 1
                bridge = self.history[index:end]
                return {v: bridge + h for v, h in seg.certificates.items()}
        return dict(self.initial)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "rotation": list(self.rotation),
            "rounds_completed": self.rounds_completed,
            "steps": len(self.history),
            "segments": [
                {
                    "round": s.round,
                    "slot": s.slot,
                    "process": s.process,
                    "scheduled_uid": s.scheduled_uid,
                    "detour_len": s.detour_len,
                }
                for s in self.segments
            ],
            "completions": [ev.to_json() for ev in self.completions],
            "stuck": None
            if self.stuck is None
            else {
                "round": self.stuck.round,
                "slot": self.stuck.slot,
                "process": self.stuck.process,
                "explored": self.stuck.explored,
            },
        }


def build_hbi(scenario: Scenario, rounds: int, search_depth: int = 6) -> HbiReport:
    """Construct a schedule that keeps the system bivalent forever.

    Per round, for each process p in rotation order (one slot each):
    force e = (p, oldest buffered message for p, or the idle receipt),
    ask bivalent_successor for a detour that keeps e's application
    bivalent, and append detour plus e. A full round schedules every
    process once, so a rotation that does not name every process exactly
    once is refused. Getting stuck is reported, not raised: it means the
    certified-bivalent frontier ran out within the search depth, which
    the guarantees of a strongly linearizable subject would rule out but
    our deliberately weak subjects may not.
    """
    rotation = tuple(range(scenario.n) if scenario.rotation is None else scenario.rotation)
    if sorted(rotation) != list(range(scenario.n)):
        raise PreconditionViolated(f"rotation must order every process once, not {rotation!r}")
    init = scenario.initial()
    start = classify_valence(scenario, init)
    if not start.is_bivalent:
        raise PreconditionViolated("initial configuration is not certified bivalent")

    history: list = []
    segments: list = []
    current = init
    stuck = None
    rounds_done = 0

    for r in range(1, rounds + 1):
        for slot, p in enumerate(rotation):
            msgs = current.inbox[p]
            e = Step(p, msgs[0] if msgs else None)
            res = bivalent_successor(scenario, current, e, search_depth=search_depth)
            if isinstance(res, SuccessorNotFound):
                stuck = HbiStuck(r, slot, p, res.explored, res.evidence)
                break
            segments.append(
                HbiSegment(
                    round=r,
                    slot=slot,
                    process=p,
                    scheduled_uid=None if e.received is None else e.received.uid,
                    start_index=len(history),
                    detour_len=len(res.detour),
                    certificates=dict(res.valence.certificates),
                )
            )
            history.extend(res.detour)
            history.append(e)
            current = res.config
        if stuck is not None:
            break
        rounds_done = r

    completions = tuple(
        ev for ev in logged_events(init, history, scenario.system) if ev.kind == RESPONSE
    )
    return HbiReport(
        scenario=scenario.name,
        rotation=rotation,
        history=tuple(history),
        segments=segments,
        completions=completions,
        rounds_completed=rounds_done,
        stuck=stuck,
        initial=dict(start.certificates),
    )


# --- completed-but-bivalent audit ----------------------------------------------


@dataclass
class AuditTriple:
    """A bivalent configuration with a completed operation, branched to
    both decision outcomes: base history plus two certificate branches."""

    base_history: tuple
    base: OpHistory
    branch0: OpHistory
    branch1: OpHistory
    completed: tuple  # op labels completed in the base
    depth: int
    verdict: object = None  # the strategy checker's result on tree()

    def tree(self) -> ExecutionTree:
        return make_triple_tree(self.base, self.branch0, self.branch1)


def completed_implies_univalent_audit(
    scenario: Scenario,
    depth: int,
    spec,
    checker_mode: str = "strong",
    max_triples: Optional[int] = None,
    order: str = "bfs",
) -> list:
    """Sweep reachable configurations for completed-yet-bivalent states.

    Every hit is packaged as the three-node tree {base, base+cert0,
    base+cert1}, and the checker named by checker_mode runs on it:
    strong_linearization_exists for "strong", and
    write_strong_linearization_exists for "write-strong" (these trees
    admit no strategy when the audit works as intended, and the verdict
    is recorded on the triple). Any other checker_mode or order, and a
    max_triples below 1, is refused.

    order="completion-first" examines, within each depth, the classes
    that pair a completed operation with a pending one first
    (_completion_first), which reaches the interesting region much
    sooner on protocols whose operations take many steps; "bfs" examines
    them in discovery order. The order only decides which class is
    examined first: both sweep the same breadth-first expansion, and
    without max_triples both find the same triples. Both are
    deterministic. Exploration deduplicates by behavioral key, so each
    behavior class is audited once, through its first-discovered
    history. A branch's log is the base's plus the events its
    certificate logs from the class's configuration.

    The audit only acts on certified-bivalent configurations, so each
    candidate is classified to PROBE_DEPTH: enough to hunt certificates,
    without paying for univalence confirmation at every completed node.
    """
    if checker_mode not in ("strong", "write-strong"):
        raise PreconditionViolated(
            f"checker_mode must be one of 'strong', 'write-strong', not {checker_mode!r}"
        )
    if order not in ("bfs", "completion-first"):
        raise PreconditionViolated(
            f"order must be 'bfs' or 'completion-first', not {order!r}"
        )
    if max_triples is not None and (type(max_triples) is not int or max_triples < 1):
        raise PreconditionViolated(
            f"max_triples must be None or at least 1, not {max_triples!r}"
        )
    if checker_mode == "strong":
        checker = strong_linearization_exists
    else:
        checker = write_strong_linearization_exists
    system = scenario.system
    init = scenario.initial()
    triples: list = []

    classes = reach(scenario, init, depth, stop_decided=True)
    if order == "completion-first":
        classes = _completion_first(classes)
    for current, hist, d in classes:
        if completed_count(current) > 0 and scenario.decided(current) is None:
            cls = classify_valence(scenario, current, depth=PROBE_DEPTH)
            if cls.is_bivalent:
                log = logged_events(init, hist, system)
                base = OpHistory(log)
                triple = AuditTriple(
                    base_history=hist,
                    base=base,
                    branch0=OpHistory(log + logged_events(current, cls.certificates[0], system)),
                    branch1=OpHistory(log + logged_events(current, cls.certificates[1], system)),
                    completed=tuple(f"{o.op}#{o.op_id}" for o in base.complete_ops()),
                    depth=d,
                )
                triple.verdict = checker(triple.tree(), spec)
                triples.append(triple)
                if max_triples is not None and len(triples) >= max_triples:
                    return triples
    return triples


def _completion_first(classes):
    """reach's yields with, in each layer, the classes that pair a
    returned operation (SysState.done) with a pending one (the
    implementation's `pending`) ahead of the rest: bivalence with a
    completed op needs something still in flight to swing the decision.

    Such a class is handed on as soon as reach yields it; the layer's
    other classes are held until the layer is complete (reach yields
    layer by layer) and then handed on in discovery order. That is the
    order of stably sorting each whole layer with those classes first,
    but a caller that stops at one of them has paid for no more of the
    layer than reach had discovered by then.
    """
    held: list = []  # the current layer's other classes
    layer = 0
    for item in classes:
        if item[2] != layer:
            yield from held
            held, layer = [], item[2]
        states = item[0].states
        if any(s.done for s in states) and any(s.impl.pending is not None for s in states):
            yield item
        else:
            held.append(item)
    yield from held


# --- plain history-tree exploration (for the tree checkers) --------------------


def explore_history_tree(
    scenario: Scenario, depth: int, max_nodes: int = 600
) -> ExecutionTree:
    """The full scheduling tree to `depth` as an operation-history tree.

    No deduplication: distinct schedules are distinct nodes, which is
    exactly what the strategy checkers quantify over. Guarded by
    max_nodes since the tree is exponential in depth. Built one layer at
    a time, in breadth-first order; steps go by their index in the
    inbox, in enabled-step order. A node's history is its parent's
    extended by the events its step's effect emits, and nodes with equal
    event logs hold one OpHistory object. Only nodes that get expanded
    get a configuration: a leaf's is never built.
    """
    system = scenario.system
    transition = system.transition
    tree = ExecutionTree(OpHistory())
    histories = {(): tree.nodes[0].history}  # event log -> its one OpHistory
    layer = [(scenario.initial(), 0)]
    for d in range(1, depth + 1):
        below = []
        for cfg, nid in layer:
            history = tree.nodes[nid].history
            for p, row in enumerate(cfg.inbox):
                for j, m in enumerate((None,) + row, -1):
                    if len(tree) >= max_nodes:
                        raise SizeLimitError(
                            f"history tree exceeds {max_nodes} nodes at depth {d}"
                        )
                    emitted = transition(cfg.states[p], m).events
                    child = history
                    if emitted:  # else the node shares its parent's history
                        log = history.events + emitted
                        child = histories.get(log)
                        if child is None:
                            child = histories[log] = OpHistory(log)
                    cid = tree.add_node(child, nid)
                    if d < depth:
                        below.append((apply_step(cfg, (p, m), system, j), cid))
        layer = below
    return tree
