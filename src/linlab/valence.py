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
  * build_hbi: iterate that against a rotating process queue, always
    forcing the oldest pending message, to produce an arbitrarily long
    schedule that keeps every process taking steps, keeps every
    traversed configuration bivalent, and (on subjects where the search
    can steer around completions) never lets any operation finish;
  * completed_implies_univalent_audit: sweep reachable configurations
    for the incriminating combination "some operation completed, yet
    still bivalent", and package each hit as a three-node history tree
    whose induced strategy check must come back negative.

Everything here is deterministic: exploration orders are canonical and
any randomness is confined to seeding the process rotation.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, groupby
from operator import itemgetter
from typing import NamedTuple, Optional

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
    SchedulingMode,
    Step,
    apply_history,
    apply_step,
    applicable,
    enabled_steps,
    initial_configuration,
)
from .protocols import BuiltProtocol, build_protocol
from .seqspec import INVOCATION, OpHistory, RESPONSE


class _Timeout:
    def __repr__(self) -> str:
        return "Timeout"


TIMEOUT = _Timeout()

FAIR_BOUND = 240  # steps a fair run takes before it gives up
VALENCE_DEPTH = 8  # default depth of classify_valence's bounded sweep
PROBE_DEPTH = 3  # the sweep fair-probes every class this shallow


@dataclass
class Scenario:
    """A runnable experiment: protocol, driver, decision op, rotation."""

    built: BuiltProtocol
    name: str
    seed: Optional[int] = None
    rotation: Optional[tuple] = None
    _absolute: dict = field(default_factory=dict, repr=False, compare=False)
    _bounded: dict = field(default_factory=dict, repr=False, compare=False)
    _suffixes: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def system(self):
        return self.built.system

    @property
    def n(self) -> int:
        return self.built.system.num_processes

    @property
    def decision_process(self) -> Optional[int]:
        return self.built.decision_process

    @property
    def decision_op(self) -> Optional[str]:
        return self.built.decision_op

    def initial(self) -> Configuration:
        return initial_configuration(self.system)

    def decided(self, config: Configuration) -> Optional[int]:
        """Value the decision operation returned in config, if it has."""
        if self.decision_op is None:
            return None
        for ev in reversed(config.events):
            if (
                ev.kind == RESPONSE
                and ev.process == self.decision_process
                and ev.op.name == self.decision_op
            ):
                return ev.value
        return None

    def vkey(self, config: Configuration) -> tuple:
        """Behavioral identity: forward core plus decision status.

        Raw values rather than digests: states and payload tuples hash
        by value and the frozensets cache their own hashes, which beats
        re-encoding the whole configuration on every dedup probe.
        """
        return (config.core_key(), self.decided(config))


def build_scenario(protocol: str = "naive-tos", n: Optional[int] = None, **kw) -> Scenario:
    built = build_protocol(protocol, n)
    return Scenario(built=built, name=protocol, **kw)


def completed_count(config: Configuration) -> int:
    return sum(1 for ev in config.events if ev.kind == RESPONSE)


def pending_count(config: Configuration) -> int:
    invoked = sum(1 for ev in config.events if ev.kind == INVOCATION)
    return invoked - completed_count(config)


# --- reachability ------------------------------------------------------------


def reach(
    scenario: Scenario,
    start: Configuration,
    depth: int,
    *,
    forbid: Optional[Step] = None,
    stop_decided: bool = False,
    rank=None,
):
    """Breadth-first sweep of the configurations reachable from start.

    Yields (config, history, d) once per vkey class within `depth`
    steps, start first, each as soon as it is discovered, so a caller
    that stops early pays for no more than it saw. Within a layer,
    steps go by process id, idle receipt first, then messages oldest
    first. Classes at `depth` are yielded but never kept for expansion;
    so are decided classes under stop_decided. `forbid` is a step no
    history takes. `rank` maps a configuration to a sort key: each
    layer is expanded in that order (a stable sort of discovery order),
    which orders the layer below it.

    Sleep sets (Godefroid, LNCS 1032) skip edges that can only land on
    a class already seen. Say c was reached from its parent P by a step
    of process p, and s is a step of a process q < p enabled at P. Steps
    of distinct processes commute on vkey (see the model module), so
    c·s lies in the class of P·s·t, where t is c's own step. If the
    class of P·s was expanded before c, that expansion applied t or
    skipped it by this same rule, so c·s is a dedup hit and c skips s.
    Without rank, s qualifies when P computed it and its class, new or
    already seen, is expandable (not decided under stop_decided), and
    when s was asleep at P itself: q's state is then the same as at P's
    parent, so P·s is not decided either, and its class entered `seen`
    before P was expanded. Under rank the layer is reordered, so only
    the siblings P discovered, with a rank no greater than c's, sleep.
    Every skipped edge is a dedup hit, so the yields are exactly those
    of the unpruned sweep.
    """
    system = scenario.system
    key = scenario.vkey(start)
    seen = {key}
    yield start, (), 0
    # an entry is (config, history, sleepers, cut, rank): c's sleepers
    # are the first `cut` entries of a list shared with its siblings,
    # in enabled-step order; under rank they are (step, rank) pairs
    layer = deque()
    if depth > 0 and not (stop_decided and key[1] is not None):
        layer.append((start, (), (), 0, None if rank is None else rank(start)))
    d = 0
    while layer:
        d += 1
        if rank is not None:
            layer = deque(sorted(layer, key=itemgetter(4)))
        below: deque = deque()
        keep = d < depth  # else no child is expanded, nor needs sleepers
        while layer:
            config, hist, sleepers, cut, r = layer.popleft()
            if rank is not None:
                sleepers = [s for s, rs in sleepers[:cut] if rs <= r]
                cut = len(sleepers)
            shared: list = []
            i = 0
            for p in range(scenario.n):
                sibling_cut = len(shared)
                for step in enabled_steps(config, p, SchedulingMode.FULL_NONDET):
                    # a sleeper is still enabled here, in the same order,
                    # holding the same message object as at the parent
                    if i < cut:
                        s = sleepers[i]
                        if s.received is step.received and s.process == p:
                            i += 1
                            if keep and rank is None:
                                shared.append(step)
                            continue
                    if forbid is not None and step == forbid:
                        continue
                    child = apply_step(config, step, system)
                    key = scenario.vkey(child)
                    expandable = not (stop_decided and key[1] is not None)
                    if key in seen:
                        if keep and expandable and rank is None:
                            shared.append(step)
                        continue
                    seen.add(key)
                    child_hist = hist + (step,)
                    yield child, child_hist, d
                    if keep and expandable:
                        cr = None if rank is None else rank(child)
                        below.append((child, child_hist, shared, sibling_cut, cr))
                        shared.append(step if rank is None else (step, cr))
        layer = below


# --- fair schedules ---------------------------------------------------------


@dataclass
class FairRun:
    history: tuple
    value: object  # 0 | 1 | TIMEOUT
    final: Configuration


def _stable(a: Configuration, b: Configuration) -> bool:
    return a.states == b.states and a.buffer == b.buffer and a.channels == b.channels


DECIDED, QUIESCENT, BOUND = "decided", "quiescent", "bound"


class _Suffix(NamedTuple):
    """How a finished fair run went on from one of its round boundaries:
    the run, where the boundary sits in its history and in its final
    event log, and how the run ended."""

    run: FairRun
    offset: int
    logged: int
    ended: str

    def fits(self, budget: int) -> bool:
        """Would a run with `budget` steps left at this boundary take
        exactly this suffix? A decided or quiescent suffix fits any
        budget that covers it; one cut at the bound only its own."""
        length = len(self.run.history) - self.offset
        return length == budget if self.ended == BOUND else length <= budget

    def resume(self, history: list, current: Configuration) -> FairRun:
        """The whole run for a caller that reached this boundary at
        `current` after taking `history`."""
        tail = self.run.history[self.offset:]
        end = self.run.final
        final = Configuration(
            states=end.states,
            buffer=end.buffer,
            events=current.events + end.events[self.logged:],
            step_count=current.step_count + len(tail),
            channels=end.channels,
        )
        return FairRun(tuple(history) + tail, self.run.value, final)


def _fair_run(scenario: Scenario, config: Configuration, live, bound: int) -> FairRun:
    """Round-robin over live processes, oldest message first, until the
    decision returns, the system stops changing, or the bound is hit.

    What happens after a round boundary depends only on the boundary's
    vkey, the live processes and the steps left, so every boundary a
    run passes is remembered in the scenario's suffix memo. A later run
    that reaches a remembered boundary with a budget the suffix fits
    takes the suffix instead of stepping it again; the resumed history,
    value, event log and core equal those of the stepped run.
    """
    system = scenario.system
    v = scenario.decided(config)
    if v is not None:
        return FairRun((), v, config)
    live = tuple(live)
    if not live:
        return FairRun((), TIMEOUT, config)
    memo = scenario._suffixes
    boundaries: list = []  # (key, history offset, event-log length)
    history: list = []
    current = config
    steps = 0
    run = None
    ended = BOUND
    while steps < bound:
        key = (scenario.vkey(current), live)
        hit = memo.get(key)
        if hit is not None and hit.fits(bound - steps):
            run, ended = hit.resume(history, current), hit.ended
            break
        boundaries.append((key, steps, len(current.events)))
        before = current
        for p in live:
            step = enabled_steps(current, p, SchedulingMode.EARLIEST_ONLY)[0]
            current = apply_step(current, step, system)
            history.append(step)
            steps += 1
            v = scenario.decided(current)
            if v is not None:
                run, ended = FairRun(tuple(history), v, current), DECIDED
                break
            if steps >= bound:
                break
        if run is not None:
            break
        if steps < bound and _stable(before, current):
            ended = QUIESCENT  # nothing will ever change again
            break
    if run is None:
        run = FairRun(tuple(history), TIMEOUT, current)
    for key, offset, logged in boundaries:
        if ended != BOUND or key not in memo:
            memo[key] = _Suffix(run, offset, logged, ended)
    return run


def fair_completion(
    scenario: Scenario,
    config: Configuration,
    crashed: Optional[int] = None,
    bound: Optional[int] = None,
) -> FairRun:
    """Fair round-robin schedule with at most one crashed process."""
    if crashed is not None and not (isinstance(crashed, int) and 0 <= crashed < scenario.n):
        raise PreconditionViolated(
            f"crashed must be None or a process id below {scenario.n}, not {crashed!r}"
        )
    bound = FAIR_BOUND if bound is None else bound
    live = [p for p in range(scenario.n) if p != crashed]
    return _fair_run(scenario, config, live, bound)


def staged_probe(scenario: Scenario, config: Configuration, hold: int) -> FairRun:
    """Hold one process back until the rest quiesce, then run everyone.

    Fair overall (the held process still takes infinitely many steps in
    the limit); exists to harvest order-dependent decision values.
    """
    live = [p for p in range(scenario.n) if p != hold]
    first = _fair_run(scenario, config, live, FAIR_BOUND)
    if first.value is not TIMEOUT:
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
                str(v): [
                    {"process": s.process,
                     "message_uid": None if s.received is None else s.received.uid}
                    for s in hist
                ]
                for v, hist in sorted(self.certificates.items())
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
    the scenario's suffix memo (see _fair_run).

    Bivalent and already-decided verdicts are absolute and cached by
    behavioral key; bounded verdicts are cached per (key, depth).
    """
    depth = VALENCE_DEPTH if depth is None else depth
    v0 = scenario.decided(config)
    if v0 is not None:
        return Valence(_VALENT[v0], {v0: ()}, exhausted=True, depth=0)

    key = scenario.vkey(config)
    hit = scenario._absolute.get(key)
    if hit is not None:
        return hit
    hit = scenario._bounded.get((key, depth))
    if hit is not None:
        return hit

    certs: dict = {}

    def record(run: FairRun, prefix: tuple = ()) -> None:
        if run.value is not TIMEOUT and run.value not in certs:
            certs[run.value] = prefix + run.history

    record(fair_completion(scenario, config))
    for q in range(scenario.n):
        if 0 in certs and 1 in certs:
            break
        record(staged_probe(scenario, config, q))
        record(fair_completion(scenario, config, crashed=q))

    if 0 in certs and 1 in certs:
        out = Valence(ValenceTag.BIVALENT, certs, exhausted=False, depth=0)
        scenario._absolute[key] = out
        return out

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
            out = Valence(ValenceTag.BIVALENT, certs, exhausted=False, depth=d)
            scenario._absolute[key] = out
            return out

    if len(certs) == 1 and not truncated:
        v = next(iter(certs))
        out = Valence(_VALENT[v], certs, exhausted=True, depth=depth)
        scenario._absolute[key] = out
        return out
    out = Valence(ValenceTag.UNKNOWN_AT_BOUND, certs, exhausted=not truncated, depth=depth)
    scenario._bounded[(key, depth)] = out
    return out


# --- bivalent successor search ------------------------------------------------


@dataclass
class BivalentSuccessor:
    config: Configuration
    detour: tuple  # steps applied before the forced one
    step: Step
    valence: Valence
    new_completions: int


@dataclass
class SuccessorNotFound:
    explored: int
    evidence: tuple

    def __bool__(self) -> bool:  # truthiness mirrors "found"
        return False


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
    explored = 0
    cand_tags: dict = {}  # detour -> ValenceTag of e(detour config)
    held_configs: dict = {}  # detours ending in a step of e.process, for evidence
    fallback = None  # shallowest bivalent-but-completing candidate

    for cfg, det, _ in reach(scenario, config, search_depth, forbid=step_e):
        succ = apply_step(cfg, step_e, system)
        cls = classify_valence(scenario, succ)
        explored += 1
        cand_tags[det] = cls.tag
        if det and det[-1].process == step_e.process:
            held_configs[det] = cfg
        if cls.is_bivalent:
            new = completed_count(succ) - base_completed
            if new == 0:
                return BivalentSuccessor(succ, det, step_e, cls, new)
            if fallback is None:
                fallback = BivalentSuccessor(succ, det, step_e, cls, new)

    if fallback is not None:
        return fallback
    evidence = _case_two_evidence(scenario, step_e, cand_tags, held_configs)
    return SuccessorNotFound(explored=explored, evidence=evidence)


def _case_two_evidence(scenario, step_e, cand_tags, held_configs) -> tuple:
    """Spot pairs where stepping the forced process again flips the
    resulting valence, and show that stalling that process still lets
    some operation complete under a fair schedule."""
    univalent = {ValenceTag.ZERO_VALENT, ValenceTag.ONE_VALENT}
    out = []
    for det, tag in cand_tags.items():
        if not det or det[-1].process != step_e.process or tag not in univalent:
            continue
        parent = det[:-1]
        ptag = cand_tags.get(parent)
        if ptag in univalent and ptag is not tag:
            cfg = held_configs.get(det)
            completes = None
            if cfg is not None:
                live = [p for p in range(scenario.n) if p != step_e.process]
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
    completions: tuple  # response events appended along the way (want: none)
    rounds_completed: int
    stuck: Optional[HbiStuck]

    def certificates_at(self, index: int) -> dict:
        """Bivalence certificates for the configuration after `index`
        steps of the history: ride the current segment to its end, then
        use the end configuration's certificates. Valence never recovers
        once lost, so an ancestor of a certified-bivalent configuration
        is itself bivalent via exactly this suffix construction."""
        for seg in reversed(self.segments):
            if seg.start_index <= index:
                end = seg.start_index + seg.detour_len + 1
                bridge = self.history[index:end]
                return {v: bridge + h for v, h in seg.certificates.items()}
        raise IndexError(index)

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

    Per slot: take the next process p off the rotation, force
    e = (p, oldest buffered message for p, or the idle receipt), ask
    bivalent_successor for a detour that keeps e's application bivalent,
    append detour plus e, and send p to the back of the queue. A full
    round schedules every process once. Getting stuck is reported, not
    raised: it means the certified-bivalent frontier ran out within the
    search depth, which the guarantees of a strongly linearizable
    subject would rule out but our deliberately weak subjects may not.
    """
    init = scenario.initial()
    start = classify_valence(scenario, init)
    if not start.is_bivalent:
        raise PreconditionViolated("initial configuration is not certified bivalent")

    order = list(range(scenario.n)) if scenario.rotation is None else list(scenario.rotation)
    if scenario.seed is not None:
        random.Random(scenario.seed).shuffle(order)
    rotation = tuple(order)

    queue = deque(order)
    history: list = []
    segments: list = []
    current = init
    stuck = None
    rounds_done = 0

    for r in range(1, rounds + 1):
        for slot in range(scenario.n):
            p = queue[0]
            msgs = current.messages_for(p)
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
            queue.rotate(-1)
        if stuck is not None:
            break
        rounds_done = r

    completions = tuple(
        ev for ev in current.events[len(init.events):] if ev.kind == RESPONSE
    )
    return HbiReport(
        scenario=scenario.name,
        rotation=rotation,
        history=tuple(history),
        segments=segments,
        completions=completions,
        rounds_completed=rounds_done,
        stuck=stuck,
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
    verdict: object = None  # checker result, populated when check=True

    def tree(self) -> ExecutionTree:
        return make_triple_tree(self.base, self.branch0, self.branch1)


def completed_implies_univalent_audit(
    scenario: Scenario,
    depth: int,
    spec,
    checker_mode: str = "strong",
    max_triples: Optional[int] = None,
    order: str = "bfs",
    check: bool = True,
) -> list:
    """Sweep reachable configurations for completed-yet-bivalent states.

    Every hit is packaged as the three-node tree {base, base+cert0,
    base+cert1}; with check=True the matching strategy checker runs on
    it (these trees admit no strategy when the audit works as intended,
    and the verdict is recorded on the triple).

    order="completion-first" visits, within each depth, configurations
    that pair a completed operation with a pending one first, which
    reaches the interesting region much sooner on protocols whose
    operations take many steps; "bfs" is plain breadth-first. Both are
    deterministic. Exploration deduplicates by behavioral key, so each
    behavior class is audited once, through its first-discovered
    history.

    The audit only acts on certified-bivalent configurations, so each
    candidate is classified to PROBE_DEPTH: enough to hunt certificates,
    without paying for univalence confirmation at every completed node.
    """
    system = scenario.system
    triples: list = []

    rank = _completion_rank if order == "completion-first" else None
    classes = reach(scenario, scenario.initial(), depth, stop_decided=True, rank=rank)
    if rank is not None:  # examine each layer in the order it is expanded
        classes = chain.from_iterable(
            sorted(layer, key=lambda item: rank(item[0]))
            for _, layer in groupby(classes, key=itemgetter(2))
        )
    for current, hist, d in classes:
        if completed_count(current) > 0 and scenario.decided(current) is None:
            cls = classify_valence(scenario, current, depth=PROBE_DEPTH)
            if cls.is_bivalent:
                c0, _ = apply_history(current, cls.certificates[0], system)
                c1, _ = apply_history(current, cls.certificates[1], system)
                base = OpHistory(current.events)
                triple = AuditTriple(
                    base_history=hist,
                    base=base,
                    branch0=OpHistory(c0.events),
                    branch1=OpHistory(c1.events),
                    completed=tuple(f"{o.op}#{o.op_id}" for o in base.complete_ops()),
                    depth=d,
                )
                if check:
                    checker = (
                        strong_linearization_exists
                        if checker_mode == "strong"
                        else write_strong_linearization_exists
                    )
                    triple.verdict = checker(triple.tree(), spec)
                triples.append(triple)
                if max_triples is not None and len(triples) >= max_triples:
                    return triples
    return triples


def _completion_rank(config: Configuration) -> int:
    """Classes that pair a response with a pending op come first:
    bivalence with a completed op needs something still in flight to
    swing the decision. The rank only reorders each layer, so the audit
    never explores more than plain breadth-first."""
    return 0 if completed_count(config) > 0 and pending_count(config) > 0 else 1


# --- plain history-tree exploration (for the tree checkers) --------------------


def explore_history_tree(
    scenario: Scenario, depth: int, max_nodes: int = 600
) -> ExecutionTree:
    """The full scheduling tree to `depth` as an operation-history tree.

    No deduplication: distinct schedules are distinct nodes, which is
    exactly what the strategy checkers quantify over. Guarded by
    max_nodes since the tree is exponential in depth.
    """
    system = scenario.system
    init = scenario.initial()
    tree = ExecutionTree(OpHistory(init.events))
    frontier = deque([(init, 0, 0)])
    count = 1
    while frontier:
        cfg, nid, d = frontier.popleft()
        if d >= depth:
            continue
        for p in range(scenario.n):
            for step in enabled_steps(cfg, p, SchedulingMode.FULL_NONDET):
                nxt = apply_step(cfg, step, system)
                count += 1
                if count > max_nodes:
                    raise SizeLimitError(
                        f"history tree exceeds {max_nodes} nodes at depth {d + 1}"
                    )
                cid = tree.add_node(OpHistory(nxt.events), nid)
                frontier.append((nxt, cid, d + 1))
    return tree
