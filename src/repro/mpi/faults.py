"""Deterministic fault injection for the simulated MPI runtime.

A :class:`FaultPlan` describes an adversarial delivery schedule: which
messages to delay, drop, duplicate or corrupt (matched by source /
destination / tag / per-stream ordinal), and which ranks to stall or
kill at a chosen progress mark (their n-th posted send).  The plan is
seeded and all decisions are functions of deterministic per-fault
counters, so the same plan reproduces the same schedule run after run.

The :class:`FaultEngine` is the runtime-side interpreter.  It sits on
the delivery path (``SpmdRuntime.deliver``) and on the receive side
(:meth:`Mailbox.take`):

- *delay* shifts an envelope's virtual departure time (the modeled
  machine was slow) — virtual time changes, payloads do not;
- *drop* diverts the envelope to a per-destination ledger instead of
  the mailbox, and the runtime tells the destination mailbox at once
  (:meth:`~repro.mpi.mailbox.Mailbox.withhold`).  A receive that
  matches the withheld envelope re-requests it from the ledger
  (``re_request``) without sleeping, modeling receiver-driven
  retransmission; a ``count=k`` drop is handed back on the k-th ask,
  and a receive gives up with
  :class:`~repro.mpi.errors.MessageLostError` after
  :data:`MAX_REREQUESTS` empty asks.  A re-injected envelope keeps its
  original departure stamp and is matched before any later envelope
  of its (src, tag, context) stream, so a run that completes under
  drops is bitwise identical — virtual times and MPI message order
  included — to the fault-free run;
- *dup* delivers the same envelope twice; the mailbox discards the
  duplicate by sequence number;
- *corrupt* delivers a tampered copy and stashes the pristine envelope
  in the ledger, so integrity-checking receivers (frame CRCs, the
  reconstruction ring's chunk checksum) can recover it via
  :meth:`re_request`.  The stashed copy is not announced to the
  mailbox: it must not be matched before the tampered copy is consumed;
- *stall* blocks the rank's thread in host time before its n-th send
  (its peers simply wait for its messages, and a stall longer than
  the job's ``deadlock_timeout`` trips the watchdog); *kill* raises
  :class:`~repro.mpi.errors.InjectedFault` inside the rank, aborting
  the job with a structured :class:`~repro.mpi.errors.SpmdJobError`.

Every recovery is driven by an event (a drop notice, a CRC failure, a
duplicate's arrival, the job abort); no receive reads the host clock
to decide anything.
A message that is never sent leaves its receiver blocked until the job
watchdog raises :class:`~repro.mpi.errors.DeadlockError`, as in a
fault-free job.

Invariant (asserted by the fault-matrix tests): any run that
*completes* under fault injection produces bitwise-identical results
to the fault-free run.
"""

from __future__ import annotations

import pickle
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InjectedFault
from .message import Envelope, next_seq

#: fault kinds understood by the engine
KINDS = ("delay", "drop", "dup", "corrupt", "stall", "kill")

#: empty ledger asks a receive makes for one dropped envelope before it
#: raises :class:`~repro.mpi.errors.MessageLostError`
MAX_REREQUESTS = 6


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown fault kind {kind!r}; choose from {KINDS}")


@dataclass(frozen=True)
class Fault:
    """One injected fault.

    Message faults (``delay``/``drop``/``dup``/``corrupt``) match
    envelopes by ``src``/``dest``/``tag`` (``None`` = wildcard) and
    fire on the ``nth`` matching message (1-based; ``None`` = every
    match, subject to ``prob``).  ``count`` is how many delivery
    attempts a ``drop`` suppresses (1 = the eager send only; the first
    re-request succeeds).  Rank faults (``stall``/``kill``) trigger
    when ``rank`` posts its ``after``-th send.
    """

    kind: str
    src: Optional[int] = None
    dest: Optional[int] = None
    tag: Optional[int] = None
    #: 1-based ordinal *within each (src, dest) stream*.  Streams are
    #: counted separately because only the per-stream order (the
    #: sender's program order) is deterministic — a global ordinal
    #: would depend on how the host scheduler interleaves sender
    #: threads, breaking same-seed-same-schedule reproducibility.
    nth: Optional[int] = None
    count: int = 1
    seconds: float = 0.0
    prob: float = 1.0
    rank: Optional[int] = None
    after: int = 1

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        if self.kind in ("stall", "kill") and self.rank is None:
            raise ValueError(f"{self.kind} fault requires rank=")
        if self.count < 1:
            raise ValueError(f"drop count must be >= 1, got {self.count}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {self.prob}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")

    def matches_message(self, env: Envelope) -> bool:
        if self.kind in ("stall", "kill"):
            return False
        if self.src is not None and env.src != self.src:
            return False
        if self.dest is not None and env.dest != self.dest:
            return False
        if self.tag is not None and env.tag != self.tag:
            return False
        return True


def _parse_int(v: str) -> Optional[int]:
    return None if v in ("*", "any") else int(v)


#: keys of a fault clause (``kind:key=val,...``) and their parsers
_FAULT_KEYS = {
    "src": _parse_int, "dest": _parse_int, "tag": _parse_int,
    "nth": int, "count": int, "seconds": float, "prob": float,
    "rank": int, "after": int,
}


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic set of faults.

    Build programmatically::

        FaultPlan(faults=(Fault("drop", src=0, dest=1, tag=3, nth=1),),
                  seed=7)

    or parse the CLI/bench spec grammar — semicolon-separated clauses,
    each ``kind:key=value,...``::

        "seed=7;drop:src=0,dest=1,tag=3,nth=1"
    """

    faults: Tuple[Fault, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        seed = 0
        faults: List[Fault] = []
        for raw in spec.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                seed = int(clause[5:])
                continue
            if ":" not in clause:
                raise ValueError(
                    f"bad fault clause {clause!r}: expected 'kind:key=val,...'"
                )
            kind, _, body = clause.partition(":")
            kind = kind.strip()
            _check_kind(kind)
            kv: Dict[str, str] = {}
            for item in body.split(","):
                item = item.strip()
                if not item:
                    continue
                k, _, v = item.partition("=")
                k = k.strip()
                if k not in _FAULT_KEYS:
                    raise ValueError(
                        f"unknown key {k!r} in {kind} clause {clause!r}; "
                        f"expected one of {', '.join(_FAULT_KEYS)}"
                    )
                kv[k] = v.strip()
            faults.append(
                Fault(kind=kind, **{k: _FAULT_KEYS[k](v) for k, v in kv.items()})
            )
        return cls(faults=tuple(faults), seed=seed)

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for f in self.faults:
            keys = ("src", "dest", "tag", "nth", "count", "seconds", "prob",
                    "rank", "after")
            defaults = Fault(kind=f.kind, rank=f.rank)
            kv = ",".join(
                f"{k}={getattr(f, k)}"
                for k in keys
                if getattr(f, k) != getattr(defaults, k)
            )
            parts.append(f"{f.kind}:{kv}" if kv else f.kind)
        return ";".join(parts)


def _tamper(obj: Any, rng: np.random.Generator) -> Tuple[Any, bool]:
    """Deterministically corrupt the first tamper-able element of a
    payload; returns ``(tampered, changed)``.  Containers are walked
    recursively so a pickled ``(bytes, ndarray, ndarray, crc)`` ring
    chunk gets one flipped byte, not an invalid pickle."""
    if isinstance(obj, np.ndarray) and obj.size:
        out = obj.copy()
        flat = out.reshape(-1).view(np.uint8)
        flat[int(rng.integers(flat.size))] ^= 0xFF
        return out, True
    if isinstance(obj, (bytes, bytearray)) and len(obj):
        out = bytearray(obj)
        out[int(rng.integers(len(out)))] ^= 0xFF
        return bytes(out), True
    if isinstance(obj, (tuple, list)):
        items = list(obj)
        for i, item in enumerate(items):
            tampered, changed = _tamper(item, rng)
            if changed:
                items[i] = tampered
                return (tuple(items) if isinstance(obj, tuple) else items), True
    return obj, False


class _FaultState:
    """Mutable per-fault bookkeeping (the Fault itself stays frozen).

    Match counters and RNG draws are keyed by (src, dest) stream: the
    order of envelopes *within* a stream is the sender's program order
    and therefore deterministic, while the interleaving *across*
    streams is host-scheduler noise that must not influence decisions.
    """

    __slots__ = ("fault", "matched", "fired", "_seed", "_index", "_rngs")

    def __init__(self, fault: Fault, seed: int, index: int):
        self.fault = fault
        self.matched: Dict[Tuple[int, int], int] = {}  # stream -> count
        self.fired = 0  # times the fault actually triggered
        self._seed = seed
        self._index = index
        self._rngs: Dict[Tuple[int, int], np.random.Generator] = {}

    def stream_rng(self, env: Envelope) -> np.random.Generator:
        key = (env.src, env.dest)
        rng = self._rngs.get(key)
        if rng is None:
            rng = np.random.default_rng(
                (self._seed, self._index, env.src, env.dest)
            )
            self._rngs[key] = rng
        return rng

    def ordinal(self, env: Envelope) -> int:
        return self.matched.get((env.src, env.dest), 0)

    def should_fire(self, env: Envelope) -> bool:
        f = self.fault
        key = (env.src, env.dest)
        count = self.matched.get(key, 0) + 1
        self.matched[key] = count
        if f.nth is not None and count != f.nth:
            return False
        if f.prob < 1.0 and float(self.stream_rng(env).random()) >= f.prob:
            return False
        self.fired += 1
        return True


class _LedgerEntry:
    """A withheld envelope awaiting receiver-driven retransmission."""

    __slots__ = ("env", "remaining", "dropped")

    def __init__(self, env: Envelope, remaining: int, dropped: bool):
        self.env = env
        self.remaining = remaining  # re-requests still to suppress
        #: a drop (announced to the destination mailbox, recovered by
        #: sequence number), not the pristine original of a corrupt copy
        self.dropped = dropped


class FaultEngine:
    """Thread-safe interpreter of one :class:`FaultPlan` for one job.

    Locking discipline: the engine lock is the only lock on the
    delivery path.  Mailboxes hold none (senders only put into a
    rank's inbox; its own thread matches), and the engine lock is
    never held while putting into one: delivery decisions, the
    announcement of a drop included, are computed under the lock and
    applied outside it.
    """

    def __init__(self, plan: FaultPlan, nprocs: int, tracer=None):
        self.plan = plan
        self.nprocs = nprocs
        self._tracer = tracer
        self._lock = threading.Lock()
        self._states = [
            _FaultState(f, plan.seed, i) for i, f in enumerate(plan.faults)
        ]
        self._message_states = [
            st for st in self._states if st.fault.kind not in ("stall", "kill")
        ]
        self._rank_states = [
            st for st in self._states if st.fault.kind in ("stall", "kill")
        ]
        #: True when the plan can ever withhold or re-deliver a message;
        #: mailboxes skip duplicate tracking otherwise
        self.needs_dedup = any(
            st.fault.kind in ("drop", "dup", "corrupt")
            for st in self._message_states
        )
        self._ledger: Dict[int, List[_LedgerEntry]] = {
            r: [] for r in range(nprocs)
        }
        self._sends: Dict[int, int] = {r: 0 for r in range(nprocs)}
        #: counters published in SpmdResult.fault_stats
        self.stats: Dict[str, int] = {
            "delayed": 0, "dropped": 0, "duplicated": 0, "corrupted": 0,
            "stalled": 0, "killed": 0, "retransmitted": 0,
            "retries": 0, "dup_discarded": 0,
        }
        #: deterministic record of fired message faults, for the
        #: same-seed-same-schedule tests: (kind, src, dest, tag, ordinal)
        self.schedule: List[Tuple[str, int, int, int, int]] = []

    # ------------------------------------------------------------------
    # send-side hooks
    # ------------------------------------------------------------------
    def before_send(self, rank: int) -> None:
        """Stall/kill hook: called by the communicator before a send."""
        if not self._rank_states:  # fast path: no rank faults scheduled
            return
        stall_for = 0.0
        kill_ordinal = None
        with self._lock:
            self._sends[rank] += 1
            ordinal = self._sends[rank]
            for st in self._rank_states:
                f = st.fault
                if f.rank != rank:
                    continue
                if ordinal != f.after:
                    continue
                st.fired += 1
                if f.kind == "kill":
                    self.stats["killed"] += 1
                    kill_ordinal = ordinal
                    break
                self.stats["stalled"] += 1
                stall_for = max(stall_for, f.seconds)
        if kill_ordinal is not None:
            raise InjectedFault(rank, kill_ordinal)
        if stall_for > 0.0:
            time.sleep(stall_for)  # host time only; virtual clock untouched

    # ------------------------------------------------------------------
    # delivery-side hook
    # ------------------------------------------------------------------
    def route(self, env: Envelope) -> List[Envelope]:
        """Decide the fate of one envelope; returns what to deliver now.

        An empty list means the envelope was dropped into the ledger;
        the caller announces it to the destination mailbox."""
        if not self._message_states:  # fast path: no message faults
            return [env]
        with self._lock:
            for st in self._message_states:
                f = st.fault
                if not f.matches_message(env):
                    continue
                if not st.should_fire(env):
                    continue
                self.schedule.append((f.kind, env.src, env.dest, env.tag,
                                      st.ordinal(env)))
                self._trace(f.kind, env)
                if f.kind == "delay":
                    self.stats["delayed"] += 1
                    return [replace(env, depart_time=env.depart_time + f.seconds)]
                if f.kind == "drop":
                    self.stats["dropped"] += 1
                    self._ledger[env.dest].append(
                        _LedgerEntry(env, remaining=f.count - 1, dropped=True)
                    )
                    return []
                if f.kind == "dup":
                    self.stats["duplicated"] += 1
                    return [env, env]
                if f.kind == "corrupt":
                    self.stats["corrupted"] += 1
                    self._ledger[env.dest].append(
                        _LedgerEntry(env, remaining=0, dropped=False)
                    )
                    return [self._corrupted(env, st.stream_rng(env))]
        return [env]

    def _corrupted(self, env: Envelope, rng: np.random.Generator) -> Envelope:
        # the tampered copy gets its own sequence number: it must not
        # shadow the pristine original in the duplicate-discard layer
        if env.typed:
            tampered, _ = _tamper(env.payload, rng)
            return replace(env, payload=tampered, seq=next_seq())
        try:
            obj = pickle.loads(env.payload)
            tampered, changed = _tamper(obj, rng)
            if changed:
                blob = pickle.dumps(tampered, protocol=pickle.HIGHEST_PROTOCOL)
                if len(blob) == len(env.payload):
                    return replace(env, payload=blob, seq=next_seq())
        except Exception:  # pragma: no cover - defensive
            pass
        # fallback: flip a raw byte of the pickle stream (the receiver
        # sees CorruptMessageError from unpickle instead of a checksum
        # mismatch — both feed the same recovery path)
        blob, _ = _tamper(bytes(env.payload), rng)
        return replace(env, payload=blob, seq=next_seq())

    # ------------------------------------------------------------------
    # receiver-driven recovery
    # ------------------------------------------------------------------
    def re_request(
        self,
        dest: int,
        src: int,
        tag: int,
        context: int,
        seq: Optional[int] = None,
    ) -> Optional[Envelope]:
        """A receiver asks for a withheld envelope; every call is one retry.

        With ``seq``, the request names a dropped envelope that the
        destination mailbox was told about.  Only that mailbox recovers
        drops, so a dropped envelope is handed out exactly once.
        Without ``seq``, it asks for the pristine original of a
        corrupted envelope matching (src, tag, context); only a
        receiver that decoded the tampered copy asks for it.

        Returns the pristine envelope when one is due for
        retransmission (the caller delivers it), ``None`` when nothing
        matching is ledgered or the fault still suppresses it.
        """
        with self._lock:
            self.stats["retries"] += 1
            entries = self._ledger[dest]
            for i, entry in enumerate(entries):
                if seq is not None:
                    if entry.env.seq != seq:
                        continue
                elif entry.dropped or not entry.env.matches(src, tag, context):
                    continue
                if entry.remaining > 0:
                    entry.remaining -= 1
                    return None
                del entries[i]
                self.stats["retransmitted"] += 1
                self._trace("retransmit", entry.env)
                # original depart stamp: retransmission is a host-level
                # artifact, invisible to the modeled machine
                return entry.env
        return None

    def note_duplicate(self, env: Envelope) -> None:
        with self._lock:
            self.stats["dup_discarded"] += 1
            self._trace("dup_discard", env)

    def _trace(self, op: str, env: Envelope) -> None:
        if self._tracer is not None:
            self._tracer.record(
                env.src, "fault", op, env.dest, env.nbytes,
                env.depart_time, env.depart_time,
            )

    def report(self) -> Dict[str, Any]:
        """Snapshot of counters + the deterministic fired-fault schedule."""
        with self._lock:
            return {
                "plan": self.plan.describe(),
                "stats": dict(self.stats),
                "schedule": sorted(self.schedule),
            }


def as_plan(faults) -> Optional[FaultPlan]:
    """Coerce ``None`` | spec-string | :class:`FaultPlan` to a plan."""
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return faults
    if isinstance(faults, str):
        return FaultPlan.parse(faults)
    if isinstance(faults, Sequence):
        return FaultPlan(faults=tuple(faults))
    raise TypeError(
        f"faults must be a FaultPlan, spec string or fault sequence, "
        f"got {type(faults).__name__}"
    )
