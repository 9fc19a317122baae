"""Mailbox matching semantics, the inbox's producer/reader contract and
abort behaviour."""

import sys
import threading
import time

from repro.mpi.errors import SpmdAborted
from repro.mpi.faults import Fault, FaultEngine, FaultPlan
from repro.mpi.mailbox import Mailbox
from repro.mpi.message import Envelope
from repro.mpi.runtime import SpmdRuntime


def env(src=0, tag=0, ctx=0, payload=b"x"):
    return Envelope(
        src=src, dest=1, tag=tag, context=ctx, payload=payload,
        typed=False, nbytes=len(payload), depart_time=0.0,
    )


def test_fifo_per_source_tag():
    mb = Mailbox(1, threading.Event())
    e1, e2 = env(payload=b"1"), env(payload=b"2")
    mb.put(e1)
    mb.put(e2)
    assert mb.take(0, 0, 0) is e1
    assert mb.take(0, 0, 0) is e2


def test_match_by_source_and_tag():
    mb = Mailbox(1, threading.Event())
    a = env(src=0, tag=1)
    b = env(src=2, tag=1)
    c = env(src=0, tag=5)
    for e in (a, b, c):
        mb.put(e)
    assert mb.take(2, 1, 0) is b
    assert mb.take(0, 5, 0) is c
    assert mb.take(0, 1, 0) is a


def test_context_isolation():
    mb = Mailbox(1, threading.Event())
    a = env(ctx=0)
    b = env(ctx=7)
    mb.put(a)
    mb.put(b)
    assert mb.take(0, 0, 7, block=False) is b
    assert mb.take(0, 0, 0, block=False) is a


def test_nonblocking_take_returns_none():
    mb = Mailbox(1, threading.Event())
    assert mb.take(0, 0, 0, block=False) is None


def test_abort_wakes_blocked_take():
    abort = threading.Event()
    mb = Mailbox(1, abort)
    errors = []

    def waiter():
        try:
            mb.take(0, 0, 0)
        except SpmdAborted as exc:
            errors.append(exc)

    t = threading.Thread(target=waiter)
    t.start()
    abort.set()
    mb.wake()
    t.join(timeout=5.0)
    assert not t.is_alive()
    assert len(errors) == 1


def test_delivered_counter():
    mb = Mailbox(1, threading.Event())
    assert mb.delivered == 0
    mb.put(env())
    mb.put(env())
    assert mb.delivered == 2


# ----------------------------------------------------------------------
# the inbox: many producers, one reader
# ----------------------------------------------------------------------
def numbered(src, tag, k, ctx=0):
    return Envelope(
        src=src, dest=1, tag=tag, context=ctx, payload=k,
        typed=False, nbytes=8, depart_time=0.0,
    )


def wait_until_blocked(mb):
    """Poll (by count, not by host clock) until ``mb`` reports a
    blocked receive."""
    for _ in range(1000):
        if mb.wait_state() is not None:
            return
        time.sleep(0.005)
    raise AssertionError("the receive never blocked")


def test_concurrent_producers_keep_each_stream_in_order():
    """Four senders put into one inbox at once, with the interpreter
    switching threads every 10 µs; every (src, tag) stream is received
    complete and in its sender's order, while the receive keeps
    matching streams other than the one pulled next, and every put is
    counted."""
    mb = Mailbox(1, threading.Event())
    n_src, n_msgs, tags = 4, 300, (0, 1, 2)
    start = threading.Barrier(n_src + 1)
    got = {(s, tag): [] for s in range(n_src) for tag in tags}

    def producer(src):
        start.wait()
        for k in range(n_msgs):
            mb.put(numbered(src, tags[k % len(tags)], k))

    def consumer():
        start.wait()
        # round-robin over the streams, newest tag first, while the
        # producers are still putting
        for _ in range(n_msgs // len(tags)):
            for src in reversed(range(n_src)):
                for tag in reversed(tags):
                    got[(src, tag)].append(mb.take(src, tag, 0).payload)

    threads = [threading.Thread(target=producer, args=(s,)) for s in range(n_src)]
    threads.append(threading.Thread(target=consumer, daemon=True))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (src, tag), ks in got.items():
        assert ks == list(range(tag, n_msgs, len(tags))), (src, tag)
    assert all(mb.take(src, tag, 0, block=False) is None for src, tag in got)
    assert mb.delivered == n_src * n_msgs


def test_envelope_pulled_during_another_receive_stays_matchable():
    """A blocked receive for tag 2 pulls the tag-1 envelopes that
    arrive first; a later receive for tag 1 still gets them, in order."""
    mb = Mailbox(1, threading.Event())
    a, b, c = numbered(0, 1, 0), numbered(0, 1, 1), numbered(0, 2, 2)
    got = []
    t = threading.Thread(target=lambda: got.append(mb.take(0, 2, 0)))
    t.start()
    wait_until_blocked(mb)
    mb.put(a)
    mb.put(b)
    mb.put(c)
    t.join(timeout=5.0)
    assert got == [c]
    assert mb.take(0, 1, 0) is a
    assert mb.take(0, 1, 0) is b
    assert mb.take(0, 1, 0, block=False) is None


def test_withheld_notice_matched_before_later_envelope_of_its_stream():
    """A dropped envelope's notice stands in its place: the receive
    re-requests it from the ledger before taking the stream's next
    envelope, which arrived first in the inbox after the notice."""
    rt = SpmdRuntime(
        2, faults=FaultPlan(faults=(Fault("drop", src=0, dest=1, tag=5, nth=1),)),
    )
    first, second = numbered(0, 5, 1), numbered(0, 5, 2)
    rt.deliver(first)  # dropped: the mailbox gets a notice
    rt.deliver(second)
    mb = rt.mailboxes[1]
    assert mb.take(0, 5, 0) is first
    assert mb.take(0, 5, 0) is second
    stats = rt.faults.stats
    assert stats["dropped"] == stats["retransmitted"] == stats["retries"] == 1


def test_wake_without_abort_keeps_the_receive_waiting():
    mb = Mailbox(1, threading.Event())
    got = []
    t = threading.Thread(target=lambda: got.append(mb.take(0, 0, 0)))
    t.start()
    wait_until_blocked(mb)
    mb.wake()
    a = env()
    mb.put(a)
    t.join(timeout=5.0)
    assert got == [a]


def test_wait_state_names_the_blocked_receive():
    mb = Mailbox(1, threading.Event())
    assert mb.wait_state() is None
    t = threading.Thread(target=lambda: mb.take(2, 9, 4))
    t.start()
    wait_until_blocked(mb)
    mb.put(env(src=2, tag=8, ctx=4))  # not the one it waits for
    for _ in range(1000):
        state = mb.wait_state()
        if "1 unmatched" in state:
            break
        time.sleep(0.005)
    assert state.startswith("blocked in recv(src=2, tag=9, ctx=4) for ")
    assert state.endswith("(1 unmatched queued)")
    mb.put(env(src=2, tag=9, ctx=4))
    t.join(timeout=5.0)
    assert not t.is_alive()
    assert mb.wait_state() is None


def test_receive_woken_by_a_tampered_copy_leaves_the_original_in_the_ledger():
    """A blocked receive woken by a corrupted envelope's tampered copy
    returns that copy and re-requests nothing: the pristine original
    stays in the fault ledger for the receive that decodes the tampered
    copy (``Comm.rerequest``).  A receive that took it on a host
    timeout once left it queued behind the tampered copy, and the
    decoding receive found an empty ledger."""
    engine = FaultEngine(FaultPlan.parse("seed=1;corrupt:tag=3,nth=1"), 2)
    mb = Mailbox(1, threading.Event(), engine=engine)
    got = []
    t = threading.Thread(target=lambda: got.append(mb.take(0, 3, 0)))
    t.start()
    wait_until_blocked(mb)
    original = Envelope.from_object(0, 1, 3, 0, "pristine", 0.0)
    (tampered,) = engine.route(original)
    mb.put(tampered)
    t.join(timeout=5.0)
    assert not t.is_alive()
    assert got == [tampered]
    assert mb.take(0, 3, 0, block=False) is None
    assert engine.re_request(1, 0, 3, 0) is original
    assert engine.stats["retransmitted"] == 1
