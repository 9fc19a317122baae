"""Mailbox matching semantics and abort behaviour."""

import threading

from repro.mpi.errors import SpmdAborted
from repro.mpi.mailbox import Mailbox
from repro.mpi.message import Envelope


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


def test_wildcards():
    mb = Mailbox(1, threading.Event())
    a = env(src=3, tag=9)
    mb.put(a)
    assert mb.take(-1, -1, 0) is a


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


def test_probe_does_not_remove():
    mb = Mailbox(1, threading.Event())
    a = env()
    mb.put(a)
    assert mb.probe(0, 0, 0) is a
    assert mb.probe(0, 0, 0) is a
    assert mb.take(0, 0, 0) is a


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
