"""Envelope construction and matching rules."""

import numpy as np

from repro.mpi.message import Envelope


def test_from_array_snapshots():
    a = np.arange(4.0)
    env = Envelope.from_array(0, 1, 5, 0, a, depart_time=1.5)
    a[:] = -1.0
    assert np.array_equal(env.payload, np.arange(4.0))
    assert env.nbytes == 32
    assert env.typed
    assert env.depart_time == 1.5


def test_from_object_pickles():
    env = Envelope.from_object(0, 1, 5, 0, {"k": [1, 2]}, depart_time=0.0)
    assert not env.typed
    assert env.nbytes > 0
    assert env.unpickle() == {"k": [1, 2]}


def test_matching_exact():
    env = Envelope.from_object(src=2, dest=0, tag=7, context=3, obj=1,
                               depart_time=0.0)
    assert env.matches(2, 7, 3)
    assert not env.matches(1, 7, 3)  # wrong source
    assert not env.matches(2, 8, 3)  # wrong tag
    assert not env.matches(2, 7, 4)  # wrong context


def test_context_never_matches_across_communicators():
    env = Envelope.from_object(2, 0, 7, 3, 1, 0.0)
    assert env.matches(2, 7, 3)
    assert not any(env.matches(2, 7, ctx) for ctx in (0, 1, 2, 4))


def test_sequence_numbers_increase():
    a = Envelope.from_object(0, 1, 0, 0, "a", 0.0)
    b = Envelope.from_object(0, 1, 0, 0, "b", 0.0)
    assert b.seq > a.seq
