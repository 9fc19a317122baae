"""Fault-injection layer: plan parsing, deterministic scheduling, and
per-kind behaviour of the runtime under an adversarial delivery schedule.

Every completing job must be bitwise identical to its fault-free run —
results *and* virtual times — and every non-completing job must fail
with a structured error.

Recovery is event-driven and no receive has a host timeout, so the
drop tests run behind a :data:`WATCHDOG` of a few seconds: a receiver
that misses its wake-up fails the test with a ``DeadlockError``
instead of passing slowly.
"""

import sys
import time

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.mpi.errors import (
    DeadlockError,
    InjectedFault,
    MessageLostError,
    SpmdJobError,
)
from repro.mpi.faults import MAX_REREQUESTS, Fault, FaultPlan, as_plan

pytestmark = pytest.mark.faults

#: host seconds without message progress before the job watchdog ends
#: a test's job with a ``DeadlockError``
WATCHDOG = 5.0


def pingpong(comm):
    """rank 0 -> 1 object send, 1 -> 0 reply; returns the reply on 0."""
    if comm.rank == 0:
        comm.send({"x": np.arange(4.0)}, dest=1, tag=5)
        return comm.recv(source=1, tag=6)
    obj = comm.recv(source=0, tag=5)
    comm.send(float(obj["x"].sum()), dest=0, tag=6)
    return None


def ring_allreduce(comm):
    return comm.allreduce(float(comm.rank + 1))


class TestPlanParsing:
    def test_round_trip(self):
        spec = "seed=7;drop:src=0,dest=1,tag=3,nth=1"
        plan = FaultPlan.parse(spec)
        assert plan.seed == 7
        (f,) = plan.faults
        assert (f.kind, f.src, f.dest, f.tag, f.nth) == ("drop", 0, 1, 3, 1)
        assert FaultPlan.parse(plan.describe()).faults == plan.faults

    def test_wildcards(self):
        (f,) = FaultPlan.parse("delay:src=*,tag=any,seconds=0.5").faults
        assert f.src is None and f.tag is None and f.seconds == 0.5

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("teleport:src=0")

    def test_bad_clause_rejected(self):
        with pytest.raises(ValueError, match="bad fault clause"):
            FaultPlan.parse("just-some-words")

    def test_rank_faults_require_rank(self):
        with pytest.raises(ValueError, match="requires rank="):
            Fault("kill")

    def test_retry_clause_rejected(self):
        # receives have no host-timer policy to configure
        with pytest.raises(ValueError, match="unknown fault kind 'retry'"):
            FaultPlan.parse("retry:timeout=0.1")

    @pytest.mark.parametrize("spec, key", [
        ("drop:p=0.02,seed=5", "p"),
        ("seed=5;drop:prob=0.02,probability=1", "probability"),
    ], ids=["drop-p", "drop-probability"])
    def test_unknown_key_rejected(self, spec, key):
        # a misspelt key used to be ignored: "drop:p=0.02,seed=5" parsed
        # as prob=1.0, seed=0 and dropped every message
        clause = next(c for c in spec.split(";") if f"{key}=" in c)
        with pytest.raises(ValueError) as ei:
            FaultPlan.parse(spec)
        assert repr(key) in str(ei.value) and repr(clause) in str(ei.value)

    def test_as_plan_coercions(self):
        assert as_plan(None) is None
        plan = FaultPlan(faults=(Fault("dup"),))
        assert as_plan(plan) is plan
        assert as_plan("seed=3;dup:tag=5").seed == 3
        assert as_plan([Fault("dup")]).faults[0].kind == "dup"
        with pytest.raises(TypeError):
            as_plan(42)


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        plan = FaultPlan.parse(
            "seed=11;drop:src=0,dest=1,tag=5,nth=1;dup:tag=6"
        )
        reports = [
            run_spmd(pingpong, 2, faults=plan).fault_stats for _ in range(3)
        ]
        assert reports[0]["schedule"]
        assert reports[1]["schedule"] == reports[0]["schedule"]
        assert reports[2]["schedule"] == reports[0]["schedule"]

    def test_prob_is_seeded(self):
        plan_a = FaultPlan(faults=(Fault("dup", tag=5, prob=0.5),), seed=1)
        plan_b = FaultPlan(faults=(Fault("dup", tag=5, prob=0.5),), seed=1)
        ra = run_spmd(pingpong, 2, faults=plan_a).fault_stats
        rb = run_spmd(pingpong, 2, faults=plan_b).fault_stats
        assert ra["schedule"] == rb["schedule"]


class TestMessageFaults:
    @pytest.fixture(scope="class")
    def baseline(self):
        return run_spmd(pingpong, 2)

    def _identical(self, res, baseline):
        assert res.results == baseline.results
        assert res.vtime == baseline.vtime

    def test_drop_recovered_bitwise(self, baseline):
        plan = FaultPlan(
            faults=(Fault("drop", src=0, dest=1, tag=5, nth=1),),
            seed=1,
        )
        res = run_spmd(pingpong, 2, faults=plan, deadlock_timeout=WATCHDOG)
        self._identical(res, baseline)
        stats = res.fault_stats["stats"]
        assert stats["dropped"] == 1
        assert stats["retries"] == stats["retransmitted"] == 1

    def test_drop_count_needs_more_retries(self, baseline):
        # two suppressed delivery attempts -> recovered on the 3rd ask
        plan = FaultPlan(
            faults=(Fault("drop", tag=5, nth=1, count=3),),
            seed=1,
        )
        res = run_spmd(pingpong, 2, faults=plan, deadlock_timeout=WATCHDOG)
        self._identical(res, baseline)
        stats = res.fault_stats["stats"]
        assert stats["retries"] == 3
        assert stats["dropped"] == stats["retransmitted"] == 1

    def test_drop_after_receiver_blocked(self, baseline):
        """The drop fires while rank 1 already waits in its receive: the
        announcement itself must wake it."""
        def late_pingpong(comm):
            if comm.rank == 0:
                time.sleep(0.2)  # rank 1 blocks in recv meanwhile
            return pingpong(comm)

        plan = FaultPlan(
            faults=(Fault("drop", src=0, dest=1, tag=5, nth=1),),
            seed=1,
        )
        res = run_spmd(late_pingpong, 2, faults=plan, deadlock_timeout=WATCHDOG)
        self._identical(res, baseline)
        stats = res.fault_stats["stats"]
        assert stats["retries"] == stats["retransmitted"] == stats["dropped"] == 1

    def test_drop_keeps_stream_order(self):
        """A dropped message is not overtaken by a later one of its
        (src, tag, context) stream."""
        def two_sends(comm):
            if comm.rank == 0:
                comm.send(1.0, dest=1, tag=5)
                comm.send(2.0, dest=1, tag=5)
                return None
            time.sleep(0.1)  # both sends are settled before the receives
            return [comm.recv(source=0, tag=5) for _ in range(2)]

        baseline = run_spmd(two_sends, 2)
        plan = FaultPlan(
            faults=(Fault("drop", src=0, dest=1, tag=5, nth=1),),
            seed=1,
        )
        res = run_spmd(two_sends, 2, faults=plan, deadlock_timeout=WATCHDOG)
        assert baseline.results[1] == [1.0, 2.0]
        assert res.results[1] == [1.0, 2.0]
        assert res.vtime == baseline.vtime
        stats = res.fault_stats["stats"]
        assert stats["retries"] == stats["retransmitted"] == stats["dropped"] == 1

    def test_corrupt_keeps_stream_order(self):
        """A corrupted message's pristine original, re-requested once
        its frame fails the CRC check, is not overtaken by a later
        message of its stream (it used to be re-queued behind it)."""
        def two_sends(comm):
            # arrays travel as CRC-checked frames: a tampered copy fails
            # to decode and is re-requested
            if comm.rank == 0:
                comm.send(np.array([1.0]), dest=1, tag=5)
                comm.send(np.array([2.0]), dest=1, tag=5)
                return None
            time.sleep(0.1)  # both sends are settled before the receives
            return [float(comm.recv(source=0, tag=5)[0]) for _ in range(2)]

        baseline = run_spmd(two_sends, 2)
        plan = FaultPlan(
            faults=(Fault("corrupt", src=0, dest=1, tag=5, nth=1),),
            seed=1,
        )
        res = run_spmd(two_sends, 2, faults=plan, deadlock_timeout=WATCHDOG)
        assert res.results[1] == baseline.results[1] == [1.0, 2.0]
        assert res.vtime == baseline.vtime
        stats = res.fault_stats["stats"]
        assert stats["corrupted"] == stats["retransmitted"] == 1
        # the recovered message is booked once: receive counts equal
        # send counts
        sent, got = res.rank_stats[0].stats, res.rank_stats[1].stats
        assert (got.messages_received, got.bytes_received) == (
            sent.messages_sent, sent.bytes_sent
        ) == (2, baseline.rank_stats[0].stats.bytes_sent)

    def test_dup_discarded(self, baseline):
        plan = FaultPlan(faults=(Fault("dup", src=0, dest=1, tag=5),), seed=1)
        res = run_spmd(pingpong, 2, faults=plan)
        self._identical(res, baseline)
        assert res.fault_stats["stats"]["dup_discarded"] == 1

    def test_delay_shifts_vtime_only(self, baseline):
        plan = FaultPlan(
            faults=(Fault("delay", src=0, dest=1, tag=5, seconds=0.25),),
            seed=1,
        )
        res = run_spmd(pingpong, 2, faults=plan)
        assert res.results == baseline.results
        assert res.vtime > baseline.vtime
        assert res.fault_stats["stats"]["delayed"] == 1

    def test_drop_stress_keeps_every_stream_in_order(self):
        """More ranks than cores, a tiny thread switch interval and a
        30% drop rate, each rank receiving from its peers in turn while
        they still send: every stream still arrives complete and in
        order, each drop recovered by one immediate re-request;
        duplicates of the undropped messages are each discarded once,
        on delivery."""
        n_msgs = 20

        def storm(comm):
            for k in range(n_msgs):
                for peer in range(comm.size):
                    if peer != comm.rank:
                        comm.send((comm.rank, k), dest=peer, tag=7)
            got = {}
            for _ in range(n_msgs):
                for step in range(1, comm.size):
                    peer = (comm.rank - step) % comm.size
                    src, k = comm.recv(source=peer, tag=7)
                    got.setdefault(src, []).append(k)
            return got

        plan = FaultPlan(
            faults=(Fault("drop", tag=7, prob=0.3), Fault("dup", tag=7, prob=0.3)),
            seed=3,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            res = run_spmd(storm, 6, faults=plan, deadlock_timeout=WATCHDOG)
        finally:
            sys.setswitchinterval(interval)
        for rank, got in enumerate(res.results):
            assert sorted(got) == [r for r in range(6) if r != rank]
            assert all(ks == list(range(n_msgs)) for ks in got.values())
        stats = res.fault_stats["stats"]
        assert stats["dropped"] > 0
        assert stats["retries"] == stats["retransmitted"] == stats["dropped"]
        assert stats["duplicated"] > 0
        assert stats["dup_discarded"] == stats["duplicated"]

    def test_exhausted_retries_name_rank_and_tag(self):
        # 99 suppressed asks exceed the MAX_REREQUESTS bound: rank 1
        # gives up at once, long before the watchdog
        plan = FaultPlan(
            faults=(Fault("drop", src=0, dest=1, tag=5, nth=1, count=99),),
            seed=1,
        )
        with pytest.raises(SpmdJobError) as ei:
            run_spmd(pingpong, 2, faults=plan, deadlock_timeout=WATCHDOG)
        assert set(ei.value.failures) == {1}, ei.value.failures
        lost = ei.value.failures[1]
        assert isinstance(lost, MessageLostError)
        msg = str(lost)
        assert "rank 1" in msg and "src=0" in msg and "tag=5" in msg
        assert lost.attempts == MAX_REREQUESTS

    def test_faults_on_collectives_recovered(self):
        baseline = run_spmd(ring_allreduce, 4)
        plan = FaultPlan(
            faults=(Fault("drop", dest=2, nth=1),), seed=2
        )
        res = run_spmd(ring_allreduce, 4, faults=plan, deadlock_timeout=WATCHDOG)
        assert res.results == baseline.results == [10.0] * 4
        assert res.vtime == baseline.vtime
        # nth counts per (src, dest) stream: every sender's first
        # message into rank 2 is dropped, and each one is recovered
        stats = res.fault_stats["stats"]
        assert stats["dropped"] >= 1
        assert stats["retries"] == stats["retransmitted"] == stats["dropped"]


class TestRankFaults:
    def test_stall_is_host_time_only(self):
        baseline = run_spmd(pingpong, 2)
        plan = FaultPlan(
            faults=(Fault("stall", rank=0, after=1, seconds=0.2),), seed=1
        )
        res = run_spmd(pingpong, 2, faults=plan)
        assert res.results == baseline.results
        assert res.vtime == baseline.vtime  # virtual clock never stalls
        assert res.fault_stats["stats"]["stalled"] == 1

    def test_kill_raises_structured_job_error(self):
        plan = FaultPlan(faults=(Fault("kill", rank=0, after=1),), seed=1)
        with pytest.raises(SpmdJobError) as ei:
            run_spmd(pingpong, 2, faults=plan, deadlock_timeout=20.0)
        assert any(
            isinstance(e, InjectedFault) for e in ei.value.failures.values()
        )


class TestDeadlockDiagnostics:
    def test_blocked_state_reported_per_rank(self):
        def deadlock(comm):
            # both ranks wait on a message nobody sends
            return comm.recv(source=(comm.rank + 1) % 2, tag=9)

        with pytest.raises(DeadlockError) as ei:
            run_spmd(deadlock, 2, deadlock_timeout=1.0)
        msg = str(ei.value)
        assert "rank 0" in msg and "rank 1" in msg
        assert "blocked in recv" in msg and "tag=9" in msg

    def test_never_sent_message_under_faults_trips_the_watchdog(self):
        """A receive waiting on a message nobody sends ends the job in
        the watchdog's ``DeadlockError`` under a fault plan too, as in a
        fault-free job: no host timer gives up on it first with a
        ``MessageLostError``."""
        def lonely(comm):
            if comm.rank == 0:
                comm.send(1.0, dest=1, tag=5)
                return None
            comm.recv(source=0, tag=5)
            return comm.recv(source=0, tag=8)  # rank 0 never sends tag 8

        with pytest.raises(DeadlockError) as ei:
            run_spmd(lonely, 2, faults="seed=1;dup:nth=1", deadlock_timeout=1.0)
        assert set(ei.value.diagnostics) == {1}
        assert ei.value.diagnostics[1].startswith(
            "blocked in recv(src=0, tag=8, ctx=0)"
        )

    def test_fault_free_runs_have_no_report(self):
        assert run_spmd(pingpong, 2).fault_stats is None
