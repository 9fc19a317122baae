"""Hierarchical communicator suite: equality with flat, registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import (
    COMMUNICATORS,
    FlatCollectives,
    HierarchicalCollectives,
    SpmdRuntime,
    create_communicator,
    resolve_comm,
    run_spmd,
)
from repro.mpi.reduceops import ELECTION_SLOTS, MAX, MIN, MINLOC_MAXLOC, SUM
from repro.mpi.topology import carve, node_layout
from repro.perfmodel import MachineSpec


def _multinode(rpn):
    return MachineSpec.multinode(ranks_per_node=rpn)


def _run_both(prog, p, rpn):
    """Run the same SPMD program under flat and hierarchical suites."""
    out = {}
    for comm in ("flat", "hierarchical"):
        out[comm] = run_spmd(
            prog, p, machine=_multinode(rpn), comm=comm, trace=True
        )
    return out["flat"], out["hierarchical"]


class TestNodeLayout:
    def test_geometry_multinode(self):
        def prog(comm):
            members, leaders, node_idx = node_layout(comm)
            return [list(m) for m in members], list(leaders), list(node_idx)

        out = run_spmd(prog, 6, machine=_multinode(2)).results
        members, leaders, node_idx = out[0]
        assert members == [[0, 1], [2, 3], [4, 5]]
        assert leaders == [0, 2, 4]
        assert node_idx == [0, 0, 1, 1, 2, 2]
        # every rank computes the identical layout
        assert all(r == out[0] for r in out)

    def test_single_node_machine(self):
        def prog(comm):
            members, leaders, _ = node_layout(comm)
            return len(members), leaders

        n_nodes, leaders = run_spmd(prog, 4).results[0]
        assert n_nodes == 1 and leaders == [0]

    def test_ragged_last_node(self):
        def prog(comm):
            members, leaders, _ = node_layout(comm)
            return [list(m) for m in members]

        members = run_spmd(prog, 5, machine=_multinode(4)).results[0]
        assert members == [[0, 1, 2, 3], [4]]


class TestRegistry:
    def test_names(self):
        assert set(COMMUNICATORS) == {"flat", "hierarchical"}
        assert COMMUNICATORS["flat"] is FlatCollectives
        assert COMMUNICATORS["hierarchical"] is HierarchicalCollectives
        assert create_communicator().name == "flat"
        assert create_communicator("hierarchical").name == "hierarchical"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            create_communicator("torus")
        with pytest.raises(ValueError, match="unknown"):
            run_spmd(lambda c: None, 1, comm="torus")

    def test_env_fallback(self, monkeypatch):
        """There is none: the suite comes from ``RunConfig.comm`` alone,
        and ``REPRO_SVM_COMM``, which once overrode the flat default, is
        read neither by the resolver nor by the runtime."""
        monkeypatch.setenv("REPRO_SVM_COMM", "hierarchical")
        assert resolve_comm() == "flat"
        assert resolve_comm("hierarchical") == "hierarchical"
        out = run_spmd(lambda c: c._suite.name, 2, machine=_multinode(1))
        assert out.results == ["flat", "flat"]


class TestEquality:
    """Flat and hierarchical must agree on every collective's result."""

    @settings(max_examples=20, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=8),
        rpn=st.sampled_from([1, 2, 4]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_collectives_match_flat(self, p, rpn, seed):
        rng = np.random.default_rng(seed)
        data = rng.random((p, 6))

        def prog(comm):
            r = comm.rank
            res = {}
            res["allreduce"] = comm.allreduce(data[r].copy())
            res["buffer"] = comm.allreduce_buffer(data[r].copy())
            res["max"] = comm.allreduce(float(data[r, 0]), op=MAX)
            res["bcast"] = comm.bcast(
                data[min(p - 1, 2)].copy() if r == min(p - 1, 2) else None,
                root=min(p - 1, 2),
            )
            res["allgather"] = comm.allgather((r, data[r, :2].copy()))
            res["reduce"] = comm.reduce(data[r].copy(), root=0)
            comm.barrier()
            return res

        flat, hier = _run_both(prog, p, rpn)
        for rf, rh in zip(flat.results, hier.results):
            # SUM re-associates across the two-level tree at non-pof2
            # geometries: equal to the last few ulps, bitwise only at
            # pof2 (covered by test_sum_bitwise_identical_pof2)
            for key in ("allreduce", "buffer", "reduce"):
                if rf[key] is not None or rh[key] is not None:
                    np.testing.assert_allclose(
                        rf[key], rh[key], rtol=1e-13, err_msg=key
                    )
            # bcast and MAX involve no re-association: exact
            np.testing.assert_array_equal(rf["bcast"], rh["bcast"])
            assert rf["max"] == rh["max"]
            assert len(rf["allgather"]) == len(rh["allgather"]) == p
            for (i, a), (j, b) in zip(rf["allgather"], rh["allgather"]):
                assert i == j
                assert a.tobytes() == b.tobytes()

    def test_sum_bitwise_identical_pof2(self):
        # at power-of-two p with pof2 nodes the hierarchical combine
        # tree re-associates exactly like flat recursive doubling
        rng = np.random.default_rng(11)
        data = rng.random((8, 32)) * 1e3 - 500.0

        def prog(comm):
            return comm.allreduce_buffer(data[comm.rank].copy())

        flat, hier = _run_both(prog, 8, 2)
        for rf, rh in zip(flat.results, hier.results):
            assert rf.tobytes() == rh.tobytes()

    def test_fused_election_identical(self):
        # the packed engine's MINLOC_MAXLOC buffer must survive the
        # hierarchical path bit-for-bit
        rng = np.random.default_rng(5)
        vals = rng.random(6)

        def prog(comm):
            buf = np.empty(ELECTION_SLOTS)
            buf[0] = vals[comm.rank]
            buf[1] = comm.rank
            buf[2] = -vals[comm.rank]
            buf[3] = comm.rank
            return comm.allreduce_buffer(buf, op=MINLOC_MAXLOC)

        flat, hier = _run_both(prog, 6, 2)
        for rf, rh in zip(flat.results, hier.results):
            assert rf.tobytes() == rh.tobytes()
        best = int(np.argmin(vals))
        assert int(flat.results[0][1]) == best

    def test_min_over_object_path(self):
        def prog(comm):
            return comm.allreduce(comm.rank + 0.5, op=MIN)

        flat, hier = _run_both(prog, 5, 2)
        assert flat.results == hier.results == [0.5] * 5

    def test_scatter_alltoall_scan_delegate(self):
        # ops without a hierarchical specialization run the flat
        # algorithm under either suite
        def prog(comm):
            r = comm.rank
            res = {}
            res["scatter"] = comm.scatter(
                [f"s{i}" for i in range(comm.size)] if r == 0 else None,
                root=0,
            )
            res["alltoall"] = comm.alltoall(
                [(r, i) for i in range(comm.size)]
            )
            res["scan"] = comm.scan(r + 1, op=SUM)
            res["exscan"] = comm.exscan(r + 1, op=SUM)
            res["rs"] = comm.reduce_scatter(
                [np.full(2, float(r + i)) for i in range(comm.size)],
                op=SUM,
            )
            return res

        flat, hier = _run_both(prog, 6, 2)
        for rf, rh in zip(flat.results, hier.results):
            assert rf["scatter"] == rh["scatter"]
            assert rf["alltoall"] == rh["alltoall"]
            assert rf["scan"] == rh["scan"]
            assert rf["exscan"] == rh["exscan"]
            np.testing.assert_array_equal(rf["rs"], rh["rs"])


class TestCarve:
    """``carve`` is the only way to build a sub-communicator."""

    @pytest.mark.parametrize("p", [6, 7])  # 7: a ragged last node
    def test_carved_groups_run_collectives(self, p):
        """Even and odd ranks each carve their own group; collectives
        inside it see only its members, in ``members`` order, and the
        flat and hierarchical suites agree."""

        def prog(comm):
            members = [r for r in range(comm.size) if r % 2 == comm.rank % 2]
            sub = carve(comm, members)
            return (
                sub.rank, sub.size, sub.allreduce(comm.rank),
                sub.allgather(comm.rank),
                sub.bcast(comm.rank if sub.rank == 0 else None, root=0),
            )

        flat, hier = _run_both(prog, p, 2)
        assert flat.results == hier.results
        for r, (rank, size, total, gathered, root) in enumerate(flat.results):
            group = [q for q in range(p) if q % 2 == r % 2]
            assert rank == group.index(r)
            assert size == len(group)
            assert total == sum(group)
            assert gathered == group
            assert root == group[0]

    def test_ranks_outside_members_get_none(self):
        def prog(comm):
            sub = carve(comm, [3, 1, 2])
            if sub is None:
                return None
            # local ranks follow the members order: 3 -> 0, 1 -> 1, 2 -> 2
            return sub.rank, sub.size, sub.allgather(comm.rank)

        res = run_spmd(prog, 4).results
        assert res[0] is None
        assert res[1:] == [(1, 3, [3, 1, 2]), (2, 3, [3, 1, 2]),
                           (0, 3, [3, 1, 2])]

    def test_carve_isolates_traffic(self):
        """A message on a carved communicator never matches a receive on
        the parent with the same source and tag, even when the carved
        group is the whole parent."""

        def prog(comm):
            sub = carve(comm, [0, 1])
            if comm.rank == 0:
                sub.send("on-sub", dest=1, tag=2)
                comm.send("on-world", dest=1, tag=2)
                return None
            return comm.recv(source=0, tag=2), sub.recv(source=0, tag=2)

        assert run_spmd(prog, 2).results[1] == ("on-world", "on-sub")

    @pytest.mark.parametrize(
        "members, match",
        [
            ([], "empty"),
            ([0, 1, 0], "duplicate"),
            ([0, 2], "out of range"),
            ([-1, 0], "out of range"),
        ],
    )
    def test_bad_members_raise(self, members, match):
        comm = SpmdRuntime(2).world(0)
        with pytest.raises(ValueError, match=match):
            carve(comm, members)


class TestTrafficShape:
    def test_fewer_messages_at_scale(self):
        # 8 ranks on 2-wide nodes: leader-only inter-node exchange moves
        # fewer messages than flat recursive doubling over all ranks
        def prog(comm):
            for _ in range(4):
                comm.allreduce_buffer(np.ones(64))

        flat, hier = _run_both(prog, 8, 2)
        assert hier.total_messages < flat.total_messages

    def test_single_node_delegates_to_flat(self):
        # every rank on one node: the two-level plan collapses and both
        # suites run the identical flat algorithms
        def prog(comm):
            comm.allreduce_buffer(np.arange(8.0))
            comm.bcast(np.ones(4) if comm.rank == 0 else None, root=0)

        flat, hier = _run_both(prog, 4, 16)
        assert hier.total_messages == flat.total_messages
        assert hier.total_bytes_sent == flat.total_bytes_sent

    def test_collective_byte_totals_traced(self):
        def prog(comm):
            comm.allreduce_buffer(np.ones(16))
            comm.bcast(np.ones(8) if comm.rank == 0 else None, root=0)
            comm.barrier()

        out = run_spmd(prog, 4, machine=_multinode(2), comm="hierarchical",
                       trace=True)
        per_op = out.tracer.collective_bytes()
        assert per_op["Allreduce"] > 0
        assert per_op["Bcast"] > 0
        # this program is all-collective traffic, so the per-op byte
        # overlay must account for exactly the wire total
        assert sum(per_op.values()) == out.total_bytes_sent
