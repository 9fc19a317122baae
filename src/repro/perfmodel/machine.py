"""Machine descriptions for virtual-time accounting.

:class:`MachineSpec` captures the handful of parameters the paper's own
complexity model uses (Table I): network latency ``l``, per-byte transfer
time ``G``, the average kernel-evaluation time ``lambda`` (derived from an
effective flop rate), and node topology (cores/node, memory/node).

The default :meth:`MachineSpec.cascade` mirrors the paper's testbed — the
PNNL Cascade supercomputer (Intel Sandy Bridge nodes, 16 cores/node,
InfiniBand FDR) — so analytic projections are run against the same machine
the paper measured.  :meth:`MachineSpec.python_host` instead calibrates the
compute rate to this Python/numpy host, for comparing model output with
measured wall time of the simulated runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class MachineSpec:
    """Parameters of the modeled machine.

    The base (``latency``, ``byte_time``) pair prices *inter-node*
    point-to-point messages.  Machines may additionally describe their
    intra-node fabric (shared memory / on-node interconnect) with an
    ``(intra_latency, intra_byte_time)`` pair plus the node geometry
    ``ranks_per_node``; the runtime and the analytic cost model then
    charge the cheaper pair for messages between ranks placed on the
    same node.  When the intra parameters are ``None`` (the default,
    and the historical behaviour) both levels cost the same.
    """

    name: str
    latency: float  # l: one-way small-message latency (s), inter-node
    byte_time: float  # G: seconds per byte (1 / effective bandwidth)
    send_overhead: float  # o: CPU time to post a send (s)
    flop_rate: float  # effective double-precision flops/s of one core
    cores_per_node: int
    mem_per_node: int  # bytes
    #: fixed per-kernel-evaluation overhead in flops (index arithmetic,
    #: exp() for the RBF kernel, loop control)
    kernel_eval_overhead_flops: float = 40.0
    #: flops per nonzero touched in one sparse kernel evaluation
    kernel_flops_per_nnz: float = 4.0
    #: intra-node small-message latency (s); ``None`` = same as inter
    intra_latency: Optional[float] = None
    #: intra-node seconds per byte; ``None`` = same as inter
    intra_byte_time: Optional[float] = None
    #: MPI ranks placed per node (block placement: rank r lives on node
    #: ``r // ranks_per_node``); ``None`` = one rank per core
    ranks_per_node: Optional[int] = None

    def __post_init__(self) -> None:
        # every send books this into the clock in place
        # (``Comm._post_send``), past VirtualClock.advance's check
        if not self.send_overhead >= 0:
            raise ValueError(
                f"send_overhead must be >= 0, got {self.send_overhead!r}"
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def cascade(cls) -> "MachineSpec":
        """PNNL Cascade-like node: Sandy Bridge + InfiniBand FDR.

        FDR 4x delivers ~6.8 GB/s effective; small-message latency
        ~1.5 us through MVAPICH2.  An effective (not peak) per-core rate
        of 4 GFLOP/s reflects the memory-bound sparse kernel evaluations.
        """
        return cls(
            name="cascade",
            latency=1.5e-6,
            byte_time=1.0 / 6.8e9,
            send_overhead=0.3e-6,
            flop_rate=4.0e9,
            cores_per_node=16,
            mem_per_node=64 * 2**30,
        )

    @classmethod
    def python_host(cls, calibrate: bool = False) -> "MachineSpec":
        """A spec whose compute rate matches this Python host.

        With ``calibrate=True`` a short numpy dot-product benchmark sets
        the effective flop rate; otherwise a conservative default is used.
        Network parameters keep the Cascade values (the simulated network
        is modeled either way).
        """
        rate = 2.0e8
        if calibrate:
            rate = _measure_flop_rate()
        base = cls.cascade()
        return replace(base, name="python-host", flop_rate=rate)

    @classmethod
    def multinode(cls, ranks_per_node: int = 16) -> "MachineSpec":
        """Cascade with its node hierarchy made explicit.

        Inter-node parameters stay the FDR fabric's; intra-node
        messages go through shared memory — ~0.3 us latency and
        ~12 GB/s effective per-pair bandwidth, the regime MVAPICH2's
        KNEM/CMA path delivers on Sandy Bridge.  Block placement puts
        ``ranks_per_node`` consecutive ranks on each node.
        """
        if ranks_per_node < 1:
            raise ValueError(
                f"ranks_per_node must be >= 1, got {ranks_per_node}"
            )
        base = cls.cascade()
        return replace(
            base,
            name=f"multinode-{ranks_per_node}",
            intra_latency=0.3e-6,
            intra_byte_time=1.0 / 12.0e9,
            ranks_per_node=ranks_per_node,
        )

    # ------------------------------------------------------------------
    # node geometry
    # ------------------------------------------------------------------
    @property
    def node_size(self) -> int:
        """Ranks placed per node (defaults to one per core)."""
        return self.ranks_per_node or self.cores_per_node

    def node_of(self, rank: int) -> int:
        """Node index hosting global ``rank`` (block placement)."""
        return rank // self.node_size

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    # ------------------------------------------------------------------
    # derived costs
    # ------------------------------------------------------------------
    def p2p_time(self, nbytes: int, intra: bool = False) -> float:
        """Modeled time for one point-to-point message of ``nbytes``.

        ``intra=True`` prices the message on the intra-node fabric
        (falling back to the inter-node pair when the machine does not
        describe one)."""
        if intra:
            lat = self.intra_latency if self.intra_latency is not None else self.latency
            bt = (
                self.intra_byte_time
                if self.intra_byte_time is not None
                else self.byte_time
            )
            return lat + nbytes * bt
        return self.latency + nbytes * self.byte_time

    def time_flops(self, flops: float) -> float:
        return flops / self.flop_rate

    def kernel_eval_flops(self, avg_nnz: float) -> float:
        """Flops for one kernel evaluation against a row of ``avg_nnz``."""
        return self.kernel_flops_per_nnz * avg_nnz + self.kernel_eval_overhead_flops

    def time_kernel_evals(self, n_evals: float, avg_nnz: float) -> float:
        """lambda * n_evals: modeled time for ``n_evals`` kernel evaluations."""
        return self.time_flops(n_evals * self.kernel_eval_flops(avg_nnz))

    @property
    def kernel_eval_time(self) -> float:
        """lambda for an 'average' 100-nnz sample (Table I's bare lambda)."""
        return self.time_kernel_evals(1, 100.0)


def _measure_flop_rate(n: int = 400_000, repeats: int = 5) -> float:
    """Measure effective flops/s of a numpy dot product on this host."""
    rng = np.random.default_rng(0)
    a = rng.random(n)
    b = rng.random(n)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        float(a @ b)
        best = min(best, time.perf_counter() - t0)
    return (2.0 * n) / max(best, 1e-9)
