"""Machine model sanity."""

import pytest

from repro.perfmodel import MachineSpec


def test_cascade_defaults():
    m = MachineSpec.cascade()
    assert m.cores_per_node == 16
    assert 0 < m.latency < 1e-4
    assert 0 < m.byte_time < 1e-8
    assert m.flop_rate > 1e9
    assert m.mem_per_node > 2**30


def test_p2p_time_monotone_in_bytes():
    m = MachineSpec.cascade()
    assert m.p2p_time(0) == m.latency
    assert m.p2p_time(10**6) > m.p2p_time(10**3)


def test_kernel_eval_time_scales_with_nnz():
    m = MachineSpec.cascade()
    assert m.time_kernel_evals(100, 200) > m.time_kernel_evals(100, 10)
    assert m.time_kernel_evals(200, 50) == pytest.approx(
        2 * m.time_kernel_evals(100, 50)
    )


def test_lambda_positive():
    assert MachineSpec.cascade().kernel_eval_time > 0


def test_python_host_variants():
    default = MachineSpec.python_host(calibrate=False)
    assert default.name == "python-host"
    calibrated = MachineSpec.python_host(calibrate=True)
    assert calibrated.flop_rate > 1e6  # any real machine beats a MFLOP


def test_frozen():
    m = MachineSpec.cascade()
    with pytest.raises(Exception):
        m.latency = 0.0


def test_negative_send_overhead_rejected():
    """The typed send books the overhead into the clock in place, so a
    machine that would move a clock backwards is refused up front."""
    import dataclasses

    with pytest.raises(ValueError, match="send_overhead"):
        dataclasses.replace(MachineSpec.cascade(), send_overhead=-1e-7)
    with pytest.raises(ValueError, match="send_overhead"):
        dataclasses.replace(MachineSpec.cascade(), send_overhead=float("nan"))
