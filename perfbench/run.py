"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

The program under test is the ``repro`` package in ``src/`` next to
this directory; the command exits with code 2, printing no result, when
it is missing.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` prints its per-layer metrics, from a
run whose timed phase is followed by one operation with every layer's
entry points wrapped in spans (see ``spans.py``).  The process pins
itself to one CPU, and times the operation between passes of a fixed
reference (``host_ref``) that give the host's speed.  The last line of
standard output is the result object; the lines before it give every
metric with its unit and direction, the reference time, the pinned
CPU's stolen share and the spread of the host timings within the
run.  Each run also writes ``perfbench/out/<workload>-s<seed>-
t<trace>.json`` (the record) and, traced, a ``.timeline.json`` in the
Chrome trace-event format.  See ``README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-up passes per run; ``setup_s`` is their median, each pass being
#: the import in a fresh interpreter plus the workload's own set-up
SETUP_REPS = 5
#: the fewest timed repeats a run makes, however long they take
MIN_REPS = 3
#: process CPU seconds of one reference pass at the host speed that
#: ``wall_norm_s`` is expressed in (about the pass's median on the
#: 2-vCPU development VM)
REF_CPU_S = 0.075

# name -> (unit, better); BENCHMARK.json must declare exactly these.
# Per-layer metrics of a layer a workload does not run read 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_norm_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "vtime_ms": ("ms", "lower"),
    "vtime_p256_ms": ("ms", "lower"),
    "accuracy": ("fraction", "higher"),
}
PER_LAYER = {
    "core.iterations": ("count", "lower"),
    "core.kernel_evals": ("count", "lower"),
    "core.recon_kernel_evals": ("count", "lower"),
    "core.recon_rounds": ("count", "lower"),
    "core.shrink_events": ("count", "lower"),
    "core.active_frac_mean": ("fraction", "lower"),
    "core.pair_reuse_frac": ("fraction", "higher"),
    "core.select.calls": ("count", "lower"),
    "core.select.self_s": ("s", "lower"),
    "core.fetch_pair.self_s": ("s", "lower"),
    "core.iterate.self_s": ("s", "lower"),
    "core.reconstruct.self_s": ("s", "lower"),
    "core.fit.self_s": ("s", "lower"),
    "mpi.messages": ("count", "lower"),
    "mpi.bytes": ("B", "lower"),
    "mpi.collective.calls": ("count", "lower"),
    "mpi.collective.self_s": ("s", "lower"),
    "mpi.recv_wait_s": ("s", "lower"),
    "mpi.frames.self_s": ("s", "lower"),
    "mpi.jobs": ("count", "lower"),
    "mpi.job.self_s": ("s", "lower"),
    "mpi.vtime.compute_ms": ("ms", "lower"),
    "mpi.vtime.comm_ms": ("ms", "lower"),
    "mpi.vtime.idle_ms": ("ms", "lower"),
    "mpi.faults.dropped": ("count", "lower"),
    "mpi.faults.retries": ("count", "lower"),
    "mpi.faults.wait_s": ("s", "lower"),
    "kernels.block.calls": ("count", "lower"),
    "kernels.block.entries": ("count", "lower"),
    "kernels.block.self_s": ("s", "lower"),
    "sparse.dot_csr_t.self_s": ("s", "lower"),
    "sparse.take_rows.self_s": ("s", "lower"),
    "serve.slabs": ("count", "lower"),
    "serve.slab_size_mean": ("count", "higher"),
    "serve.queue_wait_p50_ms": ("ms", "lower"),
    "serve.queue_wait_p99_ms": ("ms", "lower"),
    "serve.service_ms_mean": ("ms", "lower"),
    "serve.peak_queue_depth": ("count", "lower"),
    "serve.refused": ("count", "lower"),
    "serve.cache.hit_rate": ("fraction", "higher"),
    "serve.cache.self_s": ("s", "lower"),
    "serve.schedule.self_s": ("s", "lower"),
    "serve.registry.self_s": ("s", "lower"),
    "serve.latency_p50_ms": ("ms", "lower"),
    "serve.latency_p99_ms": ("ms", "lower"),
    "serve.goodput_rps": ("req/s", "higher"),
    "stream.refits": ("count", "lower"),
    "stream.refit_iterations": ("count", "lower"),
    "stream.seed_kernel_evals": ("count", "lower"),
    "stream.solver_kernel_evals": ("count", "lower"),
    "stream.partial_fit.self_s": ("s", "lower"),
    "stream.prequential.self_s": ("s", "lower"),
    "perfmodel.project_ratio": ("ratio", "higher"),
    "data.generate_s": ("s", "lower"),
    "setup.fit_s": ("s", "lower"),
    "host.ref_s": ("s", "lower"),
    "host.wall_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}

#: span name -> per-layer self-time metric
SELF_TIMES = {
    "core.select": "core.select.self_s",
    "core.fetch_pair": "core.fetch_pair.self_s",
    "core.iterate": "core.iterate.self_s",
    "core.reconstruct": "core.reconstruct.self_s",
    "core.fit": "core.fit.self_s",
    "mpi.collective": "mpi.collective.self_s",
    "mpi.frames": "mpi.frames.self_s",
    "mpi.job": "mpi.job.self_s",
    "kernels.block": "kernels.block.self_s",
    "sparse.dot_csr_t": "sparse.dot_csr_t.self_s",
    "sparse.take_rows": "sparse.take_rows.self_s",
    "serve.cache": "serve.cache.self_s",
    "serve.schedule": "serve.schedule.self_s",
    "serve.registry": "serve.registry.self_s",
    "stream.partial_fit": "stream.partial_fit.self_s",
    "stream.prequential": "stream.prequential.self_s",
}


@functools.lru_cache(maxsize=None)
def _ref_inputs():
    """Fixed inputs and work buffer of the reference pass's sparse
    gather (3 MB, made once before the timed phase, so that the pass
    allocates nothing that could move the process's peak memory)."""
    import numpy as np

    rng = np.random.default_rng(0)
    index = rng.integers(0, 60_000, 100_000)
    return (rng.standard_normal(60_000), index, rng.standard_normal(index.size),
            np.arange(0, index.size, 50), np.empty(index.size))


def host_ref():
    """One pass of a fixed reference that runs no program code but the
    kinds of work the simulated ranks do: interpreter bytecode, small
    numpy calls, hand-offs between two threads on this CPU and a
    sparse-row gather.  Returns its (host, process CPU) seconds: a
    slower host shows here, a slower program does not."""
    import threading

    import numpy as np

    vec, index, data, starts, buf = _ref_inputs()
    t0, c0 = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a, b, c = np.arange(64.0), np.ones(64), np.zeros(64)
    for _ in range(5_000):
        c[int(np.argmax(a)) % 64] = a.dot(b)
    for _ in range(16):
        np.take(vec, index, out=buf)
        np.multiply(buf, data, out=buf)
        np.add.reduceat(buf, starts)
    ping, pong = threading.Event(), threading.Event()

    def partner():
        for _ in range(2_000):
            ping.wait()
            ping.clear()
            pong.set()

    thread = threading.Thread(target=partner)
    thread.start()
    for _ in range(2_000):
        ping.set()
        pong.wait()
        pong.clear()
    thread.join()
    return time.perf_counter() - t0, time.process_time() - c0


def import_seconds():
    """(host, process CPU) seconds to import numpy and the program in a
    fresh interpreter (the child is waited for before this returns)."""
    code = (
        "import time; t, c = time.perf_counter(), time.process_time(); "
        "import numpy, repro; "
        "print(time.perf_counter() - t, time.process_time() - c)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
        capture_output=True, text=True, timeout=120,
    )
    wall, cpu = out.stdout.strip().splitlines()[-1].split()
    return float(wall), float(cpu)


def spread(values) -> float:
    """Quartile distance over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return (q[2] - q[0]) / statistics.median(values)


def lower_quartile(values) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def pin_one_cpu():
    """Confine this process, the rank threads it starts and its child
    interpreters to one CPU (the highest-numbered one it may use), and
    return that CPU's number, or None where affinity is unavailable.

    The simulated ranks are threads that hand work to each other many
    thousand times per operation.  Spread over two CPUs, each hand-off
    wakes a thread on the other CPU, and on a virtual machine whose idle
    CPU has halted that wake-up waits on the hypervisor: it made up
    about half of the train and stream operations' host time and grew
    with the load of other tenants.  On one CPU a hand-off is a context
    switch, so the host time follows the program's own work."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError, ValueError):
        return None
    return cpu


def cpu_ticks(cpu):
    """(all, steal) clock ticks of CPU ``cpu`` (of every CPU when None)
    from ``/proc/stat``, or None where it is unavailable: the share of
    stolen time tells a host that was busy elsewhere apart from a
    slower program."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                head, *rest = line.split()
                if head == label:
                    fields = [int(v) for v in rest]
                    return sum(fields), fields[7] if len(fields) > 7 else 0
    except (OSError, ValueError):
        return None
    return None


def steal_share(before, after) -> float:
    if before is None or after is None or after[0] == before[0]:
        return 0.0
    return (after[1] - before[1]) / (after[0] - before[0])


def timed_reps(wl, st, seconds: float):
    """Repeat the workload's operation for ``seconds`` (and at least
    ``MIN_REPS`` times), with a reference pass before the first part of
    the operation and after every part; returns each repeat's parts'
    (host, process CPU) seconds, the reference passes and the results."""
    reps, refs, results = [], [host_ref()], []
    t_end = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < t_end:
        times, outs = [], []
        for part in wl.parts(st):
            t0, c0 = time.perf_counter(), time.process_time()
            outs.append(part())
            times.append((time.perf_counter() - t0, time.process_time() - c0))
            refs.append(host_ref())
        reps.append(times)
        results.append(wl.join(outs))
    return reps, refs, results


def at_ref_speed(reps, refs):
    """Each repeat's host time with the CPU part of every part rescaled
    to the host speed at which a reference pass takes ``REF_CPU_S`` of
    CPU; the passes on either side of a part give the speed during it.
    The time the process spent off the CPU (waits, stolen time) is kept
    as measured."""
    out, k = [], 0
    for times in reps:
        total = 0.0
        for wall, cpu in times:
            speed = REF_CPU_S / math.sqrt(refs[k][1] * refs[k + 1][1])
            total += max(wall - cpu, 0.0) + cpu * speed
            k += 1
        out.append(total)
    return out


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to run: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # the default engine, WSS policy and communicator, whatever the caller's
    # environment says; one BLAS thread, so the two rank threads are the
    # only threads that compute
    for var in ("REPRO_SVM_ENGINE", "REPRO_SVM_WSS", "REPRO_SVM_COMM"):
        os.environ.pop(var, None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    cpu = pin_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import numpy  # noqa: F401
    import repro  # noqa: F401
    import spans
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    # set-up passes, each between reference passes like a timed part;
    # setup_s is the median pass at the reference speed
    _ref_inputs()
    prep, setup_refs = [], [host_ref()]
    for _ in range(SETUP_REPS):
        imp_wall, imp_cpu = import_seconds()
        t0, c0 = time.perf_counter(), time.process_time()
        st = wl.prepare(args.seed)
        prep.append((
            imp_wall + time.perf_counter() - t0,
            imp_cpu + time.process_time() - c0,
            st["gen_s"], st["fit_s"],
        ))
        setup_refs.append(host_ref())
    setup_norms = at_ref_speed([[p[:2]] for p in prep], setup_refs)
    setup_s = statistics.median(setup_norms)

    # timed phase; a traced run then repeats the operation once under spans
    seconds = args.seconds / 2 if args.trace else args.seconds
    ticks = cpu_ticks(cpu)
    reps, refs, results = timed_reps(wl, st, seconds)
    steal = steal_share(ticks, cpu_ticks(cpu))
    walls = [sum(w for w, _ in times) for times in reps]
    cpus = [sum(c for _, c in times) for times in reps]
    # every repeat computes a bit-identical result, so host contention
    # can only add time: report the lower quartile of the repeats, which
    # ignores a slow spell covering up to three quarters of the phase
    # yet, unlike the minimum, does not hang on one lucky repeat
    wall_s = lower_quartile(walls)
    norms = at_ref_speed(reps, refs)
    wall_norm_s = lower_quartile(norms)
    traced_wall = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec)
        rec.enabled = True
        try:
            t0 = time.perf_counter()
            results.append(wl.op(st))
            traced_wall = time.perf_counter() - t0
        finally:
            rec.enabled = False
            rec.uninstall()
    # high-water mark of the timed phase, before the checks build their
    # reference matrices
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # untimed checks: the first result passes the workload's output
    # checks, and every repeat reproduces it bit for bit
    first = results[0]
    sig = wl.signature(first)
    att, fail = wl.check(st, first)
    attempted = att * len(results)
    failed = sum(att if wl.signature(r) != sig else fail for r in results)
    host_ref_s = statistics.median(r[0] for r in refs)

    exact = wl.exact(st, first)
    values = {}
    if args.trace:
        an = spans.Analysis(rec.spans)
        values.update(_layers(wl, st, first, an, rec.counts["kernels.block"], prep))
        values["host.ref_s"] = host_ref_s
        values["host.wall_s"] = wall_s
        values["trace.overhead_frac"] = traced_wall / wall_s - 1.0
        kinds, table = PER_LAYER, PER_LAYER
    else:
        values.update(exact)
        values["setup_s"] = setup_s
        values["wall_norm_s"] = wall_norm_s
        values["peak_rss_mb"] = peak_rss_mb
        kinds, table = END_TO_END, END_TO_END
    kind = "per_layer" if args.trace else "end_to_end"
    spec = declared(kind)
    if set(spec) != set(kinds) or set(values) != set(kinds):
        raise RuntimeError(
            f"{kind} mismatch: declared {sorted(set(spec) ^ set(kinds))}, "
            f"computed {sorted(set(values) ^ set(kinds))}"
        )
    for name, (unit, better) in table.items():
        if spec[name]["unit"] != unit or spec[name]["better"] != better:
            raise RuntimeError(f"{name}: BENCHMARK.json disagrees on unit/direction")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu": cpu,
        "import_s": import_s,
        "setup_pass_s": [p[0] for p in prep],
        "setup_pass_cpu_s": [p[1] for p in prep],
        "setup_norm_s": setup_norms,
        "setup_ref_cpu_s": [r[1] for r in setup_refs],
        "host_ref_s": [r[0] for r in refs],
        "host_ref_cpu_s": [r[1] for r in refs],
        "wall_s": walls,
        "cpu_s": cpus,
        "wall_norm_s": norms,
        "wall_spread": spread(walls),
        "wall_norm_spread": spread(norms),
        "steal_share": steal,
        "traced_wall_s": traced_wall,
        "exact": exact,
        "metrics": values,
        "attempted": attempted,
        "failed": failed,
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans.write_timeline(rec.spans, stem.with_suffix(".timeline.json"))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"reps={len(walls)}+{int(args.trace)} cpu={cpu} host.ref_s={host_ref_s:.4f} "
          f"steal={steal:.3f} "
          f"wall spread={spread(walls):.3f} norm spread={spread(norms):.3f} "
          f"wall_s={wall_s:.4f} setup spread="
          f"{spread(setup_norms):.3f} setup host={statistics.median(p[0] for p in prep):.4f}")
    for name in sorted(values):
        unit, better = table[name]
        print(f"#   {name:28s} {values[name]:>16.6g} {unit:9s} {better}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": float(v), "unit": table[k][0]}
            for k, v in values.items()
        },
    }))
    return 0


def _layers(wl, st, result, an, block_entries: int, prep) -> dict:
    """Per-layer metrics: counts from the program's results, self times
    and call counts from the spans of the traced operation."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(wl.layers(st, result))
    values.update(wl.finish(st, result))
    values.update(_span_metrics(an, block_entries))
    values["data.generate_s"] = statistics.median(p[2] for p in prep)
    values["setup.fit_s"] = statistics.median(p[3] for p in prep)
    return values


def _span_metrics(an, block_entries: int) -> dict:
    """Self times and call counts of one traced operation."""
    if an.overfull or an.nesting_errors():
        raise RuntimeError(
            f"span check failed: {an.overfull} spans whose same-thread "
            f"children outlast them, {an.nesting_errors()} spans outside "
            f"their parent"
        )
    out = {metric: an.self_s.get(span, 0.0) for span, metric in SELF_TIMES.items()}
    out.update({
        "core.select.calls": an.calls.get("core.select", 0),
        "mpi.collective.calls": an.outer_calls.get("mpi.collective", 0),
        "mpi.jobs": an.calls.get("mpi.job", 0),
        "mpi.recv_wait_s": an.total_s.get("mpi.take", 0.0),
        "mpi.faults.wait_s": an.time_with_child("mpi.take", "mpi.faults.rerequest"),
        "kernels.block.calls": an.calls.get("kernels.block", 0),
        "kernels.block.entries": block_entries,
    })
    return out


if __name__ == "__main__":
    sys.exit(main())
