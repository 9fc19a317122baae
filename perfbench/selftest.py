"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

1. Names, units and directions printed by ``run.py`` match
   ``BENCHMARK.json``.
2. Without the program (a directory holding only ``BENCHMARK.json`` and
   this directory) ``run.py`` exits non-zero and prints no result.
3. Two runs with the same seed give bit-identical values for every
   exact metric: the modeled and counted end-to-end values, and every
   per-layer value that is not a host timing, on every workload of
   ``BENCHMARK.json`` (seed 3, 4-second runs).  The traced runs also
   prove that spans nest and that the children a span has on its own
   thread fit inside it (``run.py`` refuses to print a result
   otherwise).

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

#: per-layer values read off the host clock; all others are exact
HOST_TIMED = {"trace.overhead_frac"} | {
    name for name, (unit, _) in run.PER_LAYER.items() if unit == "s"
}
#: end-to-end values read off the host clock
HOST_E2E = {"setup_s", "wall_norm_s", "peak_rss_mb"}
SEED, SECONDS = 3, 4


def invoke(cwd: Path, workload: str, seed: int, seconds: float, trace: int):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for kind, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}
        assert declared == table, f"{kind}: BENCHMARK.json and run.py disagree"


def check_bare() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = invoke(bare, "train", 1, 1, 0)
        assert proc.returncode != 0, "run.py succeeded without the program"
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        assert not last.startswith("{"), "run.py printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def check_determinism(workload: str) -> None:
    for trace, host in ((0, HOST_E2E), (1, HOST_TIMED)):
        a, b = (result(invoke(ROOT, workload, SEED, SECONDS, trace)) for _ in range(2))
        for res in (a, b):
            assert res["correct"] and res["failed"] == 0, f"{workload}: {res}"
        for name, metric in a["metrics"].items():
            if name in host:
                continue
            va, vb = metric["value"], b["metrics"][name]["value"]
            assert va == vb, f"{workload} trace={trace} {name}: {va!r} != {vb!r}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checks = [("names", check_names), ("bare directory", check_bare)] + [
        (f"determinism {w}", lambda w=w: check_determinism(w))
        for w in (w["name"] for w in spec["workloads"])
    ]
    failures = 0
    for label, fn in checks:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"ok   {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
