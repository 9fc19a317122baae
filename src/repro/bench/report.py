"""Table/figure formatting for experiment results.

The paper's figures are bar charts of relative speedup vs process
count; in a terminal reproduction each becomes a table whose rows are
process counts and whose columns are the Default / Shrinking(best) /
Shrinking(worst) bars, printed next to the paper-reported values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .harness import ExperimentResult


def _fmt(x: Optional[float], width: int = 9, prec: int = 2) -> str:
    if x is None:
        return " " * (width - 3) + "n/a"
    return f"{x:>{width}.{prec}f}"


def hline(width: int = 78) -> str:
    return "-" * width


def figure_speedup_table(
    res: ExperimentResult,
    *,
    reference: str = "libsvm-enhanced",
    title: str = "",
) -> str:
    """Render a Figures 3-7 style table: speedup per p per heuristic."""
    ref_attr = {
        "libsvm-enhanced": "speedups_enh",
        "libsvm-sequential": "speedups_seq",
        "original": "speedups_vs_original",
    }[reference]
    names = list(res.runs)
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"dataset={res.dataset}  run n={res.data.n_train} "
        f"(paper N={res.entry.paper_train}, x{res.n_scale:.0f})  "
        f"iteration axis x{res.iteration_scale:.1f}"
    )
    lines.append(
        f"baseline (paper scale): libsvm-enhanced {res.baseline_enh.total:.1f}s, "
        f"libsvm-sequential {res.baseline_seq.total:.1f}s"
    )
    lines.append(hline())
    header = f"{'procs':>6} |" + "".join(f"{n:>14}" for n in names)
    lines.append(f"speedup vs {reference}")
    lines.append(header)
    lines.append(hline())
    for i, p in enumerate(res.procs):
        row = f"{p:>6} |"
        for n in names:
            series = getattr(res.runs[n], ref_attr)
            row += _fmt(series[i] if i < len(series) else None, 14)
        lines.append(row)
    lines.append(hline())
    iters = "  ".join(f"{n}={res.runs[n].iterations}" for n in names)
    lines.append(f"iterations: {iters}  libsvm={res.libsvm_iterations}")
    best, worst = res.best_worst()
    lines.append(
        f"observed best heuristic: {best}   worst: {worst}   "
        f"(paper: best={res.entry.facts.best_heuristic}, "
        f"worst={res.entry.facts.worst_heuristic})"
    )
    if res.entry.facts.speedup_best is not None:
        lines.append(
            f"paper headline: {res.entry.facts.speedup_best}x vs "
            f"{res.entry.facts.speedup_reference} at p={res.entry.facts.max_procs}"
        )
    return "\n".join(lines)


def recon_fraction_table(
    results: Dict[str, ExperimentResult], heuristic: str = "multi5pc"
) -> str:
    """Figure 8: fraction of time in gradient reconstruction vs scale."""
    lines = [
        f"Figure 8 — fraction of total time in gradient reconstruction "
        f"({heuristic})",
        hline(),
    ]
    all_ps = sorted({p for r in results.values() for p in r.procs})
    header = f"{'dataset':>10} |" + "".join(f"{p:>9}" for p in all_ps)
    lines.append(header)
    lines.append(hline())
    for name, res in results.items():
        run = res.runs.get(heuristic)
        row = f"{name:>10} |"
        for p in all_ps:
            if run is not None and p in res.procs:
                frac = run.recon_fractions[res.procs.index(p)]
                row += f"{frac:>9.3f}"
            else:
                row += " " * 9
        lines.append(row)
    lines.append(hline())
    lines.append("paper: ratio decreases with scale; <10% at 4096 procs (HIGGS)")
    return "\n".join(lines)


def table4(rows: Sequence[dict]) -> str:
    """Table IV: relative speedup to libsvm-sequential, small datasets."""
    lines = [
        "Table IV — relative speedup to libsvm-sequential (small datasets)",
        hline(),
        f"{'dataset':>10} {'procs':>6} {'Default':>9} {'Shr(worst)':>11} "
        f"{'Shr(best)':>10} | {'paper best':>10}",
        hline(),
    ]
    for r in rows:
        lines.append(
            f"{r['dataset']:>10} {r['procs']:>6} {_fmt(r['default'])} "
            f"{_fmt(r['worst'], 11)} {_fmt(r['best'], 10)} | "
            f"{_fmt(r.get('paper_best'), 10)}"
        )
    lines.append(hline())
    return "\n".join(lines)


def table5(rows: Sequence[dict]) -> str:
    """Table V: testing accuracy, ours vs the libsvm-style baseline."""
    lines = [
        "Table V — testing accuracy (%)",
        hline(),
        f"{'dataset':>10} {'ours':>8} {'libsvm':>8} | "
        f"{'paper ours':>10} {'paper libsvm':>12}",
        hline(),
    ]
    for r in rows:
        lines.append(
            f"{r['dataset']:>10} {_fmt(r['ours'], 8)} {_fmt(r['libsvm'], 8)} | "
            f"{_fmt(r.get('paper_ours'), 10)} {_fmt(r.get('paper_libsvm'), 12)}"
        )
    lines.append(hline())
    return "\n".join(lines)


def heuristics_table(rows: Sequence[dict]) -> str:
    """Table II ablation: every heuristic on one dataset."""
    lines = [
        "Table II ablation — all 13 heuristics",
        hline(),
        f"{'heuristic':>12} {'class':>13} {'iters':>8} {'recons':>7} "
        f"{'shrunk':>7} {'vtime(ms)':>10} {'speedup':>8} {'acc_ok':>7}",
        hline(),
    ]
    for r in rows:
        lines.append(
            f"{r['name']:>12} {r['class']:>13} {r['iterations']:>8} "
            f"{r['recons']:>7} {r['shrunk']:>7} {r['vtime_ms']:>10.2f} "
            f"{_fmt(r['speedup'], 8)} {str(r['accuracy_ok']):>7}"
        )
    lines.append(hline())
    return "\n".join(lines)


def convergence_curve(
    gaps, *, width: int = 64, height: int = 12, title: str = ""
) -> str:
    """ASCII log-scale convergence plot of the optimality gap."""
    import numpy as np

    gaps = np.asarray(gaps, dtype=np.float64)
    gaps = gaps[gaps > 0]
    if gaps.size < 2:
        return "(no convergence history)"
    logs = np.log10(gaps)
    lo, hi = float(logs.min()), float(logs.max())
    span = max(hi - lo, 1e-12)
    # downsample to the plot width
    xs = np.linspace(0, logs.size - 1, width).astype(int)
    cols = logs[xs]
    grid = [[" "] * width for _ in range(height)]
    for c, v in enumerate(cols):
        r = int((hi - v) / span * (height - 1))
        grid[r][c] = "*"
    lines = []
    if title:
        lines.append(title)
    for r, row in enumerate(grid):
        label = hi - r * span / (height - 1)
        lines.append(f"1e{label:+5.1f} |" + "".join(row))
    lines.append(" " * 8 + "+" + "-" * width)
    lines.append(
        " " * 9 + f"iteration 0 .. {gaps.size - 1} "
        f"(gap: {gaps[0]:.3g} -> {gaps[-1]:.3g})"
    )
    return "\n".join(lines)


def active_set_summary(res: ExperimentResult, heuristic: str) -> str:
    """§V-D analysis: active-set trajectory statistics."""
    tr = res.runs[heuristic].fit.trace
    lines = [
        f"active-set analysis ({res.dataset}, {heuristic}): "
        f"iterations={tr.iterations}, total shrunk={tr.total_shrunk()}, "
        f"reconstructions={tr.n_reconstructions()}",
    ]
    for frac in (0.1, 0.2, 0.5):
        lines.append(
            f"  fraction of iterations with active set <= {int(frac * 100)}% "
            f"of N: {tr.fraction_of_iters_below(frac):.2f}"
        )
    return "\n".join(lines)
