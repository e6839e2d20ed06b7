"""Paper-style ASCII table rendering.

Every evaluation table of the paper (VI through XIV) has a renderer
here; the benchmark harness prints them so a run's output can be read
against the paper side by side.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.estimate import time_error_pct
from repro.core.model import IOModel
from repro.core.pipeline import Evaluation
from repro.iosim.cluster import ClusterDescription

MB = 1024 * 1024
GB = 1024 * MB


def render(headers: Sequence[str], rows: Sequence[Sequence[object]],
           title: str | None = None, markdown: bool = False) -> str:
    """Generic fixed-width table (``markdown=True`` for GFM pipes)."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells for {len(headers)} headers")
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    out = []
    if title:
        out.append(f"**{title}**" if markdown else title)
        if markdown:
            out.append("")
    if markdown:
        out.append("| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |")
        out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        for row in cells:
            out.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
        return "\n".join(out)
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append("-+-".join("-" * w for w in widths))
    for row in cells:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def fmt_bytes(n: int) -> str:
    """Human form used by the paper: whole GB/MB."""
    if n >= GB and n % GB == 0:
        return f"{n // GB}GB"
    if n >= GB:
        return f"{n / GB:.1f}GB"
    return f"{n // MB}MB"


def configuration_table(descs: Sequence[ClusterDescription],
                        title: str = "I/O configurations") -> str:
    """Tables VI/VII: one column per configuration."""
    rows = [
        ("I/O library", [d.io_library for d in descs]),
        ("Communication Network", [d.comm_network for d in descs]),
        ("Storage Network", [d.storage_network for d in descs]),
        ("Filesystem Global", [d.global_filesystem for d in descs]),
        ("I/O nodes", [d.io_nodes for d in descs]),
        ("Filesystem Local", [d.local_filesystem for d in descs]),
        ("Redundancy", [d.redundancy for d in descs]),
        ("Number of I/O Devices", [str(d.n_devices) for d in descs]),
        ("Capacity of I/O Devices", [d.device_capacity for d in descs]),
        ("Mounting Point", [d.mount_point for d in descs]),
    ]
    headers = ["I/O Element"] + [d.name for d in descs]
    return render(headers, [[label] + vals for label, vals in rows], title=title)


def phases_table(model: IOModel, title: str | None = None) -> str:
    """Table VIII / XI style: phase id, ops, initOffset, rep, weight."""
    rows = []
    for ph in model.phases:
        for i, op in enumerate(ph.ops):
            rows.append([
                str(ph.phase_id) if i == 0 else "",
                f"{ph.np} {'write' if op.kind == 'write' else 'read'}",
                op.abs_offset_fn.expression(rs=op.request_size),
                ph.rep if i == 0 else "",
                fmt_bytes(ph.np * ph.rep * op.request_size),
            ])
    return render(["Phase", "#Oper.", "InitOffset", "Rep", "weight"], rows,
                  title=title or f"I/O phases of {model.app_name} ({model.np} procs)")


def usage_table(evaluation: Evaluation, title: str | None = None) -> str:
    """Tables IX/X: per-phase weight, BW_PK, BW_MD, system usage."""
    rows = []
    for r in evaluation.rows:
        rows.append([
            r.phase_id,
            f"{r.n_operations} {r.op_label}",
            fmt_bytes(r.weight),
            f"{r.bw_pk_mb_s:.0f}" if r.bw_pk_mb_s else "-",
            f"{r.bw_md_mb_s:.0f}",
            f"{r.usage_pct:.0f}" if r.bw_pk_mb_s else "-",
        ])
    return render(
        ["Phase", "#Oper.", "weight", "BW_PK", "BW_MD", "System Usage %"],
        rows,
        title=title or f"I/O system utilization on {evaluation.config_name}",
    )


def time_estimation_table(totals: dict[str, dict[str, float]],
                          title: str = "I/O time estimation (s)") -> str:
    """Table XII: phase-group rows x configuration columns."""
    groups = sorted({g for per in totals.values() for g in per})
    headers = ["Phase"] + [f"Time_io(CH) on {name}" for name in totals]
    rows = []
    for g in groups:
        rows.append([g] + [f"{totals[name].get(g, float('nan')):.2f}"
                           for name in totals])
    return render(headers, rows, title=title)


def error_table(evaluation: Evaluation, groups: dict[str, Sequence[int]],
                title: str | None = None) -> str:
    """Tables XIII/XIV: Time_CH vs Time_MD and relative error per group.

    ``groups`` maps a row label (e.g. "Phase 1-50") to the phase ids it
    aggregates.
    """
    by_id = {r.phase_id: r for r in evaluation.rows}
    rows = []
    for label, ids in groups.items():
        t_ch = sum(by_id[i].time_ch for i in ids if i in by_id)
        t_md = sum(by_id[i].time_md for i in ids if i in by_id)
        rows.append([label, f"{t_ch:.2f}", f"{t_md:.2f}",
                     f"{time_error_pct(t_ch, t_md):.0f}%"])
    return render(["Phase", "Time_io(CH)", "Time_io(MD)", "error_rel"], rows,
                  title=title or f"Estimation error on {evaluation.config_name}")


def btio_phase_groups(ndumps: int) -> dict[str, list[int]]:
    """The paper's BT-IO row grouping: "Phase 1-N" and "Phase N+1"."""
    return {
        f"Phase 1-{ndumps}": list(range(1, ndumps + 1)),
        f"Phase {ndumps + 1}": [ndumps + 1],
    }
