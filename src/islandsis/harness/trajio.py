"""Trajectory file I/O.

One CSV schema serves both simulators and the ODE solver so columns can be
compared directly:

    # islandsis-trajectory v1
    # key: value ...            (metadata block)
    time,island,strain,count,fraction

Counts are integers for micro trajectories and empty for ODE rows.  Floats
are written with 17 significant digits so doubles round-trip losslessly.
Rows are emitted densely: for every time, every (island, strain) pair in
order.  Timestamps never appear in trajectory files; they live only in the
run manifest.  Each file is written beside its target, then renamed over it
(`_write_atomic`), so a failed write leaves the previous file and no temporary file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..meanfield import OdeTrajectory
from ..micro import RNG_ALGORITHM, MicroTrajectory

FORMAT_TAG = "islandsis-trajectory v1"
HEADER = ("time", "island", "strain", "count", "fraction")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class TrajectoryData:
    """A parsed trajectory file."""

    metadata: dict[str, str]
    times: np.ndarray  # (T,)
    fractions: np.ndarray  # (T, M, K)
    counts: np.ndarray | None  # (T, M, K) int64, None for ODE files

    @property
    def kind(self) -> str:
        return self.metadata.get("kind", "unknown")


def _render(times, fractions, counts, metadata: dict) -> str:
    buf = io.StringIO()
    buf.write(f"# {FORMAT_TAG}\n")
    for key, value in metadata.items():
        buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    n_t, m, kk = fractions.shape
    for ti in range(n_t):
        t_str = _fmt(times[ti])
        for i in range(m):
            for k in range(kk):
                count = "" if counts is None else str(int(counts[ti, i, k]))
                writer.writerow([t_str, i + 1, k + 1, count, _fmt(fractions[ti, i, k])])
    return buf.getvalue()


def _write_atomic(path: str | Path, text: str) -> None:
    """Write `text` beside `path` (creating its directory), then rename it over `path`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_micro_trajectory(path: str | Path, traj: MicroTrajectory, extra_meta: dict | None = None) -> None:
    meta = {
        "kind": "micro",
        "simulator": traj.simulator,
        "seed": traj.seed,
        "rep": traj.rep,
        "rng": RNG_ALGORITHM,
        "n_events": traj.n_events,
        "sizes": " ".join(str(s) for s in traj.sizes),
    }
    meta.update(extra_meta or {})
    _write_atomic(path, _render(traj.times, traj.fractions(), traj.counts, meta))


def write_ode_trajectory(
    path: str | Path,
    traj: OdeTrajectory,
    extra_meta: dict | None = None,
    times: np.ndarray | None = None,
) -> None:
    """Write an ODE trajectory with state shape (M, K).

    `times`, when given, replaces the recorded times (the caller's sample grid).
    """
    states = traj.states
    if states.ndim != 3:
        raise ValueError("expected an unbatched trajectory with state shape (M, K)")
    meta = {"kind": "meanfield"}
    meta.update({f"integrator_{k}": v for k, v in traj.integrator_metadata().items()})
    meta.update(extra_meta or {})
    t = traj.times if times is None else np.asarray(times, dtype=float)
    _write_atomic(path, _render(t, states, None, meta))


def read_trajectory(path: str | Path) -> TrajectoryData:
    """Parse a trajectory CSV back into arrays.

    Raises:
        OSError: when the file cannot be read.
        ValueError: naming the file, on a missing format tag or header, a
            malformed or out-of-range row, or a missing or repeated cell.
    """
    lines = Path(path).read_text(errors="replace").splitlines()
    if not lines or lines[0] != f"# {FORMAT_TAG}":
        raise ValueError(f"{path}: not an islandsis trajectory file")
    metadata: dict[str, str] = {}
    body_start = 1
    for idx, line in enumerate(lines[1:], start=1):
        if not line.startswith("# "):
            body_start = idx
            break
        key, _, value = line[2:].partition(": ")
        metadata[key] = value
    rows = list(csv.reader(lines[body_start:]))
    if not rows or tuple(rows[0]) != HEADER:
        raise ValueError(f"{path}: missing column header {HEADER}")
    if len(rows) == 1:
        raise ValueError(f"{path}: no data rows")
    parsed = []
    for row in rows[1:]:
        try:
            t, i, k, count, frac = row
            cell = (float(t), int(i), int(k), int(count) if count else None, float(frac))
        except ValueError:
            raise ValueError(f"{path}: malformed row {row}") from None
        if not (math.isfinite(cell[0]) and cell[0] >= 0 and cell[1] >= 1 and cell[2] >= 1):
            raise ValueError(f"{path}: row {row} needs a finite time >= 0 and 1-based indices")
        parsed.append(cell)
    m, kk = max(p[1] for p in parsed), max(p[2] for p in parsed)
    times = sorted({p[0] for p in parsed})
    t_index = {t: n for n, t in enumerate(times)}
    fractions = np.full((len(times), m, kk), np.nan)
    has_counts = any(p[3] is not None for p in parsed)
    counts = np.zeros((len(times), m, kk), dtype=np.int64) if has_counts else None
    for t, i, k, count, frac in parsed:
        ti = t_index[t]
        fractions[ti, i - 1, k - 1] = frac
        if has_counts:
            counts[ti, i - 1, k - 1] = count or 0
    if np.any(np.isnan(fractions)):
        raise ValueError(f"{path}: sparse rows; every (time, island, strain) cell is required")
    if len(parsed) != fractions.size:
        raise ValueError(f"{path}: {len(parsed)} rows for {fractions.size} cells; "
                         "each (time, island, strain) cell must appear once")
    return TrajectoryData(
        metadata=metadata, times=np.asarray(times), fractions=fractions, counts=counts
    )


def write_manifest(path: str | Path, manifest: dict) -> None:
    """Write `manifest` as indented JSON with sorted keys (see `_write_atomic`)."""
    _write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path: str | Path) -> dict:
    """Parse a JSON manifest; a ValueError names the file."""
    try:
        return json.loads(Path(path).read_text(errors="replace"))
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None


PLOT_HEADER = ("time", "series", "value")
PLOT_MODES = ("series", "overlay")


def emit_plot_data(
    inputs: list[str | Path], mode: str, out_path: str | Path
) -> int:
    """Merge trajectory files into a long-format (time, series, value) CSV.

    mode "series": one series per input file per (island, strain).
    mode "overlay": micro inputs are aggregated into mean and standard-error
    series per (island, strain); at most one ODE input adds an "ode" series.
    All inputs must share one time grid.  Returns the number of data rows.
    """
    if mode not in PLOT_MODES:
        raise ValueError(f"unknown plotdata mode {mode!r}")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PLOT_HEADER)
    n_rows = 0
    if inputs:
        data = [read_trajectory(p) for p in inputs]
        base_times = data[0].times
        for d in data[1:]:
            if not np.array_equal(d.times, base_times):
                raise ValueError("plotdata inputs disagree on the time grid")
        _, m, kk = data[0].fractions.shape
        if any(d.fractions.shape[1:] != (m, kk) for d in data):
            raise ValueError("plotdata inputs disagree on islands/strains")

        def emit(label: str, values: np.ndarray) -> None:
            nonlocal n_rows
            for ti, t in enumerate(base_times):
                for i in range(m):
                    for k in range(kk):
                        writer.writerow(
                            [_fmt(t), f"{label}:island{i + 1}:strain{k + 1}", _fmt(values[ti, i, k])]
                        )
                        n_rows += 1

        if mode == "series":
            for p, d in zip(inputs, data):
                emit(Path(p).stem, d.fractions)
        else:
            micro = [d for d in data if d.kind == "micro"]
            odes = [d for d in data if d.kind == "meanfield"]
            if len(odes) > 1:
                raise ValueError("overlay mode accepts at most one ODE input")
            if micro:
                stack = np.stack([d.fractions for d in micro])
                emit("mean", stack.mean(axis=0))
                if len(micro) > 1:
                    emit("stderr", stack.std(axis=0, ddof=1) / np.sqrt(len(micro)))
                else:
                    emit("stderr", np.zeros_like(stack[0]))
            if odes:
                emit("ode", odes[0].fractions)
    _write_atomic(out_path, out.getvalue())
    return n_rows
