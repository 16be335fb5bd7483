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
run manifest.  One generator, `_rows`, formats every row of the long format,
trajectories and plot data (`emit_plot_data`'s time,series,value rows) alike.
A file is streamed into a temporary file beside its target one sample time at
a time, so a write holds one time's rows in memory, and the file is then
renamed over the target (`_write_atomic`): a failed write leaves the previous
file and no temporary file.  `emit_plot_data` refuses two `series` inputs with
one file stem, and an `overlay` input that is neither micro nor meanfield.
`read_trajectory` parses the body in bulk, one split for the whole body and
one conversion per column.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from ..meanfield import OdeTrajectory
from ..micro import RNG_ALGORITHM, MicroTrajectory

FORMAT_TAG = "islandsis-trajectory v1"
HEADER = ("time", "island", "strain", "count", "fraction")
_INT64_MAX = np.iinfo(np.int64).max


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


def _rows(times, middles: list[str], values, counts=None) -> Iterator[str]:
    """Yield one chunk of rows per sample time: the time, each cell's middle (its fields
    up to the value, commas included) and count if any, then its value.  The only row writer."""
    for ti, t in enumerate(times.tolist()):
        t = format(t, ".17g")
        cells = middles if counts is None else map("{}{},".format, middles, counts[ti].ravel().tolist())
        yield "".join([f"{t}{cell}{x:.17g}\n" for cell, x in zip(cells, values[ti].ravel().tolist())])


def _render(times, fractions, counts, metadata: dict) -> Iterator[str]:
    """Yield the file: its head, then one chunk of M*K rows per sample time."""
    yield "".join([f"# {FORMAT_TAG}\n", *(f"# {key}: {value}\n" for key, value in metadata.items()),
                   ",".join(HEADER) + "\n"])
    no_count = "," if counts is None else ""
    yield from _rows(times, [f",{i + 1},{k + 1},{no_count}" for i, k in np.ndindex(fractions.shape[1:])],
                     fractions, counts)


def _write_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Write `chunks` beside `path` (creating its directory), then rename it over `path`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.writelines(chunks)
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


def _fields(line: str) -> list[str]:
    """The fields of one data row, as a refusal names them."""
    return line.split(",") if line else []


def _count(text: str) -> int:
    return int(text) if text else -1  # a missing count is refused with a negative one


def _first_unparsable(texts: list[str], convert) -> int:
    """The index of the first text `convert` refuses, or len(texts)."""
    for n, text in enumerate(texts):
        try:
            convert(text)
        except ValueError:
            return n
    return len(texts)


def _parse_rows(path: str | Path, rows: list[str]):
    """Parse data rows in bulk: one split of the whole body, one map per column.

    Returns (times, fractions, islands, strains, counts); counts is None when
    no row has one.  Raises ValueError naming the first faulty row.
    """
    n = len(rows)
    commas = np.fromiter(map(str.count, rows, repeat(",")), np.intp, n)
    misshapen = np.flatnonzero(commas != 4)
    end = int(misshapen[0]) if misshapen.size else n
    fields = ",".join(rows[:end]).split(",") if end else []
    columns = [fields[j::5] for j in range(5)]
    converters = (float, int, int, _count if any(columns[3]) else None, float)
    parsed = []
    for texts, convert in zip(columns, converters):
        try:
            parsed.append(None if convert is None else list(map(convert, texts)))
        except ValueError:
            end = min(end, _first_unparsable(texts, convert))
    if end < n:
        if end:
            _parse_rows(path, rows[:end])  # a fault in an earlier row is the one named
        raise ValueError(f"{path}: malformed row {_fields(rows[end])}")
    t, islands, strains, counts, frac = parsed
    times, fractions = np.array(t), np.array(frac)
    placed = np.isfinite(times) & (times >= 0)
    if min(islands) < 1 or min(strains) < 1:
        placed &= np.array([i >= 1 and k >= 1 for i, k in zip(islands, strains)])
    checks = [(placed, "needs a finite time >= 0 and 1-based indices"),
              (np.isfinite(fractions), "needs a finite fraction")]
    if counts is not None:
        checks.append((np.array([0 <= c <= _INT64_MAX for c in counts]),
                       "needs a count from 0 to 2**63 - 1, as the file's rows carry counts"))
    faults = [(int(np.argmin(ok)), order) for order, (ok, _) in enumerate(checks) if not ok.all()]
    if faults:
        row, order = min(faults)
        raise ValueError(f"{path}: row {_fields(rows[row])} {checks[order][1]}")
    return times, fractions, islands, strains, counts


def read_trajectory(path: str | Path) -> TrajectoryData:
    """Parse a trajectory CSV back into arrays.

    Raises:
        OSError: when the file cannot be read.
        ValueError: naming the file, on a missing format tag or header, a
            malformed or out-of-range row (a time that is not finite and >= 0,
            an index below 1, a fraction that is not finite, or a missing or
            negative count in a file with counts), or a missing or repeated cell.
    """
    lines = Path(path).read_text(errors="replace").splitlines()
    if not lines or lines[0] != f"# {FORMAT_TAG}":
        raise ValueError(f"{path}: not an islandsis trajectory file")
    metadata: dict[str, str] = {}
    head = 1
    while head < len(lines) and lines[head].startswith("# "):
        key, _, value = lines[head][2:].partition(": ")
        metadata[key] = value
        head += 1
    if head == len(lines) or tuple(lines[head].split(",")) != HEADER:
        raise ValueError(f"{path}: missing column header {HEADER}")
    if head + 1 == len(lines):
        raise ValueError(f"{path}: no data rows")
    times, values, islands, strains, counts = _parse_rows(path, lines[head + 1:])
    grid, ti = np.unique(times, return_inverse=True)
    m, kk = max(islands), max(strains)
    n_cells = grid.size * m * kk
    sparse = f"{path}: sparse rows; every (time, island, strain) cell is required"
    if len(values) < n_cells:  # also keeps a huge index from sizing the arrays
        raise ValueError(sparse)
    cell = (ti * m + np.array(islands) - 1) * kk + np.array(strains) - 1
    fractions = np.full(n_cells, np.nan)
    fractions[cell] = values  # every value is finite, so a NaN left is a missing cell
    if np.isnan(fractions).any():
        raise ValueError(sparse)
    if len(values) != n_cells:
        raise ValueError(f"{path}: {len(values)} rows for {n_cells} cells; "
                         "each (time, island, strain) cell must appear once")
    if counts is not None:
        counts_out = np.zeros(n_cells, dtype=np.int64)
        counts_out[cell] = counts
        counts = counts_out.reshape(grid.size, m, kk)
    return TrajectoryData(
        metadata=metadata, times=grid, fractions=fractions.reshape(grid.size, m, kk), counts=counts
    )


def write_manifest(path: str | Path, manifest: dict) -> None:
    """Write `manifest` as indented JSON with sorted keys (see `_write_atomic`)."""
    _write_atomic(path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n",))


def read_manifest(path: str | Path) -> dict:
    """Parse a JSON manifest; a ValueError names the file."""
    try:
        return json.loads(Path(path).read_text(errors="replace"))
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None


PLOT_HEADER = ("time", "series", "value")
PLOT_MODES = ("series", "overlay")


def _csv_field(text: str) -> str:
    """`text` quoted as csv.writer quotes a field with "\\r\\n" line ends, so csv.reader reads it back."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def emit_plot_data(inputs: list[str | Path], mode: str, out_path: str | Path) -> int:
    """Merge trajectory files into a long-format (time, series, value) CSV.

    mode "series": one series per input file per (island, strain), labelled by
    the file's stem; a repeated stem is refused.
    mode "overlay": micro inputs are aggregated into mean and standard-error
    series per (island, strain); at most one ODE input adds an "ode" series.
    An input of any other kind is refused.
    All inputs must share one time grid.  Rows stream through `_rows`, one
    sample time at a time.  Returns the number of data rows.
    """
    if mode not in PLOT_MODES:
        raise ValueError(f"unknown plotdata mode {mode!r}")
    data = [read_trajectory(p) for p in inputs]
    for d in data[1:]:
        if not np.array_equal(d.times, data[0].times):
            raise ValueError("plotdata inputs disagree on the time grid")
    if any(d.fractions.shape[1:] != data[0].fractions.shape[1:] for d in data):
        raise ValueError("plotdata inputs disagree on islands/strains")
    if mode == "series":
        stems = [Path(p).stem for p in inputs]
        for stem in stems:
            if stems.count(stem) > 1:
                raise ValueError(f"plotdata inputs repeat the file stem {stem!r}, "
                                 "so their series would share labels")
        series = [(stem, d.fractions) for stem, d in zip(stems, data)]
    else:
        for p, d in zip(inputs, data):
            if d.kind not in ("micro", "meanfield"):
                raise ValueError(f"{p}: overlay mode needs a micro or meanfield trajectory, "
                                 f"not kind {d.kind!r}")
        micro = [d.fractions for d in data if d.kind == "micro"]
        odes = [("ode", d.fractions) for d in data if d.kind == "meanfield"]
        if len(odes) > 1:
            raise ValueError("overlay mode accepts at most one ODE input")
        series = odes
        if micro:
            stack = np.stack(micro)
            spread = (stack.std(axis=0, ddof=1) / np.sqrt(len(micro)) if len(micro) > 1
                      else np.zeros_like(stack[0]))
            series = [("mean", stack.mean(axis=0)), ("stderr", spread), *odes]
    labelled = (_rows(data[0].times, [f",{_csv_field(f'{label}:island{i + 1}:strain{k + 1}')},"
                                      for i, k in np.ndindex(values.shape[1:])], values)
                for label, values in series)
    _write_atomic(out_path, chain([",".join(PLOT_HEADER) + "\n"], chain.from_iterable(labelled)))
    return sum(values.size for _, values in series)
