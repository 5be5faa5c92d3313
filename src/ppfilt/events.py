"""Replicated multivariate event-time data and the evaluation time grid.

A trial is an observation window [0, t_end] with one sorted event-time vector
per channel.  Trials are independent replications sharing a channel set;
likelihood contributions across trials add.  All containers are treated as
immutable after construction.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MERGE_TOL = 1e-12


@dataclass(frozen=True)
class Trial:
    """One observation window with per-channel sorted event times (seconds)."""

    t_end: float
    events: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if not np.isfinite(self.t_end) or self.t_end <= 0:
            raise ValueError("t_end must be positive and finite")
        clean = {}
        for channel, times in self.events.items():
            arr = np.asarray(times, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"channel {channel!r}: times must be 1-D")
            if len(arr) and (arr.min() <= 0.0 or arr.max() >= self.t_end):
                raise ValueError(
                    f"channel {channel!r}: event times must lie strictly inside (0, {self.t_end})"
                )
            if np.any(np.diff(arr) <= 0.0):
                raise ValueError(
                    f"channel {channel!r}: duplicate or unsorted event time "
                    "(simple point process requires strictly increasing times)"
                )
            clean[channel] = arr
        object.__setattr__(self, "events", clean)

    def count(self, channel: str) -> int:
        return len(self.events[channel])


@dataclass(frozen=True)
class EventData:
    """Replicated trials over a common channel set."""

    trials: list[Trial]
    channels: list[str]

    def __post_init__(self) -> None:
        if not self.trials:
            raise ValueError("at least one trial required")
        chanset = set(self.channels)
        if len(chanset) != len(self.channels):
            raise ValueError("duplicate channel names")
        for idx, trial in enumerate(self.trials):
            if set(trial.events) != chanset:
                raise ValueError(f"trial {idx} channel set differs from {sorted(chanset)}")

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    def total_time(self) -> float:
        return float(sum(t.t_end for t in self.trials))

    def total_count(self, channel: str) -> int:
        return sum(t.count(channel) for t in self.trials)


@dataclass(frozen=True)
class TimeGrid:
    """Evaluation grid 0 = t_0 < ... < t_n = T with target events as grid points.

    ``jump_indices`` are exactly the indices of the target-channel events and
    ``deltas[l-1]`` is t_l - t_{l-1} for l = 1..n.
    """

    points: np.ndarray
    deltas: np.ndarray
    jump_indices: np.ndarray

    @property
    def n(self) -> int:
        return len(self.points) - 1

    @property
    def t_end(self) -> float:
        return float(self.points[-1])


def make_time_grid(trial: Trial, target: str, base_n: int) -> TimeGrid:
    """Union of the uniform (base_n + 1)-point grid with the target event times.

    An event within MERGE_TOL of an interior uniform point replaces that
    point, so the event time itself is always a grid value and every spacing
    stays positive.  The points come in the order of a left-to-right merge
    of the two sorted sequences that puts a uniform point before an equal
    event and lets an event take the first not yet used interior uniform
    point within MERGE_TOL; a merge that leaves points out of order raises.
    """
    if base_n < 1:
        raise ValueError("base_n must be >= 1")
    if target not in trial.events:
        raise KeyError(f"target channel {target!r} not present")
    uniform = np.linspace(0.0, trial.t_end, base_n + 1)
    taus = trial.events[target]
    slot, merged = _merge_slots(uniform, taus)
    keep = np.ones(len(uniform), dtype=bool)
    keep[slot[merged]] = False
    kept = np.flatnonzero(keep)
    # event e is emitted after the e earlier events and the kept uniform points before its slot
    jump_indices = np.arange(len(taus)) + np.searchsorted(kept, slot)
    pts = np.empty(len(kept) + len(taus))
    is_jump = np.zeros(len(pts), dtype=bool)
    is_jump[jump_indices] = True
    pts[is_jump] = taus
    pts[~is_jump] = uniform[kept]
    deltas = np.diff(pts)
    if np.any(deltas <= 0.0):
        raise ValueError("grid spacings must be positive")
    return TimeGrid(pts, deltas, jump_indices)


def _merge_slots(uniform: np.ndarray, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per event, the uniform index at which the merge meets it, and whether it replaces that point.

    An unmerged event is emitted just before uniform point ``slot``; a merged
    one in its place.  Event e may replace any interior point in [a_e, b_e),
    the contiguous run with |u_j - tau_e| <= MERGE_TOL (empty runs are set to
    the first point above tau_e), but only one the earlier events left
    unused: slot_e = max(a_e, next unused point).  That recurrence is solved
    by fixed-point passes from slot = a, which rise monotonically to its
    solution.  One pass settles it unless events contend for the same
    points; each further pass settles one more event of the longest chain
    of contending events.
    """
    last = len(uniform) - 1
    above = np.searchsorted(uniform, taus, side="right")

    def close(j, sel):
        return np.abs(uniform[j] - taus[sel]) <= MERGE_TOL

    # The close points below tau are a suffix of [0, above) and those above a
    # prefix of [above, last].  Searches on tau -+ 2 MERGE_TOL bracket them
    # with a margin far above rounding error; the walks shrink each end to
    # the exact test.
    a = np.minimum(np.searchsorted(uniform, taus - 2 * MERGE_TOL, side="left"), above)
    sel = np.flatnonzero(a < above)
    while len(sel):
        sel = sel[~close(a[sel], sel)]
        a[sel] += 1
        sel = sel[a[sel] < above[sel]]
    b = np.clip(np.searchsorted(uniform, taus + 2 * MERGE_TOL, side="right"), above, last + 1)
    sel = np.flatnonzero(b > above)
    while len(sel):
        sel = sel[~close(b[sel] - 1, sel)]
        b[sel] -= 1
        sel = sel[b[sel] > above[sel]]
    a = np.maximum(a, 1)  # only interior points merge
    b = np.minimum(b, last)
    empty = a >= b
    a[empty] = b[empty] = above[empty]
    slot = a.copy()
    while len(slot):
        prev = slot
        slot = a.copy()
        slot[1:] = np.maximum(prev[:-1] + (prev[:-1] < b[:-1]), a[1:])
        if np.array_equal(slot, prev):
            break
    return slot, slot < b


def split_replications(data: EventData, holdout: int) -> tuple[EventData, EventData]:
    """Partition trials into (all but holdout, holdout alone)."""
    if data.n_trials < 2:
        raise ValueError("cannot hold out from single-trial data")
    if not 0 <= holdout < data.n_trials:
        raise IndexError(f"holdout index {holdout} out of range")
    train = [t for i, t in enumerate(data.trials) if i != holdout]
    test = [data.trials[holdout]]
    return EventData(train, data.channels), EventData(test, data.channels)


# -- file formats -----------------------------------------------------------
#
# CSV: header "trial,channel,time", one event per row; t_end is recovered as
# the per-trial max event time (the window length is not part of the format).
# JSON: {"trials": [{"id": ..., "t_end": ..., "events": {channel: [...]}}]}.


def save_events(data: EventData, path: str | Path, format: str = "json") -> None:
    path = Path(path)
    if format == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", "channel", "time"])
            for idx, trial in enumerate(data.trials):
                for channel in data.channels:
                    for t in trial.events[channel]:
                        writer.writerow([idx, channel, repr(float(t))])
    elif format == "json":
        payload = {
            "trials": [
                {
                    "id": idx,
                    "t_end": trial.t_end,
                    "events": {ch: trial.events[ch].tolist() for ch in data.channels},
                }
                for idx, trial in enumerate(data.trials)
            ]
        }
        with path.open("w") as fh:
            json.dump(payload, fh)
    else:
        raise ValueError(f"unknown format {format!r}")


def load_events(path: str | Path, format: str | None = None) -> EventData:
    path = Path(path)
    if format is None:
        format = "json" if path.suffix.lower() == ".json" else "csv"
    if format == "csv":
        return _load_csv(path)
    if format == "json":
        return _load_json(path)
    raise ValueError(f"unknown format {format!r}")


def _load_csv(path: Path) -> EventData:
    raw: dict[str, dict[str, list[float]]] = {}
    order: list[str] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["trial", "channel", "time"]:
            raise ValueError("expected CSV header 'trial,channel,time'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 3:
                raise ValueError(f"line {lineno}: expected 3 fields")
            trial_id, channel = row[0].strip(), row[1].strip()
            time = float(row[2])
            if trial_id not in raw:
                raw[trial_id] = {}
                order.append(trial_id)
            raw[trial_id].setdefault(channel, []).append(time)
    if not raw:
        raise ValueError("no events found")
    channels = sorted({ch for per in raw.values() for ch in per})
    trials = []
    for trial_id in order:
        per = raw[trial_id]
        t_end = max(max(v) for v in per.values()) * (1.0 + 1e-9)
        events = {}
        for ch in channels:
            times = np.sort(np.asarray(per.get(ch, []), dtype=np.float64))
            if np.any(np.diff(times) == 0.0):
                raise ValueError(f"trial {trial_id}, channel {ch}: duplicate event time")
            events[ch] = times
        trials.append(Trial(t_end=t_end, events=events))
    return EventData(trials, channels)


def _load_json(path: Path) -> EventData:
    with path.open() as fh:
        payload = json.load(fh)
    entries = payload.get("trials")
    if not entries:
        raise ValueError("JSON must contain a nonempty 'trials' list")
    channels = sorted({ch for entry in entries for ch in entry["events"]})
    trials = []
    for entry in entries:
        events = {}
        for ch in channels:
            times = np.sort(np.asarray(entry["events"].get(ch, []), dtype=np.float64))
            if np.any(np.diff(times) == 0.0):
                raise ValueError(f"trial {entry.get('id')}, channel {ch}: duplicate event time")
            events[ch] = times
        trials.append(Trial(t_end=float(entry["t_end"]), events=events))
    return EventData(trials, channels)
