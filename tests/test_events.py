"""Event containers, file round-trips and time-grid construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppfilt.bench import hawkes_like_data
from ppfilt.events import (
    MERGE_TOL,
    EventData,
    Trial,
    load_events,
    make_time_grid,
    save_events,
    split_replications,
)

from conftest import make_event_data
from oracles import merge_loop_time_grid

# offsets that put an event exactly at, just inside and just outside MERGE_TOL of a point
_EDGE_OFFSETS = [
    sign * off
    for off in (0.0, 5e-13, MERGE_TOL, np.nextafter(MERGE_TOL, 0.0), np.nextafter(MERGE_TOL, 1.0))
    for sign in (1.0, -1.0)
]


@st.composite
def grids_with_near_events(draw):
    """(t_end, base_n, events) with events at and within ~MERGE_TOL of uniform points.

    Some grids have a spacing near MERGE_TOL, so one event can be within the
    tolerance of several uniform points and several events of one point.
    """
    base_n = draw(st.integers(1, 40))
    spacing = draw(st.sampled_from([None, 0.4e-12, 1e-12, 1.5e-12, 2e-12, 3e-12]))
    t_end = base_n * spacing if spacing else draw(st.sampled_from([1.0, 7.3, 0.01]))
    uniform = np.linspace(0.0, t_end, base_n + 1)
    offset = st.sampled_from(_EDGE_OFFSETS) | st.floats(-2e-12, 2e-12)
    anchored = draw(st.lists(st.tuples(st.integers(0, base_n), offset), max_size=12))
    free = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=8))
    times = np.unique([uniform[j] + off for j, off in anchored] + [f * t_end for f in free])
    return t_end, base_n, times[(times > 0.0) & (times < t_end)]


def assert_same_grid(grid, expected):
    for name in ("points", "deltas", "jump_indices"):
        got, want = getattr(grid, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


class TestTrial:
    def test_sorted_times_accepted(self):
        t = Trial(t_end=1.0, events={"a": [0.3, 0.6]})
        np.testing.assert_array_equal(t.events["a"], [0.3, 0.6])

    def test_duplicate_time_rejected(self):
        with pytest.raises(ValueError, match="simple point process"):
            Trial(t_end=1.0, events={"a": [0.3, 0.3]})

    def test_times_outside_window_rejected(self):
        with pytest.raises(ValueError):
            Trial(t_end=1.0, events={"a": [0.0, 0.5]})
        with pytest.raises(ValueError):
            Trial(t_end=1.0, events={"a": [0.5, 1.0]})

    def test_channel_set_must_match(self):
        t1 = Trial(t_end=1.0, events={"a": [0.5]})
        t2 = Trial(t_end=1.0, events={"b": [0.5]})
        with pytest.raises(ValueError, match="channel set"):
            EventData([t1, t2], ["a"])


class TestLoadSave:
    def test_csv_basic_parse(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("trial,channel,time\n1,a,0.3\n1,a,0.6\n")
        data = load_events(path)
        assert data.n_trials == 1
        np.testing.assert_array_equal(data.trials[0].events["a"], [0.3, 0.6])

    def test_csv_duplicate_rejected(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("trial,channel,time\n1,a,0.3\n1,a,0.3\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_events(path)

    def test_csv_missing_header(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("a,b,c\n1,a,0.3\n")
        with pytest.raises(ValueError, match="header"):
            load_events(path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip_times_bit_exact(self, tmp_path, fmt):
        data = make_event_data(n_trials=3, seed=42)
        path = tmp_path / f"events.{fmt}"
        save_events(data, path, format=fmt)
        loaded = load_events(path, format=fmt)
        assert loaded.n_trials == data.n_trials
        for orig, back in zip(data.trials, loaded.trials):
            for ch in data.channels:
                np.testing.assert_array_equal(orig.events[ch], back.events[ch])

    def test_json_round_trips_t_end(self, tmp_path):
        data = make_event_data(n_trials=2, t_end=7.5, seed=1)
        path = tmp_path / "events.json"
        save_events(data, path, format="json")
        loaded = load_events(path)
        assert all(t.t_end == 7.5 for t in loaded.trials)


class TestTimeGrid:
    def test_uniform_no_events(self):
        trial = Trial(t_end=1.0, events={"a": []})
        grid = make_time_grid(trial, "a", base_n=10)
        np.testing.assert_allclose(grid.points, np.linspace(0, 1, 11))
        assert len(grid.jump_indices) == 0

    def test_single_insertion(self):
        trial = Trial(t_end=1.0, events={"a": [0.35]})
        grid = make_time_grid(trial, "a", base_n=10)
        assert grid.n == 11
        idx = int(grid.jump_indices[0])
        assert grid.points[idx] == 0.35
        assert grid.points[idx - 1] < 0.35 < grid.points[idx + 1]

    def test_dedup_on_grid_point(self):
        trial = Trial(t_end=1.0, events={"a": [0.3]})
        grid = make_time_grid(trial, "a", base_n=10)
        assert grid.n == 10
        np.testing.assert_array_equal(grid.jump_indices, [3])
        assert grid.points[3] == 0.3  # the event value wins the merge

    def test_target_missing(self):
        trial = Trial(t_end=1.0, events={"a": [0.5]})
        with pytest.raises(KeyError):
            make_time_grid(trial, "b", base_n=10)

    def test_deltas_positive_and_sum_to_t(self):
        trial = Trial(t_end=2.0, events={"a": [0.31, 0.62, 1.7]})
        grid = make_time_grid(trial, "a", base_n=13)
        assert np.all(grid.deltas > 0)
        assert abs(grid.deltas.sum() - 2.0) <= 1e-12

    @given(
        st.lists(st.floats(0.01, 0.99), min_size=0, max_size=12, unique=True),
        st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_event_is_a_jump_grid_point(self, raw_times, base_n):
        times = np.sort(np.asarray(raw_times))
        if len(times) and np.any(np.diff(times) <= 0):
            return
        trial = Trial(t_end=1.0, events={"a": times})
        grid = make_time_grid(trial, "a", base_n=base_n)
        assert len(grid.jump_indices) == len(times)
        np.testing.assert_array_equal(grid.points[grid.jump_indices], times)
        assert np.all(grid.deltas > 0)
        assert abs(grid.deltas.sum() - 1.0) <= 1e-12
        assert grid.n <= base_n + len(times)


    @given(grids_with_near_events())
    @settings(max_examples=400, deadline=None)
    def test_matches_merge_loop(self, case):
        t_end, base_n, times = case
        trial = Trial(t_end=t_end, events={"a": times})
        try:
            expected = merge_loop_time_grid(trial, "a", base_n)
        except ValueError:
            with pytest.raises(ValueError, match="grid spacings must be positive"):
                make_time_grid(trial, "a", base_n)
            return
        assert_same_grid(make_time_grid(trial, "a", base_n), expected)

    def test_matches_merge_loop_on_hawkes_data(self):
        trial = hawkes_like_data(p=1, t_end=60.0, seed=3).trials[0]
        expected = merge_loop_time_grid(trial, "c0", 24000)
        assert_same_grid(make_time_grid(trial, "c0", 24000), expected)


class TestSplit:
    def test_partition(self):
        data = make_event_data(n_trials=5)
        train, test = split_replications(data, 2)
        assert train.n_trials == 4
        assert test.n_trials == 1
        np.testing.assert_array_equal(
            test.trials[0].events["a"], data.trials[2].events["a"]
        )

    def test_two_trials(self):
        data = make_event_data(n_trials=2)
        train, test = split_replications(data, 0)
        assert train.n_trials == 1
        np.testing.assert_array_equal(
            train.trials[0].events["a"], data.trials[1].events["a"]
        )

    def test_single_trial_error(self):
        data = make_event_data(n_trials=1)
        with pytest.raises(ValueError, match="single-trial"):
            split_replications(data, 0)

    def test_bad_index(self):
        data = make_event_data(n_trials=3)
        with pytest.raises(IndexError):
            split_replications(data, 3)
