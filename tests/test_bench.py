import logging
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from ppfilt import bench
from ppfilt.bench import hawkes_like_data, run_cells


def _not_pinned_warnings(caplog):
    return [
        r for r in caplog.records
        if r.name == "ppfilt.bench" and r.levelno == logging.WARNING
        and "not single-threaded" in r.getMessage()
    ]


@pytest.fixture
def pools_at_two_threads():
    """The bundled OpenBLAS pools, each set to 2 threads so a restore is visible."""
    pools = bench._bundled_openblas()
    if not pools:
        pytest.skip("no bundled OpenBLAS library found next to numpy or scipy")
    original = [pool.get() for pool in pools]
    for pool in pools:
        pool.set(2)
    yield pools
    for pool, count in zip(pools, original):
        pool.set(count)


class TestSingleThreadPools:
    def test_pins_every_pool_and_restores(self, pools_at_two_threads, caplog):
        pools = pools_at_two_threads
        assert [pool.get() for pool in pools] == [2] * len(pools)
        with bench._single_thread_pools() as counts:
            assert [pool.get() for pool in pools] == [1] * len(pools)
            assert counts and set(counts) == {1}
        assert [pool.get() for pool in pools] == [2] * len(pools)
        assert _not_pinned_warnings(caplog) == []

    def test_restores_when_body_raises(self, pools_at_two_threads):
        pools = pools_at_two_threads
        with pytest.raises(RuntimeError, match="inside"):
            with bench._single_thread_pools():
                assert [pool.get() for pool in pools] == [1] * len(pools)
                raise RuntimeError("inside")
        assert [pool.get() for pool in pools] == [2] * len(pools)

    @pytest.mark.parametrize("package", [np, scipy], ids=["numpy", "scipy"])
    def test_finds_the_copy_each_wheel_links(self, package, pools_at_two_threads):
        try:
            blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except TypeError:
            pytest.skip(f"{package.__name__} {package.__version__} reports no build info")
        if blas["name"] != "scipy-openblas":
            pytest.skip(f"{package.__name__} is built against {blas['name']}")
        pkg_dir = Path(package.__file__).parent
        owners = {
            pool.path.relative_to(pkg_dir.parent).parts[0]
            for pool in pools_at_two_threads
            if pool.path.is_relative_to(pkg_dir.parent)
        }
        assert owners & {pkg_dir.name, f"{pkg_dir.name}.libs"}

    def test_read_back_above_one_warns(self, monkeypatch, caplog):
        stuck = bench._OpenBlasPool(Path("stuck"), lambda: 2, lambda n: None)
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        monkeypatch.setattr(bench, "_bundled_openblas", lambda: [stuck])
        with bench._single_thread_pools():
            pass
        assert len(_not_pinned_warnings(caplog)) == 1

    def test_run_cells_without_pools_warns_once(self, monkeypatch, caplog):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        monkeypatch.setattr(bench, "_bundled_openblas", lambda: [])
        data = hawkes_like_data(p=1, t_end=5.0)
        rows = run_cells(data, [("direct", 500, 20, 5)], reps=2, min_loop_s=1e-4)
        assert len(rows) == 1 and rows[0].nll_ms > 0
        assert len(_not_pinned_warnings(caplog)) == 1


class TestBlasThreadsColumn:
    def _cells(self):
        return run_cells(hawkes_like_data(p=1, t_end=5.0), [("direct", 500, 20, 5)],
                         reps=2, min_loop_s=1e-4)

    def test_pinned_rows_record_one_thread(self, pools_at_two_threads):
        rows = self._cells()
        assert rows[0].blas_threads == 1
        header, line = bench.rows_to_csv(rows).splitlines()
        assert header.split(",")[-1] == "blas_threads"
        assert line.split(",")[-1] == "1"

    def test_unpinned_rows_record_the_count_read_back(self, monkeypatch):
        stuck = bench._OpenBlasPool(Path("stuck"), lambda: 2, lambda n: None)
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        monkeypatch.setattr(bench, "_bundled_openblas", lambda: [stuck])
        rows = self._cells()
        assert rows[0].blas_threads == 2
        assert bench.rows_to_csv(rows).splitlines()[1].split(",")[-1] == "2"

    def test_no_pool_found_records_zero(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        monkeypatch.setattr(bench, "_bundled_openblas", lambda: [])
        assert self._cells()[0].blas_threads == 0
