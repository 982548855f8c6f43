import concurrent.futures
import io

import numpy as np
import pytest

import opendicke.cli as cli
from opendicke.fanout import fan_out
from opendicke.scattering import FORMAT_ROWS, spectrum_text, sweep_spectrum

from conftest import make


def square(x):
    return x * x


@pytest.fixture
def opened(monkeypatch):
    """Replace the process pool by an in-process stand-in that records the
    max_workers of every pool the code under test opens."""
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    return sizes


class TestPoolSize:
    def test_capped_at_task_count(self, opened):
        assert list(fan_out(square, range(3), 500)) == [0, 1, 4]
        assert opened == [3]

    def test_capped_at_the_fewer_of_tasks_and_workers(self, opened):
        assert list(fan_out(square, range(17), 500)) == [x * x for x in range(17)]
        assert list(fan_out(square, range(17), 4)) == [x * x for x in range(17)]
        assert opened == [17, 4]

    def test_no_pool_for_a_single_worker_or_chunk(self, opened):
        assert list(fan_out(square, range(5), 1)) == [0, 1, 4, 9, 16]
        assert list(fan_out(square, [7], 500)) == [49]
        assert opened == []

    def test_spectrum_on_a_tiny_grid_opens_no_pool(self, opened, tmp_path):
        argv = ["spectrum", "--sweep", "g:0.1:0.3:3", "--probe", "0.2:1.0:4", "--parallel", "500"]
        assert cli.main(argv + ["-o", str(tmp_path / "s.csv")]) == 0
        assert cli.main(argv + ["--format", "json", "-o", str(tmp_path / "s.json")]) == 0
        assert opened == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_spectrum_opens_one_pool(self, fmt, opened, tmp_path):
        # Each pool task computes and formats its own rows; no second pool
        # formats a gathered grid.
        argv = ["spectrum", "--sweep", "g:0.1:0.5:40", "--probe", "0.2:1.0:4", "--parallel", "2"]
        assert cli.main(argv + ["--format", fmt, "-o", str(tmp_path / f"s.{fmt}")]) == 0
        assert opened == [2]

    def test_eigen_pool_is_capped(self, opened, tmp_path):
        argv = ["eigen", "--sweep", "g:0:0.3:40", "--parallel", "500"]
        assert cli.main(argv + ["-o", str(tmp_path / "e.csv")]) == 0
        assert opened == [3]


class TestRealPool:
    def test_order_preserved(self):
        assert list(fan_out(square, range(10), 2)) == [x * x for x in range(10)]

    def test_sweep_spectrum_rows_match_in_process(self):
        sweep = np.linspace(0.1, 0.9, 19)
        probe = np.linspace(0.1, 1.5, 16)
        a = sweep_spectrum(make(ga=0.1, gb=0.1), "g", sweep, probe)
        b = sweep_spectrum(make(ga=0.1, gb=0.1), "g", sweep, probe, workers=2)
        assert np.array_equal(a.values, b.values)
        assert a.phase_labels == b.phase_labels

    def test_streamed_writer_matches_the_gathered_grid(self):
        # 19 rows are three pool tasks, and the rows span both phases and g_c.
        params = make(ga=0.1, gb=0.2)
        sweep, probe = np.linspace(0.1, 0.9, 19), np.linspace(0.1, 1.5, 16)
        assert -(-sweep.size // FORMAT_ROWS) == 3
        grid = sweep_spectrum(params, "g", sweep, probe)
        assert {"normal", "critical", "superradiant"} == set(grid.phase_labels)
        for include_phase in (False, True):
            expected = io.StringIO()
            grid.to_csv(expected, include_phase=include_phase)
            for workers in (1, 2):
                text = spectrum_text("csv", params, "g", sweep, probe,
                                     include_phase=include_phase, workers=workers)
                assert "".join(text) == expected.getvalue()
        for workers in (1, 2):
            text = spectrum_text("json", params, "g", sweep, probe, workers=workers)
            assert "".join(text) == grid.to_json() + "\n"

    def test_streamed_writer_rejects_an_unknown_format(self):
        with pytest.raises(ValueError, match="'csv' or 'json'"):
            spectrum_text("xml", make(), "g", [0.1, 0.2], [0.5, 1.0])
