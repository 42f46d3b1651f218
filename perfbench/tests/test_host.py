"""Host probes: the share of a run they take and how they scale timings."""

import time

import pytest

import run as bench


def _run(tmp_path):
    return bench.Run("hosp_batch", 1, 1.0, False, 1.0, str(tmp_path))


def test_probes_take_their_share_of_the_run(tmp_path):
    run = _run(tmp_path)
    run.probe()
    assert len(run.probes) == 1
    end = time.perf_counter() + 0.5
    while time.perf_counter() < end:
        time.sleep(0.01)  # an operation between two probe points
        run.probe()
    share = sum(run.probes) / (time.perf_counter() - run.first_probe)
    assert 0.5 * bench.PROBE_SHARE <= share <= 2.5 * bench.PROBE_SHARE


def test_host_scale_is_the_reference_over_the_mean_probe(tmp_path):
    run = _run(tmp_path)
    run.probes = [0.004, 0.006, 0.010, 0.010]
    assert run.host_scale() == pytest.approx(bench.PROBE_REFERENCE_S / 0.0075)
    assert run.host_scale(2) == pytest.approx(bench.PROBE_REFERENCE_S / 0.010)
