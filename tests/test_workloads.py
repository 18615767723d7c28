"""Tests for the application workloads (3D FFT)."""

import numpy as np
import pytest

from repro.paths import sssp_schedule
from repro.schedule import chunk_path_schedule
from repro.simulator import cerio_hpc_fabric
from repro.topology import torus_2d
from repro.workloads import DistributedFFT3D


class TestFFT3D:
    @pytest.fixture(scope="class")
    def torus9(self):
        return torus_2d(3)

    @pytest.fixture(scope="class")
    def mcf_schedule(self, torus9):
        from repro.core import solve_mcf_extract_paths

        return solve_mcf_extract_paths(torus9)

    def test_numerical_correctness(self, torus9, mcf_schedule):
        fft = DistributedFFT3D(torus9, grid_width=18, fabric=cerio_hpc_fabric())
        result = fft.run(mcf_schedule, seed=1)
        assert result.max_abs_error < 1e-8
        assert result.total_seconds > 0

    def test_grid_must_divide_by_ranks(self, torus9):
        with pytest.raises(ValueError, match="divisible"):
            DistributedFFT3D(torus9, grid_width=16)

    def test_buffer_size_accounting(self, torus9):
        fft = DistributedFFT3D(torus9, grid_width=9)
        # slab=1 plane of 9x9 complex128 = 1296 bytes per rank.
        assert fft.alltoall_buffer_bytes() == pytest.approx(9 * 9 * 16)

    def test_bands_sum_to_total(self, torus9, mcf_schedule):
        fft = DistributedFFT3D(torus9, grid_width=9)
        result = fft.run(mcf_schedule)
        assert sum(result.bands().values()) == pytest.approx(result.total_seconds)

    def test_faster_alltoall_gives_faster_fft(self, torus9, mcf_schedule):
        """Fig. 6 behaviour: the FFT speedup follows the all-to-all speedup."""
        fabric = cerio_hpc_fabric()
        fft = DistributedFFT3D(torus9, grid_width=18, fabric=fabric)
        mcf_result = fft.run(mcf_schedule, seed=0, verify=False)
        sssp_result = fft.run(sssp_schedule(torus9), seed=0, verify=False)
        assert mcf_result.alltoall_seconds <= sssp_result.alltoall_seconds + 1e-12

    def test_accepts_prechunked_routed_schedule(self, torus9, mcf_schedule):
        routed = chunk_path_schedule(mcf_schedule)
        fft = DistributedFFT3D(torus9, grid_width=9)
        result = fft.run(routed)
        assert result.max_abs_error < 1e-8

    def test_explicit_data_shape_checked(self, torus9, mcf_schedule):
        fft = DistributedFFT3D(torus9, grid_width=9)
        with pytest.raises(ValueError):
            fft.run(mcf_schedule, data=np.zeros((3, 3, 3), dtype=complex))
