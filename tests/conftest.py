"""Shared pytest fixtures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.designs import PlutoDesign
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.core.lut import lut_from_function
from repro.dram.energy import DDR4_ENERGY
from repro.dram.geometry import DRAMGeometry
from repro.dram.timing import DDR4_2400


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_geometry() -> DRAMGeometry:
    """A small DRAM geometry that keeps functional tests fast."""
    return DRAMGeometry(
        channels=1,
        ranks=1,
        bank_groups=1,
        banks_per_group=2,
        subarrays_per_bank=4,
        rows_per_subarray=64,
        row_size_bytes=64,
    )


@pytest.fixture
def ddr4_timing():
    """DDR4-2400 timing preset."""
    return DDR4_2400


@pytest.fixture
def ddr4_energy():
    """DDR4 energy preset."""
    return DDR4_ENERGY


@pytest.fixture
def square_lut():
    """An 8-bit squaring LUT (truncated to 8 bits)."""
    return lut_from_function(lambda x: (x * x) & 0xFF, 8, 8, name="square8")


@pytest.fixture(params=[PlutoDesign.BSA, PlutoDesign.GSA, PlutoDesign.GMC])
def any_design(request) -> PlutoDesign:
    """Parametrised fixture over the three pLUTo designs."""
    return request.param


@pytest.fixture
def bsa_engine() -> PlutoEngine:
    """A default pLUTo-BSA engine on DDR4."""
    return PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))


# A deeper run of the compiled-closure differential fuzzer
# (``test_optimizer_differential.py::test_differential_compiled_fuzz``):
# ``pytest --hypothesis-profile=compiled-deep``.  Every other Hypothesis
# test pins its own ``max_examples`` and is unaffected by the profile.
settings.register_profile("compiled-deep", max_examples=100, deadline=None)
