import time

import pytest

from zetaphase import ScanConfig, scan_zeros, unit_interval_counts
from zetaphase.verify import CENSUS_N_MAX, CENSUS_T_HI


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import ACCEPTANCE_LINES
    except ImportError:
        return
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def census():
    """Full zero scan over [0, 6501] with its wall-clock duration."""
    t0 = time.perf_counter()
    zero_list = scan_zeros(ScanConfig(t_lo=0.0, t_hi=CENSUS_T_HI))
    elapsed = time.perf_counter() - t0
    return zero_list, elapsed


@pytest.fixture(scope="session")
def ten_thousand_zeros():
    """Full zero scan over [0, 1e4], the whole scan domain."""
    return scan_zeros(ScanConfig(t_lo=0.0, t_hi=1e4))


@pytest.fixture(scope="session")
def census_zeros(census):
    return census[0]


@pytest.fixture(scope="session")
def census_counts(census_zeros):
    return unit_interval_counts(census_zeros, CENSUS_N_MAX)


@pytest.fixture(scope="session")
def partitioned_census():
    """The same census assembled from eight disjoint integer-aligned scans."""
    bounds = [0.0, 812.0, 1625.0, 2437.0, 3250.0, 4063.0, 4875.0, 5688.0, CENSUS_T_HI]
    merged = None
    for lo, hi in zip(bounds, bounds[1:]):
        part = scan_zeros(ScanConfig(t_lo=lo, t_hi=hi))
        merged = part if merged is None else merged.merge(part)
    return merged


@pytest.fixture(scope="session")
def census_cache(census_zeros, tmp_path_factory):
    """The census persisted through the cache format."""
    from zetaphase import write_zero_cache

    path = tmp_path_factory.mktemp("cache") / "census.txt"
    write_zero_cache(census_zeros, path)
    return path
