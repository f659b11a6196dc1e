import os

import numpy as np
import pytest

from lafte import PopulationSpec, from_arrays, stratum

# Canonical 8-row fixture: (z, d1, d2, y).
FIX8_ROWS = (
    (1, 1, 1, 3),
    (1, 1, 0, 1),
    (1, 1, 1, 3),
    (1, 0, 0, 0),
    (0, 0, 0, 0),
    (0, 0, 0, 1),
    (0, 0, 1, 2),
    (0, 0, 0, 0),
)

@pytest.fixture(autouse=True)
def _no_cache(monkeypatch):
    """Every test parses what it loads: the cache directory cannot be made
    under a file that is not a directory. A cache test sets its own."""
    monkeypatch.setenv("XDG_CACHE_HOME", os.path.join(os.devnull, "cache"))


FIX8_CSV = "z,d1,d2,y\n" + "\n".join(",".join(str(v) for v in row) for row in FIX8_ROWS) + "\n"


def fix8_table():
    a = np.array(FIX8_ROWS)
    return from_arrays(a[:, 0], a[:, 1], a[:, 2], a[:, 3].astype(float))


@pytest.fixture
def fix8():
    return fix8_table()


@pytest.fixture
def fix8_path(tmp_path):
    path = tmp_path / "fix8.csv"
    path.write_text(FIX8_CSV, encoding="utf-8")
    return path


def s2_spec(y_sd=0.0):
    """Two-stratum population: half full compliers, half dropouts.

    Exact values: every first stage of d1 is 1, of d2 is 0.5; reduced form
    1.5; LAFTE over C is 1.75; sharp bound endpoints 1.5 and 2.0.
    """
    return PopulationSpec(strata=(
        stratum("C1C2", 0.5, {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 2.0}, y_sd=y_sd),
        stratum("C1N2", 0.5, {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.5}, y_sd=y_sd),
    ), p_z=0.5, double_exclusion=True)


def single_full_complier_spec(effect=2.0, y_sd=0.0):
    return PopulationSpec(strata=(
        stratum("C1C2", 1.0, {(0, 0): 0.0, (1, 1): effect}, y_sd=y_sd),
    ), p_z=0.5, double_exclusion=True)


@pytest.fixture
def s2():
    return s2_spec()


def random_table(rng, n=200, effect=1.0, cluster_size=0):
    """A dataset with a real first stage for every treatment definition."""
    z = rng.integers(0, 2, size=n)
    u1 = rng.random(n)
    u2 = rng.random(n)
    d1 = ((u1 < 0.3 + 0.4 * z)).astype(int)
    d2 = ((u2 < 0.2 + 0.3 * z + 0.2 * d1)).astype(int)
    y = effect * (d1 & d2) + 0.5 * d1 + rng.standard_normal(n)
    cluster = None
    if cluster_size:
        cluster = np.array([f"g{i // cluster_size}" for i in range(n)], dtype=object)
    return from_arrays(z, d1, d2, y, cluster=cluster)
