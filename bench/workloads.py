"""Benchmark workloads: seeded inputs, command sequences and population truth.

Every input the CLI sees is generated here from the run's seed. Populations
are principal-strata mixtures in the spec format ``lafte simulate`` and
``lafte verify`` read; the clustered household tables are drawn from the same
kind of population by this module, so the exact instrument contrast of every
derived column is known to the correctness gate.

Only response groups that satisfy the double exclusion restriction are used
(the second part responds to the first part, never to the instrument), so
``verify`` is clean and exits 0 on every generated spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# (d1 at z=0, d1 at z=1), and d2 as a function of d1 (the same at both z).
_GROUPS = {
    "C1C2": ((0, 1), (0, 1)),
    "C1N2": ((0, 1), (0, 0)),
    "C1A2": ((0, 1), (1, 1)),
    "N1N2": ((0, 0), (0, 0)),
    "A1A2": ((1, 1), (1, 1)),
    "A1N2": ((1, 1), (0, 0)),
    "N1A2": ((0, 0), (1, 1)),
}
_ALWAYS = ("C1C2", "C1N2", "N1N2", "A1A2")
_OPTIONAL = ("C1A2", "A1N2", "N1A2")

# Regressands whose instrument contrast the gate needs.
COLUMNS = ("d1", "d2", "d_and", "d_or", "d_sum", "g_or", "g_and", "y",
           "gy_or", "gy_and", "dand_y", "untreated_y", "kernel_y")


def random_spec(rng: np.random.Generator) -> dict:
    """A population spec with a strong first stage and monotone responses."""
    groups = list(_ALWAYS) + [g for g in _OPTIONAL if rng.random() < 0.5]
    mix = rng.dirichlet(np.full(len(groups), 2.0))
    probs = 0.7 * mix
    probs[0] += 0.3  # C1C2 keeps every binary first stage well away from 0
    probs = [float(p) for p in probs]
    probs[-1] = 1.0 - sum(probs[:-1])
    strata = []
    for group, prob in zip(groups, probs):
        d1_at, d2_of_d1 = _GROUPS[group]
        base, a, b, c = rng.uniform(0.0, 2.0), *rng.uniform(0.0, 1.0, size=3)
        mean_y = [[float(base + a * d1 + b * d2 + c * d1 * d2) for d2 in (0, 1)]
                  for d1 in (0, 1)]
        strata.append({"prob": prob, "d1": list(d1_at),
                       "d2": [list(d2_of_d1), list(d2_of_d1)],
                       "mean_y": mean_y, "y_sd": 1.0})
    return {"p_z": float(rng.uniform(0.35, 0.65)), "double_exclusion": True,
            "strata": strata}


def _realized(stratum: dict, z: int) -> tuple[int, int, float]:
    d1 = stratum["d1"][z]
    d2 = stratum["d2"][z][d1]
    return d1, d2, stratum["mean_y"][d1][d2]


def _row_columns(d1, d2, y) -> dict:
    d_and = d1 * d2
    d_or = d1 + d2 - d_and
    g_or, g_and = d_or - d2, d_and - d2
    return {"d1": d1, "d2": d2, "d_and": d_and, "d_or": d_or, "d_sum": d1 + d2,
            "g_or": g_or, "g_and": g_and, "y": y, "gy_or": g_or * y,
            "gy_and": g_and * y, "dand_y": d_and * y,
            "untreated_y": (1 - d1) * (1 - d2) * y,
            "kernel_y": (1 - d1 - d2 + 2 * d_and) * y}


def contrasts(spec: dict) -> dict[str, float]:
    """Exact ``E[h | z=1] - E[h | z=0]`` of every column in :data:`COLUMNS`.

    Outcome noise, controls and household shocks have mean zero and are
    independent of the stratum and the instrument, so only the strata's cell
    means enter.
    """
    out = dict.fromkeys(COLUMNS, 0.0)
    for s in spec["strata"]:
        for z, sign in ((1, 1.0), (0, -1.0)):
            for name, value in _row_columns(*_realized(s, z)).items():
                out[name] += sign * s["prob"] * value
    return out


def write_spec(spec: dict, path: Path) -> None:
    # JSON is a subset of YAML, so the CLI's YAML loader reads this as is.
    path.write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")


def write_households(spec: dict, n: int, rng: np.random.Generator, path: Path) -> None:
    """Draw ``n`` rows in households of 2-6 people with a shared outcome shock.

    The instrument is assigned per household; strata, the spec's unit-variance
    noise and the first control are per person; the second control is a
    household-level value.
    """
    sizes = rng.integers(2, 7, size=n // 2 + 1)
    household = np.repeat(np.arange(sizes.size), sizes)[:n]
    n_households = int(household[-1]) + 1
    z = rng.binomial(1, spec["p_z"], size=n_households)[household]
    probs = np.array([s["prob"] for s in spec["strata"]])
    idx = rng.choice(len(probs), size=n, p=probs / probs.sum())
    table = np.array([[_realized(s, zz) for zz in (0, 1)] for s in spec["strata"]])
    d1 = table[idx, z, 0].astype(np.int64)
    d2 = table[idx, z, 1].astype(np.int64)
    x1 = rng.standard_normal(n)
    x2 = rng.integers(-1, 2, size=n_households)[household]
    shock = 0.5 * rng.standard_normal(n_households)[household]
    y = table[idx, z, 2] + 0.5 * x1 + 0.3 * x2 + shock + rng.standard_normal(n)
    lines = ["z,d1,d2,y,x1,x2,hh"]
    lines += [f"{a},{b},{c},{v:.6f},{w:.4f},{h},hh{g:06d}"
              for a, b, c, v, w, h, g in zip(z.tolist(), d1.tolist(), d2.tolist(),
                                             y.tolist(), x1.tolist(), x2.tolist(),
                                             household.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Command:
    """One CLI call. ``truth`` names the population its estimates target."""

    argv: tuple[str, ...]
    truth: str
    writes: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Inputs:
    """Generated files and the command sequence of one pass."""

    commands: list[Command]
    populations: dict[str, dict] = field(default_factory=dict)
    rows: dict[str, int] = field(default_factory=dict)


_HOUSEHOLD_FLAGS = ("--controls", "x1,x2", "--cluster", "hh")


def _analysis(command: str, data: str, truth: str) -> Command:
    return Command((command, "--data", data, *_HOUSEHOLD_FLAGS), truth)


def pipeline(work: Path, seed: int, smoke: bool) -> Inputs:
    """Check a population spec, draw a large table from it, estimate on it."""
    rng = np.random.default_rng([seed, 2])
    n = 5000 if smoke else 1_000_000
    spec = random_spec(rng)
    write_spec(spec, work / "pop.yaml")
    commands = [
        Command(("verify", "--data", "pop.yaml"), "pop"),
        Command(("simulate", "--data", "pop.yaml", "--n", str(n), "--seed", str(seed),
                 "--out", "draw.csv"), "pop", writes=("draw.csv", "draw.csv.truth.json")),
        Command(("estimate", "--data", "draw.csv"), "pop"),
    ]
    return Inputs(commands, {"pop": spec}, {"draw.csv": n})


def bounds_clustered(work: Path, seed: int, smoke: bool) -> Inputs:
    """Estimates and all three bound pairs on a clustered table with controls."""
    rng = np.random.default_rng([seed, 3])
    n = 3000 if smoke else 200_000
    spec = random_spec(rng)
    write_households(spec, n, rng, work / "hh.csv")
    commands = [_analysis("estimate", "hh.csv", "households"),
                _analysis("bounds", "hh.csv", "households")]
    return Inputs(commands, {"households": spec}, {"hh.csv": n})


# BENCHMARK.json records why each workload exists.
WORKLOADS = {
    "pipeline-1e6": pipeline,
    "bounds-clustered": bounds_clustered,
}
