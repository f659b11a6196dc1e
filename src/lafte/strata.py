"""Principal-strata populations: exact moments, true parameters, sampling.

A population is a finite mixture of strata. Each stratum is a response type:
a pair of potential first-part enrollments ``(D1(0), D1(1))``, a second-part
response map ``D2(z, d1)``, and a mean potential outcome ``E[Y(d1, d2)]``
for each of the four treatment cells (plus an additive noise scale used
only when sampling). The instrument assignment probability ``p_z`` and a
``double_exclusion`` flag complete the spec.

Classifying a stratum by its realized-path responses yields the nine
response groups: compliers/never-takers/always-takers in the first part
crossed with the same in the second. The five complier groups are

* ``C1C2`` full compliers (induced into both parts),
* ``C1N2`` and ``A1C2`` dropouts (miss the second part),
* ``C1A2`` and ``N1C2`` late-adopters (miss the first part),

and everything a finite-sample estimator targets — first stages, reduced
form, complier shares, bound endpoints — has an exact closed form as a
probability-weighted sum over strata, computed here without simulation.
:func:`analytic_moments` evaluates the estimators' own column catalogue,
``data.COLUMNS``, on the ``(stratum, z)`` cells and keys each contrast by
its column's name, so the oracle and the estimators share one definition,
and one name, of every column.

Spec objects are immutable; sampling is a pure function of (spec, n, seed).
Monte Carlo batches may therefore run concurrently as long as each batch
owns its own seeded generator and results are combined in a fixed order.
"""

from __future__ import annotations

import numbers
import re
from functools import cache
from typing import Mapping, NamedTuple

import numpy as np

from .data import _CHUNK_ROWS, RESPONSES, DerivedColumns, ObservationTable, _build_table
from .estimands import BINARY_DEFS, TreatmentDef
from .exceptions import SpecError

# Relative tolerance for "exact" closed-form comparisons; absorbs float
# summation order.
EXACT_TOLERANCE = 1e-10

COMPLIER_GROUPS = ("C1C2", "C1N2", "C1A2", "N1C2", "A1C2")
ALL_GROUPS = COMPLIER_GROUPS + ("N1N2", "N1A2", "A1N2", "A1A2")

FULL_EFFECT = ((1, 1), (0, 0))

# Group-specific effect identified by the reduced form: treated cell vs
# untreated cell along each group's instrument-induced path.
GROUP_EFFECT_CELLS = {
    "C1C2": ((1, 1), (0, 0)),
    "C1N2": ((1, 0), (0, 0)),
    "C1A2": ((1, 1), (0, 1)),
    "N1C2": ((0, 1), (0, 0)),
    "A1C2": ((1, 1), (1, 0)),
}

# Groups whose share enters each definition's first stage.
FIRST_STAGE_GROUPS = {
    TreatmentDef.FIRST: ("C1C2", "C1N2", "C1A2"),
    TreatmentDef.SECOND: ("C1C2", "N1C2", "A1C2"),
    TreatmentDef.BOTH: ("C1C2", "C1A2", "A1C2"),
    TreatmentDef.EITHER: ("C1C2", "C1N2", "N1C2"),
}

# The two mover types, each a pair of complier groups: dropouts, then late-adopters.
MOVER_TYPES = (("C1N2", "A1C2"), ("C1A2", "N1C2"))

# Per-definition homogeneity conditions under which the IV estimand equals
# the full-treatment effect for the definition's complier groups: for each
# group of a mover type, the full effect must equal that type's listed
# effect, in the order of ``MOVER_TYPES``.
HOMOGENEITY_CONDITIONS = {
    TreatmentDef.FIRST: (((1, 0), (0, 0)), ((1, 1), (0, 1))),
    TreatmentDef.SECOND: (((1, 1), (1, 0)), ((0, 1), (0, 0))),
    TreatmentDef.BOTH: (((1, 1), (1, 0)), ((1, 1), (0, 1))),
    TreatmentDef.EITHER: (((1, 0), (0, 0)), ((0, 1), (0, 0))),
}

# Templates for the named response groups: (d1_at, d2_at) with
# d2_at[z][d1]. The complier-in-part-2 groups respond to the first part
# (C1C2) or to the instrument itself (N1C2, A1C2).
_GROUP_TEMPLATES = {
    "C1C2": ((0, 1), ((0, 1), (0, 1))),
    "C1N2": ((0, 1), ((0, 0), (0, 0))),
    "C1A2": ((0, 1), ((1, 1), (1, 1))),
    "N1C2": ((0, 0), ((0, 0), (1, 1))),
    "A1C2": ((1, 1), ((0, 0), (1, 1))),
    "N1N2": ((0, 0), ((0, 0), (0, 0))),
    "N1A2": ((0, 0), ((1, 1), (1, 1))),
    "A1N2": ((1, 1), ((0, 0), (0, 0))),
    "A1A2": ((1, 1), ((1, 1), (1, 1))),
}

# The full compliers' effect on d1 + d2 in two unit steps: d2 given d1 = 1, then d1.
_SUM_STEPS = (((1, 1), (1, 0)), ((1, 0), (0, 0)))

_CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


def close(a: float, b: float, tol: float = EXACT_TOLERANCE) -> bool:
    """Whether ``|a - b| <= tol * max(1, |a|, |b|)``: an absolute test for
    magnitudes up to 1, a relative one above."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _ge(a: float, b: float) -> bool:
    """Whether ``a >= b`` up to ``EXACT_TOLERANCE * max(1, |a|, |b|)``."""
    return a >= b - EXACT_TOLERANCE * max(1.0, abs(a), abs(b))


def _kind(lo: int, hi: int) -> str:
    """Complier, always- or never-taker, from one part's realized values at z=0, 1."""
    return "C" if hi > lo else "A" if lo == 1 else "N"


class Stratum(NamedTuple):
    """One response type with its population share and mean potential outcomes."""

    prob: float
    d1_at: tuple[int, int]
    d2_at: tuple[tuple[int, int], tuple[int, int]]
    mean_y: tuple[tuple[float, float], tuple[float, float]]
    y_sd: float = 0.0

    def d1(self, z: int) -> int:
        return self.d1_at[z]

    def d2(self, z: int) -> int:
        return self.d2_at[z][self.d1_at[z]]

    def outcome_mean(self, z: int) -> float:
        return self.mean_y[self.d1(z)][self.d2(z)]

    def cell_mean(self, cell: tuple[int, int]) -> float:
        return self.mean_y[cell[0]][cell[1]]

    @property
    def monotone(self) -> bool:
        if self.d1_at[1] < self.d1_at[0]:
            return False
        return self.d2(1) >= self.d2(0)

    @property
    def z_dependent(self) -> bool:
        """True when the second-part response map depends on z directly."""
        return self.d2_at[0] != self.d2_at[1]

    def group(self) -> str:
        return f"{_kind(*self.d1_at)}1{_kind(self.d2(0), self.d2(1))}2"


def stratum(group: str, prob: float, mean_y: Mapping[tuple[int, int], float],
            y_sd: float = 0.0) -> Stratum:
    """Build a stratum of a named response group.

    ``mean_y`` maps treatment cells ``(d1, d2)`` to mean potential outcomes;
    unspecified cells default to 0.
    """
    if group not in _GROUP_TEMPLATES:
        raise SpecError(f"unknown response group {group!r}; expected one of {ALL_GROUPS}")
    cells = {cell: float(mean_y.get(cell, 0.0)) for cell in _CELLS}
    d1_at, d2_at = _GROUP_TEMPLATES[group]
    return Stratum(
        prob=float(prob), d1_at=d1_at, d2_at=d2_at,
        mean_y=((cells[(0, 0)], cells[(0, 1)]), (cells[(1, 0)], cells[(1, 1)])),
        y_sd=float(y_sd),
    )


class PopulationSpec(NamedTuple):
    """A finite-strata population with an instrument assignment probability."""

    strata: tuple[Stratum, ...]
    p_z: float = 0.5
    double_exclusion: bool = False


class AssumptionAudit(NamedTuple):
    """Exactly decided flags for every maintained assumption, each
    definition's ``homogeneity`` keyed by its column name."""

    no_movers: bool
    double_exclusion: bool
    mtr: bool
    mts: bool
    positive_response: bool
    relevance: bool
    homogeneity: dict


class DecompositionTerm(NamedTuple):
    """One weighted group effect inside an IV-estimand decomposition."""

    group: str
    cells: tuple[tuple[int, int], tuple[int, int]]
    effect: float | None
    weight: float
    bias: bool

    @property
    def contribution(self) -> float:
        # Convention: a zero-probability group contributes 0 even though its
        # conditional effect is undefined.
        if self.weight == 0.0 or self.effect is None:
            return 0.0
        return self.weight * self.effect


class TrueParams(NamedTuple):
    """Exact causal parameters of a population spec.

    ``beta_decomposition[d]`` holds the :class:`DecompositionTerm` of each
    group in the IV estimand of definition ``d``: where ``d``'s first stage
    ``analytic_moments(spec)[d.value]`` is positive, their contributions sum
    to the estimand ``analytic_moments(spec)["y"]`` over that first stage.
    """

    group_probs: dict
    group_effects: dict
    lafte_over_c: float
    tau: float
    beta_decomposition: dict


def validate_spec(spec: PopulationSpec) -> AssumptionAudit:
    """Check structural invariants and decide every assumption flag exactly.

    Structural violations (probabilities, monotonicity, a double-exclusion
    flag contradicted by a z-dependent response map) raise
    :class:`SpecError`; substantive assumptions (no movers, MTR, MTS,
    positive response, per-definition homogeneity) are reported as flags.
    """
    if not spec.strata:
        raise SpecError("spec has no strata")
    for i, s in enumerate(spec.strata):
        # A NaN would slip through every comparison below.
        if not np.isfinite([s.prob, s.y_sd, *s.mean_y[0], *s.mean_y[1]]).all():
            raise SpecError(f"stratum {i} has a non-finite prob, y_sd or mean_y")
    probs = np.array([s.prob for s in spec.strata], dtype=float)
    if (probs < 0).any():
        raise SpecError("stratum probabilities must be nonnegative")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise SpecError(f"stratum probabilities sum to {probs.sum()!r}, not 1")
    if not 0.0 < spec.p_z < 1.0:
        raise SpecError(f"p_z must be inside (0,1), got {spec.p_z!r}")
    for i, s in enumerate(spec.strata):
        flat = (s.d1_at[0], s.d1_at[1], s.d2_at[0][0], s.d2_at[0][1],
                s.d2_at[1][0], s.d2_at[1][1])
        if any(v not in (0, 1) for v in flat):
            raise SpecError(f"stratum {i} has non-binary treatment responses")
        if s.y_sd < 0:
            raise SpecError(f"stratum {i} has negative outcome noise scale")
        if not s.monotone:
            raise SpecError(
                f"monotonicity violated in stratum {i}: "
                f"d1_at={s.d1_at}, realized d2 {s.d2(0)}->{s.d2(1)}")
        if spec.double_exclusion and s.z_dependent:
            raise SpecError(
                f"double_exclusion flag set but stratum {i}'s second-part "
                "response depends on z")

    probs_by_group = group_probs(spec)
    movers = sum(probs_by_group[g] for groups in MOVER_TYPES for g in groups)
    structural_de = all(not s.z_dependent for s in spec.strata)

    def mean(group, cell):
        return group_cell_mean(spec, group, cell)

    def effect_nonneg(group, hi, lo):
        m_hi, m_lo = mean(group, hi), mean(group, lo)
        return m_hi is None or _ge(m_hi - m_lo, 0.0)

    mtr = (effect_nonneg("C1N2", (1, 1), (1, 0))
           and effect_nonneg("C1A2", (0, 1), (0, 0)))

    m_ca, m_cn, m_cc = mean("C1A2", (1, 1)), mean("C1N2", (1, 1)), mean("C1C2", (1, 1))
    mts = m_cn is None or all(m is None or _ge(m, m_cn) for m in (m_ca, m_cc))

    m_pos = mean("C1A2", (0, 0))
    positive_response = m_pos is None or _ge(m_pos, 0.0)

    def homogeneous(group, cells):
        full = group_effect(spec, group, FULL_EFFECT)
        return full is None or close(full, group_effect(spec, group, cells))

    homogeneity = {definition.value: all(homogeneous(group, cells)
                                         for groups, cells in zip(MOVER_TYPES, conditions)
                                         for group in groups)
                   for definition, conditions in HOMOGENEITY_CONDITIONS.items()}

    moments = analytic_moments(spec)
    relevance = all(moments[d.value] > 0 for d in BINARY_DEFS)

    return AssumptionAudit(
        no_movers=movers == 0.0,
        double_exclusion=structural_de,
        mtr=mtr,
        mts=mts,
        positive_response=positive_response,
        relevance=relevance,
        homogeneity=homogeneity,
    )


def group_probs(spec: PopulationSpec) -> dict:
    """Probability of every response group, including the non-complier ones."""
    probs = {g: 0.0 for g in ALL_GROUPS}
    for s in spec.strata:
        probs[s.group()] += s.prob
    return probs


def group_cell_mean(spec: PopulationSpec, group: str, cell) -> float | None:
    """Mean potential outcome of ``group`` in treatment ``cell = (d1, d2)``;
    None when the group has no probability."""
    num = 0.0
    den = 0.0
    for s in spec.strata:
        if s.group() == group:
            num += s.prob * s.cell_mean(cell)
            den += s.prob
    if den == 0.0:
        return None
    return num / den


def group_effect(spec: PopulationSpec, group: str, cells) -> float | None:
    """Difference of the group's mean potential outcomes in ``cells = (treated,
    untreated)``; None when the group has no probability."""
    hi = group_cell_mean(spec, group, cells[0])
    if hi is None:
        return None
    lo = group_cell_mean(spec, group, cells[1])
    return hi - lo


def analytic_moments(spec: PopulationSpec) -> dict[str, float]:
    """Exact z-arm contrasts of the catalogue's columns, keyed as ``data.RESPONSES``.

    ``analytic_moments(spec)[c]`` is ``E[W | Z=1] - E[W | Z=0]`` for the
    column ``W`` named ``c``, the population value of ``contrast(table, c)``:
    the columns are evaluated on the 2·S cells ``(stratum, z)`` of
    ``(d1(z), d2(z), outcome_mean(z))``, weighted by the stratum's
    probability and summed within each arm in stratum order. The results do
    not depend on ``p_z``.
    """
    cells = np.array([(s.prob, s.d1(z), s.d2(z), s.outcome_mean(z))
                      for s in spec.strata for z in (0, 1)], dtype=float).reshape(-1, 4)
    columns = DerivedColumns.of(cells[:, 1], cells[:, 2], cells[:, 3])
    weighted = (cells[:, :1] * columns.values).reshape(-1, 2, len(RESPONSES))
    # One stratum at a time from zero, so each sum is fixed to the last bit.
    totals = sum(weighted, np.zeros((2, len(RESPONSES))))
    return dict(zip(RESPONSES, (totals[1] - totals[0]).tolist()))


def true_parameters(spec: PopulationSpec) -> TrueParams:
    """Exact group probabilities, group effects, LAFTE, tau, and decompositions.

    Raises
    ------
    SpecError
        "relevance violated in population" when the complier set is empty.
    """
    probs = group_probs(spec)
    complier_prob = sum(probs[g] for g in COMPLIER_GROUPS)
    if complier_prob == 0.0:
        raise SpecError("relevance violated in population: the complier set is empty")

    group_effects = {g: group_effect(spec, g, GROUP_EFFECT_CELLS[g])
                     for g in COMPLIER_GROUPS}

    lafte_num = 0.0
    tau_num = 0.0
    for g in COMPLIER_GROUPS:
        if probs[g] == 0.0:
            continue
        lafte_num += probs[g] * group_effect(spec, g, FULL_EFFECT)
        tau_num += probs[g] * group_effects[g]
    lafte = lafte_num / complier_prob
    tau = tau_num / complier_prob

    moments = analytic_moments(spec)
    decompositions = {}
    for definition in (*BINARY_DEFS, TreatmentDef.SUM):
        # Terms (group, cells, bias): the groups outside a first stage are biases.
        if definition is TreatmentDef.SUM:
            terms = [("C1C2", cells, False) for cells in _SUM_STEPS]
            terms += [(g, GROUP_EFFECT_CELLS[g], False) for g in COMPLIER_GROUPS[1:]]
        else:
            terms = [(g, GROUP_EFFECT_CELLS[g], g not in FIRST_STAGE_GROUPS[definition])
                     for g in COMPLIER_GROUPS]
        denominator = moments[definition.value]
        decompositions[definition] = tuple(DecompositionTerm(
            group=g, cells=cells, effect=group_effect(spec, g, cells),
            weight=probs[g] / denominator if denominator > 0 else 0.0, bias=bias)
            for g, cells, bias in terms)

    return TrueParams(
        group_probs={g: probs[g] for g in COMPLIER_GROUPS},
        group_effects=group_effects,
        lafte_over_c=lafte,
        tau=tau,
        beta_decomposition=decompositions,
    )


def sample(spec: PopulationSpec, n: int, seed: int) -> ObservationTable:
    """Draw n i.i.d. units from the population; deterministic given seed.

    Each unit draws a stratum by probability and an instrument arm by
    ``p_z``; treatments follow the stratum's response maps, and the outcome
    is the cell mean plus (when the stratum's ``y_sd`` is positive)
    independent normal noise.
    """
    if n < 2:  # a table's least size
        raise SpecError(f"sample size must be >= 2, got {n}")
    rng = np.random.default_rng(seed)
    strata = spec.strata
    probs = np.array([s.prob for s in strata], dtype=float)
    probs = probs / probs.sum()

    # Each stratum's two cells, (stratum, arm) at 2 * stratum + arm.
    d1_tab = np.array([[s.d1(0), s.d1(1)] for s in strata], dtype=np.uint8).ravel()
    d2_tab = np.array([[s.d2(0), s.d2(1)] for s in strata], dtype=np.uint8).ravel()
    mean_tab = np.array([[s.outcome_mean(0), s.outcome_mean(1)] for s in strata]).ravel()
    sd = np.array([s.y_sd for s in strata])

    # The draws of one kind are made a block of rows at a time, in the order
    # of one whole-array call of each kind (every stratum, then every arm,
    # then every noise term), which they equal. Only the table's narrow
    # columns and the strata indices are n long.
    blocks = [slice(start, start + _CHUNK_ROWS) for start in range(0, n, _CHUNK_ROWS)]
    idx = np.empty(n, np.min_scalar_type(len(strata) - 1))
    for rows in blocks:
        idx[rows] = rng.choice(len(strata), size=len(idx[rows]), p=probs)
    z = np.empty(n, np.uint8)
    for rows in blocks:
        z[rows] = rng.binomial(1, spec.p_z, size=len(z[rows]))
    d1, d2, y = np.empty(n, np.uint8), np.empty(n, np.uint8), np.empty(n)
    noisy = (sd > 0).any()
    for rows in blocks:
        # One flat index, intp: idx is uint8 up to 256 strata, where 2 * idx overflows.
        cell, y_rows = idx[rows].astype(np.intp), y[rows]
        cell <<= 1
        cell += z[rows]
        d1[rows] = d1_tab[cell]
        d2[rows] = d2_tab[cell]
        if noisy:
            # mean + sd * noise, built in place: IEEE products and sums commute.
            rng.standard_normal(out=y_rows)
            y_rows *= sd[idx[rows]]
            y_rows += mean_tab[cell]
        else:
            y_rows[:] = mean_tab[cell]
    del idx
    return _build_table(z, d1, d2, y, np.empty((n, 0)), (), None, None, None, (), False)


def random_spec(rng: np.random.Generator, *, n_strata: int | None = None,
                double_exclusion: bool = False, y_sd: float = 0.0,
                mean_range: tuple[float, float] = (0.0, 10.0)) -> PopulationSpec:
    """Draw a random valid population spec.

    Stratum probabilities come from a uniform simplex draw; response maps
    are uniform over binary maps, with draws violating monotonicity rejected
    and redrawn; cell means are uniform on ``mean_range``. With
    ``double_exclusion`` the second-part response is drawn as a function of
    the first part only and the flag is set. Redraws until at least one
    full-complier stratum is present, so that relevance holds.
    """
    lo, hi = mean_range
    d1_choices = ((0, 0), (0, 1), (1, 1))
    while True:
        k = int(n_strata) if n_strata else int(rng.integers(2, 6))
        probs = rng.dirichlet(np.ones(k))
        strata = []
        for p in probs:
            while True:
                d1_at = d1_choices[rng.integers(3)]
                if double_exclusion:
                    row = (int(rng.integers(2)), int(rng.integers(2)))
                    d2_at = (row, row)
                else:
                    d2_at = ((int(rng.integers(2)), int(rng.integers(2))),
                             (int(rng.integers(2)), int(rng.integers(2))))
                means = rng.uniform(lo, hi, size=4)
                candidate = Stratum(
                    prob=float(p), d1_at=d1_at, d2_at=d2_at,
                    mean_y=((float(means[0]), float(means[1])),
                            (float(means[2]), float(means[3]))),
                    y_sd=float(y_sd))
                if candidate.monotone:
                    strata.append(candidate)
                    break
        spec = PopulationSpec(
            strata=tuple(strata), p_z=float(rng.uniform(0.2, 0.8)),
            double_exclusion=double_exclusion)
        if any(s.group() == "C1C2" for s in strata):
            return spec


def spec_to_dict(spec: PopulationSpec) -> dict:
    return {
        "p_z": float(spec.p_z),
        "double_exclusion": bool(spec.double_exclusion),
        "strata": [
            {
                "prob": float(s.prob),
                "d1": [int(v) for v in s.d1_at],
                "d2": [[int(v) for v in row] for row in s.d2_at],
                "mean_y": [[float(v) for v in row] for row in s.mean_y],
                "y_sd": float(s.y_sd),
            }
            for s in spec.strata
        ],
    }


def _real(value, name: str) -> float:
    """A real field of a spec; TypeError for a bool, a string or any non-number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _response(value, name: str) -> int:
    """A treatment response of a spec; TypeError unless it is an integer 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value not in (0, 1):
        raise TypeError(f"{name} entries must be integers 0 or 1, got {value!r}")
    return int(value)


def spec_from_dict(payload: Mapping) -> PopulationSpec:
    if not isinstance(payload, Mapping):
        raise SpecError("population spec document must be a mapping")
    allowed = {"p_z", "double_exclusion", "strata"}
    unknown = set(payload) - allowed
    if unknown:
        raise SpecError(f"unknown spec keys: {sorted(unknown, key=str)}")
    if "strata" not in payload:
        raise SpecError("spec is missing 'strata'")
    if not isinstance(payload["strata"], (list, tuple)):
        raise SpecError(f"spec 'strata' must be a list, got {payload['strata']!r}")
    try:
        p_z = _real(payload.get("p_z", 0.5), "p_z")
    except TypeError as exc:
        raise SpecError(str(exc)) from None
    double_exclusion = payload.get("double_exclusion", False)
    if not isinstance(double_exclusion, bool):
        raise SpecError(f"double_exclusion must be true or false, got {double_exclusion!r}")
    strata = []
    for i, raw in enumerate(payload["strata"]):
        if not isinstance(raw, Mapping):
            raise SpecError(f"malformed stratum {i}: expected a mapping, got {raw!r}")
        extra = set(raw) - {"prob", "d1", "d2", "mean_y", "y_sd"}
        if extra:
            raise SpecError(f"stratum {i} has unknown keys: {sorted(extra, key=str)}")
        try:
            d1_at = tuple(_response(v, "d1") for v in raw["d1"])
            d2_at = tuple(tuple(_response(v, "d2") for v in row) for row in raw["d2"])
            mean_y = tuple(tuple(_real(v, "mean_y") for v in row) for row in raw["mean_y"])
            strata.append(Stratum(
                prob=_real(raw["prob"], "prob"), d1_at=d1_at, d2_at=d2_at,
                mean_y=mean_y, y_sd=_real(raw.get("y_sd", 0.0), "y_sd")))
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"malformed stratum {i}: {exc}") from None
        if len(d1_at) != 2 or len(d2_at) != 2 or any(len(r) != 2 for r in d2_at):
            raise SpecError(f"malformed stratum {i}: responses must be pairs")
        if len(mean_y) != 2 or any(len(r) != 2 for r in mean_y):
            raise SpecError(f"malformed stratum {i}: mean_y must be a 2x2 grid")
    return PopulationSpec(strata=tuple(strata), p_z=p_z, double_exclusion=double_exclusion)


class _YamlFloat(float):
    """A float read from YAML; ``str`` gives its text as written, so a field
    that names a file or a column reads ``1e5`` as ``"1e5"``."""

    def __new__(cls, value: float, text: str):
        number = super().__new__(cls, value)
        number.text = text
        return number

    def __str__(self) -> str:
        return self.text


@cache
def _loader() -> type:
    """PyYAML's safe loader, whose YAML 1.1 floats need a dot, plus the YAML
    1.2 floats with an exponent and no dot or an unsigned one: ``1e3``,
    ``-1e3``, ``1e-2``, ``2.5e3``. Built on first use: PyYAML is imported
    only when a YAML file is read or written."""
    import yaml

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_constructor("tag:yaml.org,2002:float", lambda loader, node: _YamlFloat(
        loader.construct_yaml_float(node), node.value))
    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
    return Loader


def read_yaml(path, error: type[Exception], what: str):
    """The document of the YAML file ``path``, read by :func:`_loader`. A file that
    cannot be opened, decoded as UTF-8 or parsed raises ``error`` naming ``what``."""
    import yaml

    try:
        with open(path, encoding="utf-8") as handle:
            return yaml.load(handle, Loader=_loader())
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"unreadable {what} file {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise error(f"malformed {what} file {path}: {exc}") from None


def save_spec(spec: PopulationSpec, path) -> None:
    """Write a spec as human-editable YAML; round-trips losslessly."""
    import yaml

    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(spec_to_dict(spec), handle, sort_keys=False)


def load_spec(path) -> PopulationSpec:
    return spec_from_dict(read_yaml(path, SpecError, "spec"))
