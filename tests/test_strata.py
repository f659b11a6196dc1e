import hashlib
import re
import tracemalloc

import numpy as np
import pytest
import yaml

from lafte import (
    PopulationSpec,
    SpecError,
    Stratum,
    analytic_moments,
    first_stage,
    group_probs,
    load_spec,
    random_spec,
    reduced_form,
    sample,
    save_spec,
    save_table,
    spec_from_dict,
    spec_to_dict,
    stratum,
    true_parameters,
    validate_spec,
)
from lafte.data import _CHUNK_ROWS, RESPONSES
from lafte.estimands import REPORT_ORDER
from lafte.strata import ALL_GROUPS

from conftest import s2_spec, single_full_complier_spec


def test_group_templates_classify_back():
    for name in ALL_GROUPS:
        s = stratum(name, 1.0, {})
        assert s.group() == name
        assert s.monotone


def _ladder_group(s):
    """The group rule as an if/else ladder for each part, as ``Stratum.group``
    wrote it before it applied one rule to both parts; the reference below."""
    d10, d11 = s.d1_at
    if d11 > d10:
        g1 = "C1"
    elif d10 == 1:
        g1 = "A1"
    else:
        g1 = "N1"
    lo, hi = s.d2(0), s.d2(1)
    if hi > lo:
        g2 = "C2"
    elif lo == 1:
        g2 = "A2"
    else:
        g2 = "N2"
    return g1 + g2


def test_group_matches_the_ladder_on_every_binary_response_map():
    for bits in range(64):
        b = [(bits >> i) & 1 for i in range(6)]
        s = Stratum(prob=1.0, d1_at=(b[0], b[1]), d2_at=((b[2], b[3]), (b[4], b[5])),
                    mean_y=((0.0, 0.0), (0.0, 0.0)))
        assert s.group() == _ladder_group(s), b


def test_s2_audit(s2):
    audit = validate_spec(s2)
    assert not audit.no_movers
    assert audit.double_exclusion
    assert audit.mtr and audit.mts and audit.positive_response
    assert audit.relevance


def test_single_full_complier_audit():
    spec = single_full_complier_spec()
    audit = validate_spec(spec)
    assert audit.no_movers
    assert audit.mtr and audit.mts and audit.positive_response
    # with no movers every homogeneity condition is vacuous
    assert all(audit.homogeneity.values())


def test_monotonicity_violation_rejected():
    # second-part enrollment falls from 1 to 0 along the realized path
    bad = Stratum(prob=1.0, d1_at=(0, 1), d2_at=((1, 1), (0, 0)),
                  mean_y=((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(SpecError, match="monotonicity"):
        validate_spec(PopulationSpec(strata=(bad,)))


def test_probability_sum_checked():
    spec = PopulationSpec(strata=(stratum("C1C2", 0.7, {}),))
    with pytest.raises(SpecError, match="sum"):
        validate_spec(spec)


def _first_of_two(p_z=0.5, **bad):
    """A spec of a full-complier stratum changed by ``bad`` and a never-taker,
    built when called."""
    fields = dict(prob=0.5, d1_at=(0, 1), d2_at=((0, 1), (0, 1)),
                  mean_y=((0.0, 0.0), (0.0, 1.0)), y_sd=0.0)
    return lambda: PopulationSpec(
        strata=(Stratum(**{**fields, **bad}), stratum("N1N2", 0.5, {})), p_z=p_z)


NON_FINITE = "stratum 0 has a non-finite prob, y_sd or mean_y"


@pytest.mark.parametrize("make, message", [
    # The NaN probability makes the sum NaN, which no comparison rejects.
    (_first_of_two(prob=float("nan")), NON_FINITE),
    (_first_of_two(y_sd=float("nan")), NON_FINITE),
    (_first_of_two(y_sd=float("inf")), NON_FINITE),
    (_first_of_two(mean_y=((0.0, 0.0), (0.0, float("-inf")))), NON_FINITE),
    (lambda: PopulationSpec(strata=()), "spec has no strata"),
    (_first_of_two(prob=-0.5), "stratum probabilities must be nonnegative"),
    (_first_of_two(p_z=0.0), "p_z must be inside (0,1), got 0.0"),
    (_first_of_two(p_z=1.0), "p_z must be inside (0,1), got 1.0"),
    (_first_of_two(d2_at=((0, 2), (0, 1))), "stratum 0 has non-binary treatment responses"),
    (_first_of_two(y_sd=-1.0), "stratum 0 has negative outcome noise scale"),
    (lambda: PopulationSpec(strata=(stratum("C1X2", 1.0, {}),)),
     "unknown response group 'C1X2'"),
])
def test_invalid_spec_rejected(make, message):
    with pytest.raises(SpecError, match=re.escape(message)):
        validate_spec(make())


def test_double_exclusion_flag_contradiction():
    spec = PopulationSpec(strata=(
        stratum("C1C2", 0.5, {}),
        stratum("N1C2", 0.5, {}),  # z-dependent response map
    ), double_exclusion=True)
    with pytest.raises(SpecError, match="depends on z"):
        validate_spec(spec)


def test_s2_moments(s2):
    m = analytic_moments(s2)
    assert m["d1"] == pytest.approx(1.0, abs=1e-15)
    assert m["d2"] == pytest.approx(0.5, abs=1e-15)
    assert m["y"] == pytest.approx(1.5, abs=1e-15)
    assert m["dand_y"] == pytest.approx(1.0, abs=1e-15)
    assert m["untreated_y"] == pytest.approx(0.0, abs=1e-15)


def test_single_stratum_moments():
    m = analytic_moments(single_full_complier_spec(effect=2.0))
    for d in REPORT_ORDER:
        expected = 2.0 if d == "d_sum" else 1.0
        assert m[d] == pytest.approx(expected, abs=1e-15)
    assert m["y"] == pytest.approx(2.0, abs=1e-15)


def test_moments_do_not_depend_on_pz(s2):
    shifted = PopulationSpec(strata=s2.strata, p_z=0.9,
                             double_exclusion=s2.double_exclusion)
    assert analytic_moments(s2) == analytic_moments(shifted)


def test_s2_true_parameters(s2):
    params = true_parameters(s2)
    assert params.lafte_over_c == pytest.approx(1.75, abs=1e-15)
    assert params.group_probs["C1C2"] == 0.5
    assert params.group_probs["C1N2"] == 0.5
    # analytic sharp-bound endpoints bracket the truth
    m = analytic_moments(s2)
    lower = m["y"] / m["d1"]
    upper = m["dand_y"] / m["d_and"] + m["untreated_y"] / m["d1"]
    assert lower == pytest.approx(1.5, abs=1e-15)
    assert upper == pytest.approx(2.0, abs=1e-15)
    assert lower <= params.lafte_over_c <= upper


def test_single_group_tau_equals_lafte():
    params = true_parameters(single_full_complier_spec(effect=2.0))
    assert params.tau == pytest.approx(2.0, abs=1e-15)
    assert params.lafte_over_c == pytest.approx(2.0, abs=1e-15)
    # the multivalued-treatment estimand halves it
    terms = params.beta_decomposition["d_sum"]
    assert sum(t.contribution for t in terms) == pytest.approx(1.0, abs=1e-15)


def test_decomposition_weights():
    rng = np.random.default_rng(40)
    for _ in range(20):
        spec = random_spec(rng)
        params = true_parameters(spec)
        moments = analytic_moments(spec)
        for d, terms in params.beta_decomposition.items():
            assert all(t.weight >= 0 for t in terms)
            if moments[d] > 0:
                stage = sum(t.weight for t in terms if not t.bias)
                assert stage == pytest.approx(1.0, rel=1e-10)


def _decomposition_digest(specs):
    """sha256 of every term (group, cells, ``float.hex`` of effect and weight,
    bias) and of each decomposition's value and denominator: the IV estimand
    ``m["y"] / m[d]`` (None unless the first stage ``m[d]`` is positive) and
    ``m[d]``, with ``m = analytic_moments(spec)``."""
    def hexed(x):
        return None if x is None else float(x).hex()

    digest = hashlib.sha256()
    for spec in specs:
        m = analytic_moments(spec)
        for d, terms in true_parameters(spec).beta_decomposition.items():
            for t in terms:
                digest.update(repr((d, t.group, t.cells, hexed(t.effect),
                                    hexed(t.weight), t.bias)).encode())
            value = m["y"] / m[d] if m[d] > 0 else None
            digest.update(repr((hexed(value), hexed(m[d]))).encode())
    return digest.hexdigest()


def test_beta_decomposition_is_pinned_bit_for_bit():
    rng = np.random.default_rng(20261019)
    specs = [s2_spec(), single_full_complier_spec()]
    # Zero first stages: of d2 and d_and with dropouts only, of d1 with
    # late-adopters only, so some values are None and their weights 0.
    specs += [PopulationSpec(strata=(stratum(g, 0.5, {(1, 1): 1.5, (1, 0): 0.25}),
                                     stratum("N1N2", 0.5, {})))
              for g in ("C1N2", "N1C2")]
    specs += [random_spec(rng, double_exclusion=bool(i % 2),
                          mean_range=(-10.0, 10.0) if i % 3 else (0.0, 10.0))
              for i in range(100)]
    assert _decomposition_digest(specs) == "59934a7b94b78b5bf80dd08e545901e9068096169f065dae8fe35cc8390e8c3e"


def test_empty_complier_set_rejected():
    spec = PopulationSpec(strata=(stratum("N1N2", 0.5, {}), stratum("A1A2", 0.5, {})))
    with pytest.raises(SpecError, match="relevance violated in population"):
        true_parameters(spec)


def test_sample_deterministic(s2):
    a = sample(s2, 50, seed=7)
    b = sample(s2, 50, seed=7)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.d1, b.d1)
    assert np.array_equal(a.y, b.y)
    c = sample(s2, 50, seed=8)
    assert not (np.array_equal(a.z, c.z) and np.array_equal(a.y, c.y))


# Four strata, one without noise, so that every branch of sample draws.
_PINNED_SPEC = PopulationSpec(strata=(
    stratum("C1C2", 0.35, {(0, 1): 1.25, (1, 0): 0.5, (1, 1): 2.75}, y_sd=1.5),
    stratum("C1N2", 0.2, {(0, 0): 0.25, (0, 1): 1.0, (1, 0): 1.5}, y_sd=0.0),
    stratum("N1A2", 0.15, {(0, 0): -1.0, (0, 1): 0.125}, y_sd=0.75),
    stratum("A1A2", 0.3, {(1, 0): 2.0, (1, 1): 3.5}, y_sd=2.0),
), p_z=0.4, double_exclusion=True)


@pytest.mark.parametrize("spec, digest", [
    (_PINNED_SPEC, "c324b90d94358ed0cb0b562f3df92ef4ad61bedebf3e95deccd188a24b909e5e"),
    (PopulationSpec(strata=_PINNED_SPEC.strata[:2]
                    + (stratum("A1A2", 0.45, {(1, 0): 2.0, (1, 1): 3.5}),), p_z=0.6),
     "e6b291a250b75630aacbcd66ea8fe043c0d86eb3bd7f2314f2e4505162570c32"),
])
def test_sample_draw_bytes_are_pinned(tmp_path, spec, digest):
    # The draws, their order and every outcome bit are part of the contract.
    path = tmp_path / "draw.csv"
    save_table(sample(spec, 50_000, seed=20240611), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _whole_array_draw(spec, n, seed):
    """The columns ``(z, d1, d2, y)`` of the draw made by one whole-array call
    of each kind, as ``sample`` made it before it drew a block at a time."""
    rng = np.random.default_rng(seed)
    strata = spec.strata
    probs = np.array([s.prob for s in strata], dtype=float)
    probs = probs / probs.sum()

    d1_tab = np.array([[s.d1(0), s.d1(1)] for s in strata], dtype=np.uint8)
    d2_tab = np.array([[s.d2(0), s.d2(1)] for s in strata], dtype=np.uint8)
    mean_tab = np.array([[s.outcome_mean(0), s.outcome_mean(1)] for s in strata])
    sd = np.array([s.y_sd for s in strata])

    idx = rng.choice(len(strata), size=n, p=probs).astype(np.min_scalar_type(len(strata) - 1))
    z = rng.binomial(1, spec.p_z, size=n).astype(np.uint8)
    d1 = d1_tab[idx, z]
    d2 = d2_tab[idx, z]
    if (sd > 0).any():
        y = rng.standard_normal(n)
        y *= sd[idx]
        y += mean_tab[idx, z]
    else:
        y = mean_tab[idx, z]
    return z, d1, d2, y


_NOISELESS_SPEC = _PINNED_SPEC._replace(strata=tuple(
    s._replace(y_sd=0.0) for s in _PINNED_SPEC.strata))


@pytest.mark.parametrize("spec", [_PINNED_SPEC, _NOISELESS_SPEC], ids=["noisy", "noiseless"])
@pytest.mark.parametrize("n", [2, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
def test_blocked_draw_equals_whole_array_draw(monkeypatch, spec, n):
    # Each kind of draw, made a block of rows at a time, takes the values of
    # one whole-array call from the same stream, to the bit. The columns are
    # read where sample hands them to data._build_table, which may reject a
    # draw of 2 rows (an empty instrument arm).
    drawn = []
    monkeypatch.setattr("lafte.strata._build_table", lambda *args: drawn.append(args[:4]))
    sample(spec, n, seed=20240611)
    (columns,) = drawn
    for got, want in zip(columns, _whole_array_draw(spec, n, seed=20240611), strict=True):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_sample_peak_memory_per_row():
    # The draw holds 11 bytes per row once made, and the stratum indices (1
    # byte) while it is made; a block of draws adds a fixed few hundred kB.
    n = 200_000
    sample(_PINNED_SPEC, 1000, seed=1)  # allocations made once per process
    tracemalloc.start()
    try:
        table = sample(_PINNED_SPEC, n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.z.dtype == table.d1.dtype == table.d2.dtype == np.uint8
    assert peak <= 14 * n


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_sample_needs_a_table_of_two_rows(s2, n):
    # A table needs two rows; a smaller draw is refused before anything is drawn.
    with pytest.raises(SpecError, match=f"sample size must be >= 2, got {n}"):
        sample(s2, n, seed=0)


def test_sample_perfect_compliance():
    t = sample(single_full_complier_spec(), 100, seed=1)
    assert np.array_equal(t.d1, t.z)
    assert np.array_equal(t.d2, t.z)


def test_sample_estimates_match_moments(s2):
    t = sample(s2, 50_000, seed=11)
    est = first_stage(t, "d2")
    # binomial standard error at the analytic share
    se = np.sqrt(0.25 / (50_000 * 0.25))
    assert abs(est.value - 0.5) <= 3 * se
    rf = reduced_form(t)
    assert abs(rf.value - 1.5) <= 3 * rf.se + 1e-9


def test_no_movers_sample_iv_estimates():
    # with no movers every binary-definition IV estimand targets the LAFTE
    from lafte import BINARY_DEFS, iv_estimand
    spec = single_full_complier_spec(effect=2.0, y_sd=1.0)
    t = sample(spec, 100_000, seed=17)
    for definition in BINARY_DEFS:
        est = iv_estimand(t, definition)
        assert abs(est.value - 2.0) <= 3 * est.se + 1e-9


def test_noise_scale_used():
    spec = single_full_complier_spec(effect=2.0, y_sd=0.5)
    t = sample(spec, 5_000, seed=9)
    treated = t.y[t.z == 1]
    assert treated.std() == pytest.approx(0.5, rel=0.1)


def test_spec_roundtrip(tmp_path, s2):
    path = tmp_path / "spec.yaml"
    save_spec(s2, path)
    back = load_spec(path)
    assert back == s2  # records compare by value


def test_random_spec_roundtrip(tmp_path):
    rng = np.random.default_rng(41)
    for i in range(10):
        spec = random_spec(rng, y_sd=float(i) / 7)
        path = tmp_path / f"s{i}.yaml"
        save_spec(spec, path)
        assert load_spec(path) == spec


def test_spec_dict_strict_keys():
    payload = spec_to_dict(s2_spec())
    payload["extra"] = 1
    with pytest.raises(SpecError, match="unknown spec keys"):
        spec_from_dict(payload)
    payload[1] = 2  # keys of mixed types
    with pytest.raises(SpecError, match=r"unknown spec keys: \[1, 'extra'\]"):
        spec_from_dict(payload)


def test_stratum_dict_strict_keys():
    payload = spec_to_dict(s2_spec())
    payload["strata"][0]["bogus"] = 1
    with pytest.raises(SpecError, match="unknown keys"):
        spec_from_dict(payload)
    payload["strata"][0][1] = 2  # keys of mixed types
    with pytest.raises(SpecError, match=r"stratum 0 has unknown keys: \[1, 'bogus'\]"):
        spec_from_dict(payload)


def test_random_specs_are_valid():
    rng = np.random.default_rng(42)
    for _ in range(40):
        spec = random_spec(rng)
        audit = validate_spec(spec)  # never raises on generated specs
        assert any(s.group() == "C1C2" for s in spec.strata)
        assert abs(sum(s.prob for s in spec.strata) - 1.0) < 1e-12
    for _ in range(20):
        spec = random_spec(rng, double_exclusion=True)
        assert spec.double_exclusion
        assert validate_spec(spec).double_exclusion


def test_outcome_scaling_property():
    rng = np.random.default_rng(43)
    for _ in range(10):
        spec = random_spec(rng, double_exclusion=True)
        factor = 3.5
        scaled = PopulationSpec(strata=tuple(
            Stratum(prob=s.prob, d1_at=s.d1_at, d2_at=s.d2_at,
                    mean_y=tuple(tuple(factor * v for v in row) for row in s.mean_y),
                    y_sd=s.y_sd)
            for s in spec.strata), p_z=spec.p_z, double_exclusion=True)
        base, big = true_parameters(spec), true_parameters(scaled)
        assert big.lafte_over_c == pytest.approx(factor * base.lafte_over_c, rel=1e-12)
        assert big.tau == pytest.approx(factor * base.tau, rel=1e-12)
        mb, ms = analytic_moments(spec), analytic_moments(scaled)
        fs1 = mb["d1"]
        for l, s_ in ((mb["y"] / fs1, ms["y"] / fs1),):
            assert s_ == pytest.approx(factor * l, rel=1e-12)
        upper_base = mb["dand_y"] / mb["d_and"] + mb["untreated_y"] / fs1
        upper_big = ms["dand_y"] / ms["d_and"] + ms["untreated_y"] / fs1
        assert upper_big == pytest.approx(factor * upper_base, rel=1e-12)


def test_group_probs_cover_all_strata():
    rng = np.random.default_rng(44)
    spec = random_spec(rng)
    probs = group_probs(spec)
    assert sum(probs.values()) == pytest.approx(1.0, rel=1e-12)


def _hand_written_moments(spec):
    """The per-column sums ``analytic_moments`` ran before it evaluated the
    column catalogue; kept as the reference its values must equal bit for bit."""
    totals = {name: [0.0, 0.0] for name in RESPONSES}
    for s in spec.strata:
        for z in (0, 1):
            d1, d2 = s.d1(z), s.d2(z)
            m = s.outcome_mean(z)
            d_and = d1 * d2
            d_or = d1 + d2 - d_and
            w = s.prob
            totals["d1"][z] += w * d1
            totals["d2"][z] += w * d2
            totals["d_and"][z] += w * d_and
            totals["d_or"][z] += w * d_or
            totals["d_sum"][z] += w * (d1 + d2)
            totals["y"][z] += w * m
            totals["g_or"][z] += w * (d_or - d2)
            totals["g_and"][z] += w * (d_and - d2)
            totals["dand_y"][z] += w * d_and * m
            totals["untreated_y"][z] += w * (1 - d1) * (1 - d2) * m
            totals["gy_or"][z] += w * (d_or - d2) * m
            totals["gy_and"][z] += w * (d_and - d2) * m
            totals["kernel_y"][z] += w * (1 - d1 - d2 + 2 * d_and) * m
    return {name: total[1] - total[0] for name, total in totals.items()}


def test_analytic_moments_equal_hand_written_sums_bit_for_bit():
    rng = np.random.default_rng(20250810)
    specs = [s2_spec(), single_full_complier_spec()]
    specs += [random_spec(rng, double_exclusion=bool(i % 2),
                          mean_range=(-10.0, 10.0) if i % 3 else (0.0, 10.0),
                          n_strata=8 if i % 5 == 0 else None)
              for i in range(240)]
    for i, spec in enumerate(specs):
        got, want = analytic_moments(spec), _hand_written_moments(spec)
        assert list(got) == list(want) == list(RESPONSES)
        # float.hex tells -0.0 from 0.0, which == does not.
        assert {k: float(v).hex() for k, v in got.items()} == {
            k: float(v).hex() for k, v in want.items()}, i
        assert all(type(v) is float for v in got.values())


def _spec_change(**change):
    return {**spec_to_dict(s2_spec()), **change}


def _stratum_change(**fields):
    payload = spec_to_dict(s2_spec())
    payload["strata"][0].update(fields)
    return payload


@pytest.mark.parametrize("payload, message", [
    ([_spec_change()], "population spec document must be a mapping"),
    ({"p_z": 0.5}, "spec is missing 'strata'"),
    (_spec_change(strata=5), "'strata' must be a list"),
    (_spec_change(strata=[5]), "malformed stratum 0: expected a mapping"),
    (_spec_change(p_z="abc"), "p_z must be a number"),
    (_spec_change(p_z=[1]), "p_z must be a number"),
    (_spec_change(double_exclusion="no"), "double_exclusion must be true or false"),
    (_spec_change(double_exclusion=1), "double_exclusion must be true or false"),
    (_stratum_change(d1=[0, 1, 1]), "malformed stratum 0: responses must be pairs"),
    (_stratum_change(d2=[[0, 1]]), "malformed stratum 0: responses must be pairs"),
    (_stratum_change(mean_y=[[0.0, 1.0]]), "malformed stratum 0: mean_y must be a 2x2 grid"),
])
def test_malformed_spec_documents_raise_spec_error(tmp_path, payload, message):
    with pytest.raises(SpecError, match=message):
        spec_from_dict(payload)
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    with pytest.raises(SpecError, match=message):
        load_spec(path)


@pytest.mark.parametrize("payload, message", [
    (_stratum_change(d1="01"), "malformed stratum 0: d1 entries must be integers 0 or 1, got '0'"),
    (_stratum_change(d1=[0, "1"]), "d1 entries must be integers 0 or 1, got '1'"),
    (_stratum_change(d1=[False, True]), "d1 entries must be integers 0 or 1, got False"),
    (_stratum_change(d1=[0, 1.0]), "d1 entries must be integers 0 or 1, got 1.0"),
    (_stratum_change(d1=[0, 2]), "d1 entries must be integers 0 or 1, got 2"),
    (_stratum_change(d2=["01", "01"]), "d2 entries must be integers 0 or 1, got '0'"),
    (_stratum_change(d2=[[0, 1], [True, 1]]), "d2 entries must be integers 0 or 1, got True"),
    (_stratum_change(prob=True), "malformed stratum 0: prob must be a number, got True"),
    (_stratum_change(prob="0.5"), "prob must be a number, got '0.5'"),
    (_stratum_change(y_sd=True), "y_sd must be a number, got True"),
    (_stratum_change(y_sd="1"), "y_sd must be a number, got '1'"),
    (_stratum_change(mean_y=[[0.0, "1"], [0.0, 0.0]]), "mean_y must be a number, got '1'"),
    (_stratum_change(mean_y=[[0.0, False], [0.0, 0.0]]), "mean_y must be a number, got False"),
    (_spec_change(p_z=True), "p_z must be a number, got True"),
    (_spec_change(p_z="0.5"), "p_z must be a number, got '0.5'"),
])
def test_spec_fields_are_not_coerced(tmp_path, payload, message):
    with pytest.raises(SpecError, match=re.escape(message)):
        spec_from_dict(payload)
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    with pytest.raises(SpecError, match=re.escape(message)):
        load_spec(path)


def test_spec_numbers_of_either_yaml_kind_are_read():
    payload = spec_to_dict(s2_spec())
    payload["p_z"] = np.float64(0.5)
    payload["strata"][0].update(prob=np.float64(payload["strata"][0]["prob"]), y_sd=0,
                                d1=[np.int64(0), 1], mean_y=[[0, 1], [2, 3.5]])
    spec = spec_from_dict(payload)
    assert spec.strata[0].d1_at == (0, 1) and type(spec.strata[0].d1_at[0]) is int
    assert spec.strata[0].mean_y == ((0.0, 1.0), (2.0, 3.5)) and spec.strata[0].y_sd == 0.0
    assert all(type(v) is float for row in spec.strata[0].mean_y for v in row)


def test_yaml_boolean_double_exclusion_is_read():
    payload = spec_to_dict(s2_spec())
    for text, flag in (("true", True), ("no", False), ("false", False)):
        document = yaml.safe_dump(payload).replace("double_exclusion: true",
                                                   f"double_exclusion: {text}")
        assert spec_from_dict(yaml.safe_load(document)).double_exclusion is flag
