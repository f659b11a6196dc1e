"""Command-line orchestration.

Subcommands::

    lafte estimate  --config cfg.yaml [overrides]   first stages, IV
                                                    estimands, complier shares
    lafte diagnose  ...                             mover test + double
                                                    exclusion sign check
    lafte bounds    ...                             diagnostics banner, then
                                                    all three bound pairs
    lafte simulate  ...                             draw a dataset from a
                                                    population spec + truth
                                                    sidecar
    lafte verify    ...                             closed-form identity
                                                    checks on a spec

The run configuration lives in a YAML file (``--config``); every setting can
be overridden per-flag. Output is plain text (``--format text``, default) or
the machine-readable JSON document (``--format structured``); ``--out``
additionally writes the JSON document to a file. The same config, inputs,
and seed produce a byte-identical JSON document. Plain output only; NO_COLOR
is trivially respected.

Exit codes: 0 success, 1 usage/config error, 2 data or spec validation
error, 3 estimation failure (for example a relevance failure, whose message
names the failing treatment definition).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import yaml

from . import __version__
from .bounds import lafte_bounds, lafte_bounds_bounded_response, tau_bounds
from .data import load_table, save_table
from .diagnostics import double_exclusion_check, mover_test
from .estimands import (
    REPORT_ORDER,
    complier_shares,
    first_stage,
    iv_estimand,
    reduced_form,
)
from .exceptions import ConfigError, DataError, EstimationError, SpecError
from .report import (
    ReportBundle,
    bounds_dict,
    cell,
    mover_test_dict,
    render_bounds,
    render_diagnostics,
    render_estimates,
    render_verification,
    shares_dict,
    sign_check_dict,
    verification_dict,
)
from .strata import (
    analytic_moments,
    load_spec,
    sample,
    spec_to_dict,
    true_parameters,
    validate_spec,
)
from .verify import verify_identities

_CONFIG_KEYS = {
    "input", "mapping", "controls", "cluster", "delimiter", "level",
    "ymin", "ymax", "out", "format", "seed", "n", "missing",
    "upper_se_method",
}

_MAPPING_KEYS = {"z", "d1", "d2", "y"}


@dataclass
class RunConfig:
    """Fully resolved settings for one run; validated before any computation."""

    command: str
    input: str | None = None
    mapping: dict | None = None
    controls: list | None = None
    cluster: str | None = None
    delimiter: str = ","
    level: float = 0.05
    ymin: float | None = None
    ymax: float | None = None
    out: str | None = None
    format: str = "text"
    seed: int = 0
    n: int = 10000
    missing: str = "drop"
    upper_se_method: str = "stacking"

    def resolved(self) -> dict:
        return {
            "command": self.command, "input": self.input,
            "mapping": self.mapping, "controls": self.controls,
            "cluster": self.cluster, "delimiter": self.delimiter,
            "level": self.level, "ymin": self.ymin, "ymax": self.ymax,
            "format": self.format, "seed": self.seed, "n": self.n,
            "missing": self.missing, "upper_se_method": self.upper_se_method,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def metadata(self) -> dict:
        return {"version": __version__, "seed": self.seed,
                "config_hash": self.config_hash()}

    def table_mapping(self) -> dict:
        mapping = dict(self.mapping or {"z": "z", "d1": "d1", "d2": "d2", "y": "y"})
        if self.controls:
            mapping["controls"] = list(self.controls)
        if self.cluster:
            mapping["cluster"] = self.cluster
        return mapping


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"unreadable config file {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    if payload is None:
        return {}
    if not isinstance(payload, dict):
        raise ConfigError("config file must contain a key-value mapping")
    unknown = set(payload) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return payload


def build_config(command: str, args: argparse.Namespace) -> RunConfig:
    payload = _load_config_file(args.config) if args.config else {}
    config = RunConfig(command=command)

    if "mapping" in payload:
        mapping = payload["mapping"]
        if not isinstance(mapping, dict):
            raise ConfigError("config 'mapping' must be a key-value mapping")
        unknown = set(mapping) - _MAPPING_KEYS
        if unknown:
            raise ConfigError(f"unknown mapping keys: {sorted(unknown)}")
        config.mapping = {k: str(v) for k, v in mapping.items()}
    for key in ("input", "cluster", "delimiter", "out", "format", "missing",
                "upper_se_method"):
        if key in payload and payload[key] is not None:
            setattr(config, key, str(payload[key]))
    if "controls" in payload and payload["controls"] is not None:
        controls = payload["controls"]
        if isinstance(controls, str):
            controls = [c.strip() for c in controls.split(",") if c.strip()]
        config.controls = [str(c) for c in controls]
    for key, caster in (("level", float), ("ymin", float), ("ymax", float),
                        ("seed", int), ("n", int)):
        if key in payload and payload[key] is not None:
            try:
                setattr(config, key, caster(payload[key]))
            except (TypeError, ValueError):
                raise ConfigError(f"config key '{key}' must be a number") from None

    # per-flag overrides
    if getattr(args, "data", None):
        config.input = args.data
    if getattr(args, "cluster", None):
        config.cluster = args.cluster
    if getattr(args, "controls", None):
        config.controls = [c.strip() for c in args.controls.split(",") if c.strip()]
    for key in ("level", "ymin", "ymax", "seed", "n"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    if getattr(args, "out", None):
        config.out = args.out
    if getattr(args, "format", None):
        config.format = args.format

    if config.format not in ("text", "structured"):
        raise ConfigError(f"unknown format {config.format!r}; use text or structured")
    if config.missing not in ("drop", "fail"):
        raise ConfigError(f"unknown missing-data policy {config.missing!r}")
    if config.upper_se_method not in ("stacking", "delta"):
        raise ConfigError(f"unknown upper_se_method {config.upper_se_method!r}")
    if not 0.0 < config.level < 1.0:
        raise ConfigError(f"level must be inside (0,1), got {config.level}")
    if config.n < 1:
        raise ConfigError(f"n must be >= 1, got {config.n}")
    if config.input is None:
        raise ConfigError("no input file: set 'input' in the config or pass --data")
    return config


@contextmanager
def _writing(path):
    """Report a failure to write ``path`` as a usage error (exit 1)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _load(config: RunConfig):
    return load_table(config.input, config.table_mapping(),
                      delimiter=config.delimiter, on_missing=config.missing)


def _estimate_sections(table):
    stages = {}
    ivs = {}
    for d in REPORT_ORDER:
        stages[d.value] = cell(first_stage(table, d))
        ivs[d.value] = cell(iv_estimand(table, d))
    estimates = {
        "first_stage": stages,
        "iv_estimand": ivs,
        "reduced_form": cell(reduced_form(table)),
    }
    shares = complier_shares(table)
    return estimates, shares


def run_estimate(config: RunConfig) -> ReportBundle:
    table = _load(config)
    estimates, shares = _estimate_sections(table)
    warnings = list(table.warnings) + list(shares.warnings)
    warnings.append("complier shares assume the double exclusion restriction; "
                    "run 'lafte diagnose' to test its necessary conditions")
    bundle = ReportBundle(
        command="estimate", metadata=config.metadata(),
        estimates=estimates, shares=shares_dict(shares), warnings=warnings)
    bundle.text = (f"estimate: n={table.n}"
                   + (f", clusters={table.cluster_count}" if table.cluster_count else "")
                   + "\n\n" + render_estimates(estimates, bundle.shares))
    return bundle


def _diagnostics_sections(table, level):
    mover = mover_test(table, level=level)
    sign = double_exclusion_check(table, level=level)
    return {"mover_test": mover_test_dict(mover),
            "double_exclusion": sign_check_dict(sign)}, mover, sign


def run_diagnose(config: RunConfig) -> ReportBundle:
    table = _load(config)
    diagnostics, _, _ = _diagnostics_sections(table, config.level)
    bundle = ReportBundle(command="diagnose", metadata=config.metadata(),
                          diagnostics=diagnostics, warnings=list(table.warnings))
    bundle.text = render_diagnostics(diagnostics)
    return bundle


def run_bounds(config: RunConfig) -> ReportBundle:
    table = _load(config)
    diagnostics, mover, sign = _diagnostics_sections(table, config.level)
    warnings = list(table.warnings)

    theorem1 = lafte_bounds(table, upper_se_method=config.upper_se_method)
    bounded = lafte_bounds_bounded_response(table, config.ymin, config.ymax)
    tau = tau_bounds(table)

    downgraded = sign.verdict == "rejected"
    if downgraded:
        warnings.append(
            "double exclusion rejected by the sign check: theorem1 and "
            "bounded-response bounds are reported under a rejected assumption")
    warnings += list(theorem1.warnings) + list(bounded.warnings) + list(tau.warnings)

    bounds_payload = {
        "theorem1": bounds_dict(theorem1),
        "bounded_response": bounds_dict(bounded),
        "tau": bounds_dict(tau),
        "downgraded": downgraded,
    }
    bundle = ReportBundle(command="bounds", metadata=config.metadata(),
                          diagnostics=diagnostics, bounds=bounds_payload,
                          warnings=warnings)
    banner = (f"diagnostics: mover test -> {mover.conclusion}; "
              f"double exclusion sign check -> {sign.verdict}")
    if downgraded:
        banner += "\nWARNING: bounds below are reported under a rejected assumption"
    bundle.text = banner + "\n\n" + render_bounds(bounds_payload)
    return bundle


def run_simulate(config: RunConfig) -> ReportBundle:
    spec = load_spec(config.input)
    audit = validate_spec(spec)
    table = sample(spec, config.n, config.seed)
    out = config.out or "simulated.csv"
    with _writing(out):
        save_table(table, out, delimiter=config.delimiter)

    params = true_parameters(spec)
    moments = analytic_moments(spec)
    truth = {
        "spec": spec_to_dict(spec),
        "audit": {
            "no_movers": audit.no_movers,
            "double_exclusion": audit.double_exclusion,
            "mtr": audit.mtr, "mts": audit.mts,
            "positive_response": audit.positive_response,
            "relevance": audit.relevance,
            "homogeneity": {d.value: v for d, v in audit.homogeneity.items()},
        },
        "group_probs": params.group_probs,
        "group_effects": params.group_effects,
        "lafte_over_c": params.lafte_over_c,
        "tau": params.tau,
        "moments": {
            "first_stage": {d.value: v for d, v in moments.first_stage.items()},
            "reduced_form": moments.reduced_form,
        },
    }
    truth_path = out + ".truth.json"
    with _writing(truth_path), open(truth_path, "w", encoding="utf-8") as handle:
        json.dump(truth, handle, sort_keys=True, indent=2)
        handle.write("\n")

    simulation = {"data_path": out, "truth_path": truth_path,
                  "n": config.n, "seed": config.seed, "truth": truth}
    bundle = ReportBundle(command="simulate", metadata=config.metadata(),
                          simulation=simulation)
    bundle.text = (f"wrote {config.n} rows to {out}\n"
                   f"wrote true parameters to {truth_path}\n"
                   f"LAFTE over C = {params.lafte_over_c:.6g}, tau = {params.tau:.6g}")
    return bundle


def run_verify(config: RunConfig) -> ReportBundle:
    spec = load_spec(config.input)
    report = verify_identities(spec)
    verification = verification_dict(report)
    bundle = ReportBundle(command="verify", metadata=config.metadata(),
                          verification=verification,
                          warnings=list(report.flags))
    bundle.text = render_verification(verification)
    return bundle


class _Parser(argparse.ArgumentParser):
    # Usage problems are exit code 1, distinct from data validation (2).
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lafte", description=(
        "Instrument-based estimation with two-part treatments: estimands, "
        "mover diagnostics, partial-identification bounds, and a "
        "principal-strata simulation oracle."))
    parser.add_argument("--version", action="version", version=f"lafte {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
            ("estimate", "first stages, IV estimands, and complier shares"),
            ("diagnose", "mover test and double-exclusion sign check"),
            ("bounds", "diagnostics banner plus all three bound pairs"),
            ("simulate", "draw a dataset from a population spec"),
            ("verify", "closed-form identity checks on a population spec")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="YAML run configuration (primary)")
        p.add_argument("--data", help="input path override (data file, or spec "
                                      "file for simulate/verify)")
        p.add_argument("--cluster", help="cluster column override")
        p.add_argument("--controls", help="comma-separated control columns")
        p.add_argument("--level", type=float, help="significance level")
        p.add_argument("--ymin", type=float, help="lower response bound")
        p.add_argument("--ymax", type=float, help="upper response bound")
        p.add_argument("--n", type=int, help="simulation sample size")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--out", help="write the JSON report (or dataset) here")
        p.add_argument("--format", choices=("text", "structured"),
                       help="stdout format")
    return parser


_RUNNERS = {
    "estimate": run_estimate,
    "diagnose": run_diagnose,
    "bounds": run_bounds,
    "simulate": run_simulate,
    "verify": run_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = build_config(args.command, args)
        bundle = _RUNNERS[args.command](config)
        if config.out and args.command != "simulate":
            with _writing(config.out), open(config.out, "w", encoding="utf-8") as handle:
                handle.write(bundle.to_json())
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if config.format == "structured":
        sys.stdout.write(bundle.to_json())
    else:
        print(bundle.text)
        if bundle.warnings:
            print()
            for warning in bundle.warnings:
                print(f"warning: {warning}")

    if args.command == "verify":
        return 0 if bundle.verification["clean"] else 2
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
