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

The run configuration lives in a YAML file (``--config``). A flag sets its
config key (``--data`` sets ``input``) by that key's rules, after the file,
so an empty flag value sets its key as it does in the file; the settings
read make one immutable :class:`RunConfig`. Output is plain
text (``--format text``, default) or the machine-readable JSON document
(``--format structured``); ``--out`` additionally writes the JSON document
to a file. The same config, inputs, and seed produce a byte-identical JSON
document. Plain output only; NO_COLOR is trivially respected.

Each command reads its data file with ``data.load_table``. The parsed
columns of a file of 2 MiB or more are kept in an on-disk cache
(``$XDG_CACHE_HOME/lafte``), in an entry named by the one key of every
kept file (``data._cache_entry``), and the table's one fit at
``<entry>.fit``. So ``estimate``, ``diagnose`` and ``bounds`` on the same
bytes and columns parse the file and fit the table once between them; each
still reads it once, to hash it. The output does not depend on the cache.
PyYAML is imported only by a command that reads a config or spec file.

Exit codes: 0 success, 1 usage/config error, an output that is the input
or config file, or one that cannot be written (``--out``, or a closed stdout), 2 data
or spec validation error, 3 estimation failure (for example a relevance
failure, whose message names the failing treatment definition).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import numbers
import os
import re
import sys
from contextlib import contextmanager, suppress
from typing import NamedTuple

from . import __version__
from .bounds import lafte_bounds, lafte_bounds_bounded_response, tau_bounds
from .data import DEFAULT_MAPPING, _check_delimiter, _check_missing, load_table, save_table
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
    as_dict,
    bounds_dict,
    document,
    render_bounds,
    render_diagnostics,
    render_estimates,
    render_verification,
    verification_dict,
)
from .strata import (
    analytic_moments,
    load_spec,
    read_yaml,
    sample,
    spec_to_dict,
    true_parameters,
    validate_spec,
)
from .verify import verify_identities


class RunConfig(NamedTuple):
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

    def config_hash(self) -> str:
        """The sha256 of every setting but ``out`` and ``format``: where a
        report is written and how stdout shows it do not change it."""
        settings = self._asdict()
        del settings["out"], settings["format"]
        return hashlib.sha256(json.dumps(settings, sort_keys=True).encode("utf-8")).hexdigest()

    def metadata(self) -> dict:
        return {"version": __version__, "seed": self.seed,
                "config_hash": self.config_hash()}

    def table_mapping(self) -> dict:
        mapping = dict(self.mapping or DEFAULT_MAPPING)
        if self.controls:
            mapping["controls"] = list(self.controls)
        if self.cluster:
            mapping["cluster"] = self.cluster
        return mapping


# Keys of a config file: every setting but the subcommand.
_CONFIG_KEYS = set(RunConfig._fields) - {"command"}


def _load_config_file(path) -> dict:
    payload = read_yaml(path, ConfigError, "config")
    if payload is None:
        return {}
    if not isinstance(payload, dict):
        raise ConfigError("config file must contain a key-value mapping")
    unknown = set(payload) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
    return payload


def _text(key: str, value) -> str:
    """A setting that names a file, a column or a choice: a string, or a
    number as YAML wrote it (``1e5`` stays ``"1e5"``)."""
    if isinstance(value, bool) or not isinstance(value, (str, numbers.Real)):
        raise ConfigError(f"config key '{key}' must be a string or a number, got {value!r}")
    return str(value)


def _read_settings(settings: dict) -> dict:
    """Each setting of a config file, or of the flags given, read by the
    rules of its key; a setting that is None is left out."""
    read = {}
    if "mapping" in settings:
        mapping = settings["mapping"]
        if not isinstance(mapping, dict):
            raise ConfigError("config 'mapping' must be a key-value mapping")
        unknown = set(mapping) - set(DEFAULT_MAPPING)
        if unknown:
            raise ConfigError(f"unknown mapping keys: {sorted(unknown, key=str)}")
        read["mapping"] = {k: _text(f"mapping.{k}", v) for k, v in mapping.items()}
    for key in ("input", "cluster", "delimiter", "out", "format", "missing"):
        if settings.get(key) is not None:
            read[key] = _text(key, settings[key])
    if settings.get("controls") is not None:
        controls = settings["controls"]
        if isinstance(controls, str):
            controls = [c.strip() for c in controls.split(",") if c.strip()]
        elif not isinstance(controls, list):
            raise ConfigError("config key 'controls' must be a list of column names "
                              "or a comma-separated string")
        read["controls"] = [_text("controls", c) for c in controls]
    # Numbers are read as YAML wrote them, never coerced: no bool, no string,
    # and no float where an integer is meant.
    for key, caster in (("level", float), ("ymin", float), ("ymax", float),
                        ("seed", int), ("n", int)):
        value = settings.get(key)
        if value is None:
            continue
        kind, noun = ((numbers.Integral, "an integer") if caster is int
                      else (numbers.Real, "a number"))
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"config key '{key}' must be {noun}, got {value!r}")
        read[key] = caster(value)
    return read


def build_config(command: str, args: argparse.Namespace) -> RunConfig:
    """The settings of the config file, then of the flags; ``simulate``
    writes its draw to ``simulated.csv`` unless ``out`` names a file."""
    settings = _read_settings(_load_config_file(args.config)) if args.config else {}
    settings.update(_read_settings({k: v for k, v in vars(args).items()
                                    if k not in ("command", "config") and v is not None}))
    if command == "simulate":
        settings.setdefault("out", "simulated.csv")
    config = RunConfig(command, **settings)

    _check_delimiter(config.delimiter, "config key 'delimiter'")
    if config.format not in ("text", "structured"):
        raise ConfigError(f"unknown format {config.format!r}; use text or structured")
    _check_missing(config.missing)
    if not 0.0 < config.level < 1.0:
        raise ConfigError(f"level must be inside (0,1), got {config.level}")
    if config.n < 2:  # a table's least size
        raise ConfigError(f"n must be >= 2, got {config.n}")
    if config.seed < 0:
        raise ConfigError(f"config key 'seed' must be a non-negative integer, got {config.seed}")
    for key in ("ymin", "ymax"):
        value = getattr(config, key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"config key '{key}' must be finite, got {value}")
    if config.input is None:
        raise ConfigError("no input file: set 'input' in the config or pass --data")
    outputs = [config.out, config.out + ".truth.json"] if command == "simulate" else [config.out]
    for path in filter(None, outputs):
        for what, source in (("input", config.input), ("config", args.config)):
            with suppress(OSError):  # a file is absent: no output overwrites it
                if source and os.path.samefile(path, source):
                    raise ConfigError(f"output {path} is the {what} file {source}; "
                                      "nothing is read or written")
    return config


@contextmanager
def _writing(path):
    """Report a failure to write ``path`` as a usage error (exit 1)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _on_table(run):
    """The runner of a command on the table of ``config``: ``run(config,
    table)``. An estimation failure on the table carries its warnings, as
    ``table_warnings``, since they may say why it failed."""
    def runner(config: RunConfig) -> tuple[dict, list, str]:
        table = load_table(config.input, config.table_mapping(),
                           delimiter=config.delimiter, on_missing=config.missing)
        try:
            return run(config, table)
        except EstimationError as exc:
            exc.table_warnings = table.warnings
            raise
    return runner


@_on_table
def run_estimate(config: RunConfig, table) -> tuple[dict, list, str]:
    estimates = {
        "first_stage": {d: as_dict(first_stage(table, d)) for d in REPORT_ORDER},
        "iv_estimand": {d: as_dict(iv_estimand(table, d)) for d in REPORT_ORDER},
        "reduced_form": as_dict(reduced_form(table)),
    }
    shares = complier_shares(table)
    warnings = list(table.warnings) + list(shares.warnings)
    warnings.append("complier shares assume the double exclusion restriction; "
                    "run 'lafte diagnose' to test its necessary conditions")
    sections = {"estimates": estimates, "shares": as_dict(shares)}
    text = (f"estimate: n={table.n}"
            + (f", clusters={table.cluster_count}" if table.cluster_count else "")
            + "\n\n" + render_estimates(estimates, sections["shares"]))
    return sections, warnings, text


def _diagnostics_sections(table, level):
    mover = mover_test(table, level=level)
    sign = double_exclusion_check(table, level=level)
    return {"mover_test": as_dict(mover), "double_exclusion": as_dict(sign)}, mover, sign


@_on_table
def run_diagnose(config: RunConfig, table) -> tuple[dict, list, str]:
    diagnostics, _, _ = _diagnostics_sections(table, config.level)
    return ({"diagnostics": diagnostics}, list(table.warnings),
            render_diagnostics(diagnostics))


@_on_table
def run_bounds(config: RunConfig, table) -> tuple[dict, list, str]:
    diagnostics, mover, sign = _diagnostics_sections(table, config.level)
    warnings = list(table.warnings)

    theorem1 = lafte_bounds(table)
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
    banner = (f"diagnostics: mover test -> {mover.conclusion}; "
              f"double exclusion sign check -> {sign.verdict}")
    if downgraded:
        banner += "\nWARNING: bounds below are reported under a rejected assumption"
    return ({"diagnostics": diagnostics, "bounds": bounds_payload}, warnings,
            banner + "\n\n" + render_bounds(bounds_payload))


def run_simulate(config: RunConfig) -> tuple[dict, list, str]:
    spec = load_spec(config.input)
    audit = validate_spec(spec)
    table = sample(spec, config.n, config.seed)
    with _writing(config.out):
        save_table(table, config.out, delimiter=config.delimiter)

    params = as_dict(true_parameters(spec))
    del params["beta_decomposition"]
    moments = analytic_moments(spec)
    truth = {
        "spec": spec_to_dict(spec),
        "audit": as_dict(audit),
        **params,
        "moments": {
            "first_stage": {d: moments[d] for d in REPORT_ORDER},
            "reduced_form": moments["y"],
        },
    }
    truth_path = config.out + ".truth.json"
    with _writing(truth_path), open(truth_path, "w", encoding="utf-8") as handle:
        json.dump(truth, handle, sort_keys=True, indent=2)
        handle.write("\n")

    simulation = {"data_path": config.out, "truth_path": truth_path,
                  "n": config.n, "seed": config.seed, "truth": truth}
    return ({"simulation": simulation}, [],
            f"wrote {config.n} rows to {config.out}\n"
            f"wrote true parameters to {truth_path}\n"
            f"LAFTE over C = {params['lafte_over_c']:.6g}, tau = {params['tau']:.6g}")


def run_verify(config: RunConfig) -> tuple[dict, list, str]:
    verification = verification_dict(verify_identities(load_spec(config.input)))
    return ({"verification": verification}, list(verification["flags"]),
            render_verification(verification))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Values such as -1e3, -inf and -.5 are numbers, as -1 is, not flags.
        self._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)

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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML run configuration (primary)")
    common.add_argument("--data", dest="input", help="input path override (data file, "
                        "or spec file for simulate/verify)")
    common.add_argument("--cluster", help="cluster column override")
    common.add_argument("--controls", help="comma-separated control columns")
    common.add_argument("--level", type=float, help="significance level")
    common.add_argument("--ymin", type=float, help="lower response bound")
    common.add_argument("--ymax", type=float, help="upper response bound")
    common.add_argument("--n", type=int, help="simulation sample size")
    common.add_argument("--seed", type=int, help="random seed")
    common.add_argument("--out", help="write the JSON report (or dataset) here")
    common.add_argument("--format", choices=("text", "structured"), help="stdout format")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
            ("estimate", "first stages, IV estimands, and complier shares"),
            ("diagnose", "mover test and double-exclusion sign check"),
            ("bounds", "diagnostics banner plus all three bound pairs"),
            ("simulate", "draw a dataset from a population spec"),
            ("verify", "closed-form identity checks on a population spec")):
        sub.add_parser(name, help=doc, parents=[common])
    return parser


# Each runner gives its command's document sections by name, its warnings and
# its text.
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
        sections, warnings, text = _RUNNERS[args.command](config)
        if config.out and args.command != "simulate":
            with _writing(config.out), open(config.out, "w", encoding="utf-8") as handle:
                handle.write(document(args.command, config.metadata(), sections, warnings))
    except (ConfigError, DataError, SpecError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for warning in getattr(exc, "table_warnings", ()):
            print(f"warning: {warning}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 3 if isinstance(exc, EstimationError) else 2

    try:
        if config.format == "structured":
            sys.stdout.write(document(args.command, config.metadata(), sections, warnings))
        else:
            print(text)
            if warnings:
                print()
                for warning in warnings:
                    print(f"warning: {warning}")
        sys.stdout.flush()
    except BrokenPipeError as exc:  # what stays buffered then goes nowhere at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 1

    if args.command == "verify":
        return 0 if sections["verification"]["clean"] else 2
    return 0


def main_entry() -> None:
    code = main()
    # Moves every object to the permanent generation, which the collections
    # at interpreter exit skip: they would traverse the whole heap (numpy's
    # modules, a table's labels) for cycles in a process that is ending. Not
    # in main(): the tests and bench/tracer.py call it in a process that goes on.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
