"""Command-line entry point.

Subcommands mirror the library operations; every run writes a JSON report
(stdout by default, ``--out`` for a file) embedding the configuration echo
and library version.  Exit codes: 0 success, 1 validation error, 2 runtime
error.  ``--deterministic`` drops the timestamp so identical configurations
produce byte-identical reports.  Each subcommand takes only the flags its
handler reads, plus ``--config``, ``--out`` and ``--deterministic``.
``--config`` names a JSON object keyed by that subcommand's configuration
field names (``grid_step`` for ``--grid``, ``block_length`` for
``--blocklen``, else the flag with ``_`` for ``-``), each value of its
field's JSON type; explicit flags override it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

from . import __version__
from .errors import ParseError, ValidationError

LN2 = math.log(2.0)


@dataclass
class ExperimentConfig:
    command: str
    tree_path: str | None = None
    seed: int = 7
    samples: int = 100000
    grid_step: float = 0.05
    ry: str | None = None
    rb: str | None = None
    pi: str = "0.5"
    block_length: int = 8
    units: str = "nats"
    out: str | None = None
    deterministic: bool = False
    method: str = "both"
    tv_threshold: float = 0.5
    margin: float = 0.2
    csv: str | None = None
    dump_csv: str | None = None

    def validate(self):
        if self.seed < 0:
            raise ValidationError("cli: field 'seed' must be a non-negative integer")
        if self.samples < 1:
            raise ValidationError("cli: field 'samples' must be positive")
        if self.block_length < 1:
            raise ValidationError("cli: field 'blocklen' must be positive")
        if self.units not in ("nats", "bits"):
            raise ValidationError("cli: field 'units' must be 'nats' or 'bits'")
        if not (0.0 < self.grid_step <= 0.25):
            raise ValidationError("cli: field 'grid' must lie in (0, 0.25]")
        # echoed in every report, so they must be finite even where unused
        for name in ("tv_threshold", "margin"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"cli: field {name!r} must be a finite number")
        # output files are written after the work, so check where they go first;
        # enumerate-signs creates the directory its --out names, with any
        # missing parents, so the nearest existing path on it must be a directory
        for name in ("out", "csv", "dump_csv"):
            path = getattr(self, name)
            if path is None:
                continue
            if name == "out" and self.command == "enumerate-signs":
                existing = os.path.abspath(path)
                while not os.path.lexists(existing):
                    existing = os.path.dirname(existing)
                if not os.path.isdir(existing):
                    raise ValidationError(
                        f"cli: field 'out' must name a directory, got {path!r}, "
                        f"but {existing!r} is not one"
                    )
                continue
            if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
                raise ValidationError(
                    f"cli: field {name!r} must name a file in an existing directory, got {path!r}"
                )


# config field -> (flag, argparse keywords, JSON types a --config value may
# have); the defaults are those of ExperimentConfig
_NUMBER = (int, float)
_OPTIONS = {
    "seed": ("--seed", {"type": int}, (int,)),
    "samples": ("--samples", {"type": int}, (int,)),
    "grid_step": ("--grid", {"type": float}, _NUMBER),
    "ry": ("--ry", {}, (str, *_NUMBER)),
    "rb": ("--rb", {}, (str, *_NUMBER)),
    "pi": ("--pi", {}, (str, *_NUMBER)),
    "block_length": ("--blocklen", {"type": int}, (int,)),
    "units": ("--units", {"choices": ("nats", "bits")}, (str,)),
    "out": ("--out", {}, (str,)),
    "deterministic": ("--deterministic", {"action": "store_true"}, (bool,)),
    "method": ("--method", {"choices": ("both", "closed", "direct")}, (str,)),
    "tv_threshold": ("--tv-threshold", {"type": float}, _NUMBER),
    "margin": ("--margin", {"type": float}, _NUMBER),
    "csv": ("--csv", {}, (str,)),
    "dump_csv": ("--dump-csv", {}, (str,)),
}
_COMMON = ("out", "deterministic")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = _Parser(prog="lgtree", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    for name, (_, fields) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("tree_path")
        p.add_argument("--config", default=None)
        for field in fields + _COMMON:
            flag, keywords, _ = _OPTIONS[field]
            p.add_argument(flag, dest=field, default=None, **keywords)
    return parser


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    provided = {
        k: v for k, v in vars(args).items()
        if v is not None and k not in ("config",)
    }
    base: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                base = json.load(fh)
        except (OSError, UnicodeError) as exc:
            raise ValidationError(f"cli: config file {args.config!r} cannot be read: {exc}")
        except json.JSONDecodeError as exc:
            raise ParseError(f"cli: config file is not valid JSON: {exc}")
        if not isinstance(base, dict):
            raise ValidationError("cli: config file must hold a JSON object")
    for name, value in base.items():
        if name not in _COMMANDS[args.command][1] + _COMMON:
            raise ValidationError(f"cli: {args.command} reads no configuration field {name!r}")
        kinds = _OPTIONS[name][2]
        if type(value) not in kinds:   # exact types: a JSON true is no integer
            raise ValidationError(f"cli: configuration field {name!r} must be JSON "
                                  f"{'/'.join(t.__name__ for t in kinds)}, got {value!r}")
    config = ExperimentConfig(**{**base, **provided})
    config.validate()
    return config


def _to_nats(value: float, units: str) -> float:
    return value * LN2 if units == "bits" else value


def _from_nats(value: float, units: str) -> float:
    return value / LN2 if units == "bits" else value


def _parse_pi(spec: str, tree) -> "BernoulliParams":
    from .info import BernoulliParams

    spec = str(spec).strip()
    try:
        if "=" not in spec:
            return BernoulliParams.uniform(tree, float(spec))
        table = {}
        for part in spec.split(","):
            node, _, val = part.partition("=")
            if not val:
                raise ValidationError(f"cli: field 'pi' entry {part!r} is not node=value")
            table[node.strip()] = float(val)
    except ValueError:
        raise ValidationError(f"cli: field 'pi' value {spec!r} is not a number")
    missing = [h for h in tree.hidden if h not in table]
    if missing:
        raise ValidationError(f"cli: field 'pi' misses hidden node(s) {missing}")
    return BernoulliParams.make(table)


def _parse_rates(config: ExperimentConfig) -> "RateTuple":
    """The top layer's (R_Y, R_B) pair, the only rates the scheme takes."""
    from .synthesis import RateTuple

    if config.ry is None or config.rb is None:
        raise ValidationError("cli: fields 'ry' and 'rb' are required for this command")
    try:
        ry, rb = (_to_nats(float(v), config.units) for v in (config.ry, config.rb))
    except ValueError:
        raise ValidationError("cli: fields 'ry' and 'rb' must each be one number")
    return RateTuple.make([(ry, rb)], config.block_length)


def _mi_json(result, units: str, seed: int | None = None) -> dict:
    out = result.as_dict()
    out["value"] = _from_nats(result.value, units)
    out["units"] = units
    if seed is not None:
        out["seed"] = seed
    return out


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lgtree-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(config: ExperimentConfig, result: dict) -> None:
    report = {
        "command": config.command,
        "version": __version__,
        "config": dataclasses.asdict(config),
        "result": result,
    }
    if not config.deterministic:
        import datetime

        report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if config.out:
        _atomic_write(config.out, text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _load(config: ExperimentConfig):
    from .trees import load_tree

    try:
        return load_tree(config.tree_path)
    except FileNotFoundError:
        raise ValidationError(f"cli: tree file {config.tree_path!r} does not exist")
    except (OSError, UnicodeError) as exc:
        raise ValidationError(f"cli: tree file {config.tree_path!r} cannot be read: {exc}")


# -- command implementations --------------------------------------------------

def _cmd_validate(config: ExperimentConfig, tree) -> dict:
    return {
        "valid": True,
        "observed": tree.n,
        "hidden": tree.k,
        "layers": tree.num_layers,
        "layer_sizes": {str(d): len(tree.layer_nodes(d)) for d in range(1, tree.num_layers + 1)},
    }


def _cmd_covariance(config: ExperimentConfig, tree) -> dict:
    from .trees import joint_covariance, tree_determinant

    model = joint_covariance(tree)
    import numpy as np

    # the relative error is read off the log-determinants, which stay finite
    # where both determinants underflow to 0.0
    log_product = sum(math.log1p(-rho * rho) for _, _, rho in tree.spec.edges)
    return {
        "node_order": [n for n, _ in tree.spec.nodes],
        "joint": np.asarray(model.joint).tolist(),
        "observed_block": np.asarray(model.observed_block).tolist(),
        "determinant_product": tree_determinant(tree),
        "determinant_direct": float(np.linalg.det(model.joint)),
        "determinant_rel_err": abs(math.expm1(np.linalg.slogdet(model.joint)[1] - log_product)),
    }


def _cmd_enumerate(config: ExperimentConfig, tree) -> dict:
    from .signs import enumerate_equivalent_trees, verify_equivalence
    from .trees import format_tree

    variants = enumerate_equivalent_trees(tree)
    equivalent = verify_equivalence(variants)
    sign_report = _cmd_sign_report(config, tree)
    docs = [format_tree(t) for t in variants]
    written = None
    if config.out:
        # --out names a directory: one tree file per variant plus report.json
        directory = config.out
        os.makedirs(directory, exist_ok=True)
        written = []
        for i, doc in enumerate(docs):
            path = os.path.join(directory, f"variant_{i:04d}.tree")
            _atomic_write(path, doc)
            written.append(path)
        config.out = os.path.join(directory, "report.json")
    return {
        "count": len(variants),
        "all_equivalent": equivalent,
        "sign_report": sign_report,
        "variant_files": written,
        "variants": None if written else docs,
    }


def _cmd_sign_report(config: ExperimentConfig, tree) -> dict:
    from .signs import sign_class_report

    report = sign_class_report(tree)
    return {
        "edge_sign_variables": report.edge_sign_variables,
        "constraint_count": report.constraint_count,
        "free_variables": report.free_variables,
        "constraints": [
            {
                "edge_product": [list(v) for v in lhs],
                "class_product": [list(v) for v in rhs],
            }
            for lhs, rhs in report.constraints
        ],
    }


def _mi_report(tree, method: str, units: str) -> dict:
    """The direct and closed-form MI that ``method`` asks for.  ``both``
    reports the closed form only on trees whose observed nodes are all
    leaves of hidden nodes, which it needs; ``closed`` asks for it on any
    tree."""
    from .info import mi_closed_form, mi_direct
    from .trees import joint_covariance

    out: dict = {}
    if method in ("both", "direct"):
        out["direct"] = _mi_json(mi_direct(tree), units)
    hidden = set(tree.hidden)
    leaves = all(len(tree.adjacency[o]) == 1 and tree.adjacency[o][0][0] in hidden
                 for o in tree.observed)
    if method == "closed" or (method == "both" and leaves):
        sigma = joint_covariance(tree).observed_block
        out["closed_form"] = _mi_json(mi_closed_form(sigma, tree), units)
    if "direct" in out and "closed_form" in out:
        out["abs_difference_nats"] = abs(
            out["direct"]["value_nats"] - out["closed_form"]["value_nats"]
        )
    return out


def _cmd_mi(config: ExperimentConfig, tree) -> dict:
    return _mi_report(tree, config.method, config.units)


def _cmd_mi_conditional(config: ExperimentConfig, tree) -> dict:
    from .info import MIXTURE_ENUM_CAP, mixture_mi_profile, mi_direct, mi_sign_marginal

    pi = _parse_pi(config.pi, tree)
    profile = mixture_mi_profile(tree, pi, config.samples, config.seed)
    fixed = mi_direct(tree)
    chain = profile["inputs"].value + profile["signs_given_inputs"].value
    out = {
        "seed": config.seed,
        "pi": pi.as_dict(),
        "signs_given_inputs": _mi_json(profile["signs_given_inputs"], config.units, config.seed),
        "inputs": _mi_json(profile["inputs"], config.units, config.seed),
        "chain_sum_nats": chain,
        "fixed_total_nats": fixed.value,
        "chain_gap_nats": chain - fixed.value,
    }
    # the sign-marginal MI enumerates all 2^k sign vectors; the profile does not
    if tree.k <= MIXTURE_ENUM_CAP:
        marginal = mi_sign_marginal(tree, pi, config.samples, config.seed)
        out["signs_marginal"] = _mi_json(marginal, config.units)
    return out


def _cmd_optimize_pi(config: ExperimentConfig, tree) -> dict:
    from .info import optimize_pi

    best, curve = optimize_pi(tree, config.grid_step, config.samples, config.seed)
    if config.csv:
        rows = []
        for point, est in curve:
            label = ":".join(repr(p) for p in point) if len(point) > 1 else repr(point[0])
            rows.append([label, est.value, est.std_error])
        _write_csv(config.csv, ["pi", "value", "std_error"], rows)
    return {
        "seed": config.seed,
        "grid_step": config.grid_step,
        "pi_star": best.as_dict(),
        "curve": [
            {"pi": list(point), "value_nats": est.value, "std_error": est.std_error}
            for point, est in curve
        ],
    }


def _cmd_rate_check(config: ExperimentConfig, tree) -> dict:
    from .synthesis import rate_region_check

    pi = _parse_pi(config.pi, tree)
    rates = _parse_rates(config)
    margins = rate_region_check(tree, rates, pi, samples=config.samples, seed=config.seed)
    return {"seed": config.seed, "pi": pi.as_dict(), "margins": margins}


def _run_synthesis(config: ExperimentConfig, tree):
    from .synthesis import build_codebooks, estimate_divergence

    pi = _parse_pi(config.pi, tree)
    rates = _parse_rates(config)
    codebook = build_codebooks(tree, rates, pi, config.seed)
    return codebook, estimate_divergence(tree, codebook, config.samples, config.seed)


def _cmd_synthesize(config: ExperimentConfig, tree) -> dict:
    from .synthesis import synthesize

    codebook, report = _run_synthesis(config, tree)
    if config.dump_csv:
        blocks = synthesize(tree, codebook, min(config.samples, 200), config.seed)
        rows = []
        for r, block in enumerate(blocks):
            for t, symbol in enumerate(block):
                for node, value in zip(tree.observed, symbol):
                    rows.append([r, t, node, float(value)])
        _write_csv(config.dump_csv, ["run", "t", "node", "value"], rows)
    return dataclasses.asdict(report)


def _cmd_verify(config: ExperimentConfig, tree) -> dict:
    from .synthesis import verify_encoding_constraints

    codebook, report = _run_synthesis(config, tree)
    checks = verify_encoding_constraints(tree, codebook, report, seed=config.seed,
                                         tv_threshold=config.tv_threshold)
    return {
        "report": dataclasses.asdict(report),
        "checks": [dataclasses.asdict(c) for c in checks],
        "all_passed": all(c.passed for c in checks),
    }


def _cmd_report_all(config: ExperimentConfig, tree) -> dict:
    from .info import MIXTURE_ENUM_CAP, mixture_mi_profile
    from .signs import enumerate_equivalent_trees, verify_equivalence
    from .synthesis import (
        build_codebooks,
        estimate_divergence,
        frontier_rates,
        verify_encoding_constraints,
    )

    out: dict = {"validate": _cmd_validate(config, tree),
                 "covariance": _cmd_covariance(config, tree),
                 "sign_report": _cmd_sign_report(config, tree)}
    if tree.k <= MIXTURE_ENUM_CAP:
        variants = enumerate_equivalent_trees(tree)
        out["enumeration"] = {
            "count": len(variants),
            "all_equivalent": verify_equivalence(variants),
        }
    pi = _parse_pi(config.pi, tree)
    out["mi"] = _mi_report(tree, "both", config.units)
    mi_direct_nats = out["mi"]["direct"]["value_nats"]
    samples = min(config.samples, 50000)
    profile = mixture_mi_profile(tree, pi, samples, config.seed)
    out["mi_conditional"] = {
        "signs_given_inputs": _mi_json(profile["signs_given_inputs"], config.units),
        "inputs": _mi_json(profile["inputs"], config.units),
        "chain_gap_nats": profile["inputs"].value
        + profile["signs_given_inputs"].value
        - mi_direct_nats,
    }
    rates = frontier_rates(
        tree, pi, config.margin, min(config.block_length, 6),
        samples=samples, seed=config.seed,
    )
    codebook = build_codebooks(tree, rates, pi, config.seed)
    report = estimate_divergence(tree, codebook, min(samples, 1500), config.seed)
    checks = verify_encoding_constraints(tree, codebook, report, runs=1500, seed=config.seed,
                                         tv_threshold=config.tv_threshold)
    out["synthesis"] = dataclasses.asdict(report)
    out["constraints"] = {
        "checks": [dataclasses.asdict(c) for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    return out


_RATE_FIELDS = ("pi", "ry", "rb", "units", "block_length", "samples", "seed")
# subcommand -> (handler, the config fields it reads besides _COMMON)
_COMMANDS = {
    "validate": (_cmd_validate, ()),
    "covariance": (_cmd_covariance, ()),
    "enumerate-signs": (_cmd_enumerate, ()),
    "sign-report": (_cmd_sign_report, ()),
    "mi": (_cmd_mi, ("method", "units")),
    "mi-conditional": (_cmd_mi_conditional, ("pi", "samples", "seed", "units")),
    "optimize-pi": (_cmd_optimize_pi, ("grid_step", "samples", "seed", "csv")),
    "rate-check": (_cmd_rate_check, _RATE_FIELDS),
    "synthesize": (_cmd_synthesize, _RATE_FIELDS + ("dump_csv",)),
    "verify-constraints": (_cmd_verify, _RATE_FIELDS + ("tv_threshold",)),
    "report-all": (_cmd_report_all, ("pi", "units", "block_length", "samples", "seed",
                                     "tv_threshold", "margin")),
}


def run(config: ExperimentConfig) -> int:
    if config.command not in _COMMANDS:
        raise ValidationError(f"cli: unknown command {config.command!r}")
    result = _COMMANDS[config.command][0](config, _load(config))
    _emit(config, result)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ValidationError("cli: no command given; see --help")
        config = _merge_config(args)
        return run(config)
    except ValidationError as exc:
        module = getattr(exc, "module", "cli")
        print(f"error[{module}]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error[runtime]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
