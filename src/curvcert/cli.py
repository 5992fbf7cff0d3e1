"""Command-line front end: list catalog entries, run checks, scan along exp(-sA).

Exit codes: 0 = CERTIFIED, 1 = REFUTED, 2 = INCONCLUSIVE, 3 = error, an
input error or an internal one (say, MemoryError), never read as a verdict.
A reader that closes stdout early changes neither: the run keeps its exit
code and writes nothing to stderr.
Configuration precedence: command-line flags > config file > built-in defaults.

check and scan share one body, `cmd_run`: each run (`fat`, `part2`, `part3`,
`scan`) calls one certifier, and refuses a setting, as a flag or a config
key, that its certifier takes no argument for (see `_ARGUMENT`).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import os
import sys
import time
import traceback

from .algebra import FieldTag
from .catalog import build_entry, list_catalog
from .certify import (
    DEFAULT_REFUTE_TOL,
    DEFAULT_TOL,
    CertReport,
    StartBudget,
    Verdict,
    certify_part2,
    certify_part3,
    check_fatness,
    report_to_dict,
    scan_along_A,
)
from .triple import (
    Triple,
    load_triple,
    matrix_from_components,
    triple_to_json,
)

EXIT_ERROR = 3


@dataclasses.dataclass
class RunConfig:
    """The settings of a check or scan: what its report's config block records."""

    seed: int = StartBudget.seed
    starts: int = StartBudget.starts
    tol: float = DEFAULT_TOL
    refute_tol: float = DEFAULT_REFUTE_TOL
    s_values: list = dataclasses.field(default_factory=list)
    format: str = "json"

    def __post_init__(self):
        for key in ("tol", "refute_tol"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ValueError(f"need 0 < {key} < inf")
        if not all(math.isfinite(s) for s in self.s_values):
            raise ValueError("s_values must be finite")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format: {self.format}")


#: how a flag or config value of each RunConfig setting is read
_READ = {"seed": int, "starts": int, "tol": float, "refute_tol": float,
         "s_values": lambda text: [float(v) for v in text.split(",") if v.strip()],
         "format": str}
#: the certifier argument that reads each setting; a run whose certifier lacks it refuses
#: the setting.  format goes with s_values: CSV rows are scan points, check writes JSON only.
_ARGUMENT = {"A": "a", "refute_tol": "refute_tol", "seed": "budget", "starts": "budget",
             "tol": "tol", "format": "s_values", "s_values": "s_values"}
#: why check refuses the settings of scan's points
_SCAN_ONLY = {"format": "JSON only", "s_values": "scan only"}


def _certifiers() -> dict:
    """The certifier of each run, looked up when the run is made: a stand-in put in place
    of one (a test's, or a profiler's timing wrapper) is the one called."""
    return {"fat": check_fatness, "part2": certify_part2, "part3": certify_part3,
            "scan": scan_along_A}


#: the argument names of each run's certifier, read once from the library's own functions,
#: so that a stand-in taking (*args, **kwargs) is called with the arguments of the original
_TAKES = {run: frozenset(inspect.signature(fn).parameters) for run, fn in _certifiers().items()}


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; remap to the error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _parse_config_file(path: str) -> dict:
    """Plain key = value lines mirroring RunConfig; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def _settings(args) -> tuple[dict, dict]:
    """RunConfig's arguments, flags over config keys, and how each setting was given.

    A source is a flag ('--starts', '--A') or a config key ('config key starts').
    """
    settings, given = {}, {}
    if args.config:
        for key, value in _parse_config_file(args.config).items():
            if key not in _READ:
                raise ValueError(f"unknown config key: {key}")
            try:
                settings[key] = _READ[key](value)
            except ValueError as exc:
                raise ValueError(f"config key {key}: {exc}") from None
            given[key] = f"config key {key}"
    for key in _READ:
        if (value := getattr(args, key, None)) is not None:
            settings[key], given[key] = value, "--" + key.replace("_", "-")
    if args.A is not None:
        given["A"] = "--A"
    return settings, given


def _add_triple(parser: argparse.ArgumentParser) -> None:
    """The flags that select a triple, and --out."""
    parser.add_argument("--entry", help="catalog entry id (see `list`)")
    parser.add_argument("--file", help="triple JSON file")
    parser.add_argument("--n", type=int, help="size parameter for parametric entries")
    parser.add_argument("--k", type=int, help="integer k for m_kl")
    parser.add_argument("--l", type=int, help="integer l for m_kl")
    parser.add_argument("--field", help="scalar field for projective entries: "
                        "real|complex|quaternion or R|C|H, in any case")
    parser.add_argument("--out", help="output path (default: stdout)")


def _add_run(parser: argparse.ArgumentParser) -> None:
    """The flags of a certification run: triple selection, base point, budget, tolerances."""
    _add_triple(parser)
    parser.add_argument("--A", help="inline JSON base point: "
                        '{"field": ..., "n": ..., "matrix": [...]} or a bare component list')
    parser.add_argument("--seed", type=_READ["seed"])
    parser.add_argument("--starts", type=_READ["starts"])
    parser.add_argument("--tol", type=_READ["tol"])
    parser.add_argument("--refute-tol", dest="refute_tol", type=_READ["refute_tol"])
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--timing", action="store_true",
                        help="include wall_time_ms in reports (breaks byte-reproducibility)")


def _resolve(args) -> Triple:
    """The triple of --entry or --file; its base point is the default A."""
    if bool(args.entry) == bool(args.file):
        raise ValueError("exactly one of --entry or --file is required")
    params = {"n": args.n, "k": args.k, "l": args.l, "field": args.field}
    if args.entry:
        return build_entry(args.entry, **params).triple
    if given := [name for name, value in params.items() if value is not None]:
        raise ValueError(f"--{given[0]} does not apply to --file")
    return load_triple(args.file)


def _parse_inline_a(raw: str, triple: Triple):
    doc = json.loads(raw)
    if isinstance(doc, dict):
        field_tag = FieldTag(doc.get("field", triple.field.value))
        if "matrix" not in doc:
            raise ValueError('an --A object has no "matrix"')
        return matrix_from_components(field_tag, doc.get("n", triple.n), doc["matrix"])
    return matrix_from_components(triple.field, triple.n, doc)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed its end: the rest goes to devnull, so the flush at exit writes nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _report_doc(report: CertReport, config: RunConfig, wall_ms) -> dict:
    doc = report_to_dict(report)
    doc["config"] = dataclasses.asdict(config)
    if wall_ms is not None:
        doc["wall_time_ms"] = wall_ms
    return doc


def cmd_list(args) -> int:
    entries = list_catalog()
    if args.format == "json":
        _emit(json.dumps(entries, indent=2), args.out)
    else:
        lines = []
        for e in entries:
            lines.append(f"{e['id']}: {e['parameters']}")
            lines.append(f"    example {e['sample']} dims {e['dimensions']}")
        _emit("\n".join(lines), args.out)
    return 0


def cmd_run(args) -> int:
    """check or scan: run args.method's certifier on the triple, its A and the settings given.

    A setting that the certifier takes no argument for, as a flag or a config
    key, is an error, raised before the triple is built, as is a value out of
    range (a negative seed; refute_tol at or above tol, on the runs that read
    refute_tol), and a missing A after it.
    """
    name = "scan" if args.method == "scan" else f"check --method {args.method}"
    certify, takes = _certifiers()[args.method], _TAKES[args.method]
    settings, given = _settings(args)
    if refused := [key for key, arg in _ARGUMENT.items() if key in given and arg not in takes]:
        why = f" ({_SCAN_ONLY[refused[0]]})" if refused[0] in _SCAN_ONLY else ""
        raise ValueError(f"{given[refused[0]]} does not apply to {name}{why}")
    config = RunConfig(**settings)
    if "refute_tol" in takes and not config.refute_tol < config.tol:
        raise ValueError("need 0 < refute_tol < tol < inf")
    offered = {"budget": StartBudget(starts=config.starts, seed=config.seed), "tol": config.tol,
               "refute_tol": config.refute_tol, "s_values": config.s_values}
    if "s_values" in takes and not config.s_values:
        raise ValueError("scan requires a nonempty --s-values list")
    triple = _resolve(args)
    offered["a"] = triple.base_point if args.A is None else _parse_inline_a(args.A, triple)
    if offered["a"] is None and "a" in takes:
        raise ValueError(f"{name} requires a base point A (--A or entry default)")
    started = time.monotonic()
    result = certify(triple, **{arg: offered[arg] for arg in takes if arg in offered})
    wall_ms = int((time.monotonic() - started) * 1000) if args.timing else None
    reports = result if isinstance(result, list) else [result]
    if config.format == "csv":
        rows = [f"{rep.s},{rep.verdict.value},{rep.score}" for rep in reports]
        _emit("\n".join(["s,verdict,score", *rows]) + "\n", args.out)
    else:
        docs = [_report_doc(rep, config, wall_ms) for rep in reports]
        _emit(json.dumps(docs if isinstance(result, list) else docs[0], indent=2,
                         allow_nan=False), args.out)
    return max(_exit_code(rep.verdict) for rep in reports)


def cmd_export(args) -> int:
    _emit(triple_to_json(_resolve(args)), args.out)
    return 0


def _exit_code(verdict: Verdict) -> int:
    return {Verdict.CERTIFIED: 0, Verdict.REFUTED: 1, Verdict.INCONCLUSIVE: 2}[verdict]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curvcert",
        description="Numerical certificates of quasi-positive curvature for "
        "homogeneous fiber bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list catalog entries")
    p_list.add_argument("--format", choices=["json", "text"], default="json")
    p_list.add_argument("--out")
    p_list.set_defaults(fn=cmd_list)

    p_check = sub.add_parser("check", help="run a certification method on a triple")
    _add_run(p_check)
    p_check.add_argument("--method", choices=["fat", "part2", "part3"], required=True)
    p_check.set_defaults(fn=cmd_run)

    p_scan = sub.add_parser("scan", help="scan point positivity along exp(-sA)")
    _add_run(p_scan)
    p_scan.add_argument("--format", choices=["json", "csv"])
    p_scan.add_argument("--s-values", dest="s_values", type=_READ["s_values"],
                        help="comma-separated scan positions, e.g. 0,0.1,0.2")
    p_scan.set_defaults(fn=cmd_run, method="scan")

    p_export = sub.add_parser("export", help="export a triple in the JSON schema")
    _add_triple(p_export)
    p_export.set_defaults(fn=cmd_export)

    return parser


@functools.cache  # parsing leaves the parser unchanged, so one serves every main() call
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    # KeyError is a backstop: an input error must exit 3, never 1 (REFUTED)
    except (ValueError, KeyError, OSError) as exc:
        print(f"curvcert: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # an internal error (MemoryError, RuntimeError, ...)
        traceback.print_exc()
        print(f"curvcert: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
