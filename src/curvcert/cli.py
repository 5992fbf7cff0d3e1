"""Command-line front end: list catalog entries, run checks, scan along exp(-sA).

Exit codes: 0 = CERTIFIED, 1 = REFUTED, 2 = INCONCLUSIVE, 3 = error, an
input error or an internal one (say, MemoryError), never read as a verdict.
Configuration precedence: command-line flags > config file > built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
import traceback

from .algebra import FieldTag
from .catalog import build_entry, list_catalog
from .certify import (
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
    seed: int = 0
    starts: int = 64
    tol: float = 1e-6
    refute_tol: float = 1e-12
    s_values: list = dataclasses.field(default_factory=list)
    output_path: str = ""
    format: str = "json"

    def __post_init__(self):
        if not (0.0 < self.refute_tol < self.tol < math.inf):
            raise ValueError("need 0 < refute_tol < tol < inf")
        if not all(math.isfinite(s) for s in self.s_values):
            raise ValueError("s_values must be finite")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format: {self.format}")

    def to_dict(self) -> dict:
        """The report's config block: every field but output_path, so --out changes no byte."""
        doc = dataclasses.asdict(self)
        del doc["output_path"]
        return doc


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


def _coerce(key: str, value: str):
    if key in ("seed", "starts"):
        return int(value)
    if key in ("tol", "refute_tol"):
        return float(value)
    if key == "s_values":
        return [float(v) for v in value.split(",") if v.strip()]
    return value


def _settings(args) -> tuple[dict, dict]:
    """RunConfig's arguments, flags over config keys, and how each setting was given.

    A source is a flag ('--starts', '--A') or a config key ('config key starts').
    """
    settings, given = {}, {}
    if args.config:
        for key, value in _parse_config_file(args.config).items():
            if key not in RunConfig.__dataclass_fields__:
                raise ValueError(f"unknown config key: {key}")
            settings[key], given[key] = _coerce(key, value), f"config key {key}"
    flags = {key: getattr(args, key, None) for key in RunConfig.__dataclass_fields__}
    flags["output_path"] = args.out
    for key, value in flags.items():
        if value is not None:
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
    parser.add_argument("--field", choices=["real", "complex", "quaternion", "R", "C", "H"],
                        help="scalar field for projective entries")
    parser.add_argument("--out", help="output path (default: stdout)")


def _add_run(parser: argparse.ArgumentParser) -> None:
    """The flags of a certification run: triple selection, base point, budget, tolerances."""
    _add_triple(parser)
    parser.add_argument("--A", help="inline JSON base point: "
                        '{"field": ..., "n": ..., "matrix": [...]} or a bare component list')
    parser.add_argument("--seed", type=int)
    parser.add_argument("--starts", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--refute-tol", dest="refute_tol", type=float)
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


def _emit(text: str, out_path: str) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _report_doc(report: CertReport, config: RunConfig, wall_ms=None) -> dict:
    doc = report_to_dict(report)
    doc["config"] = config.to_dict()
    if wall_ms is not None:
        doc["wall_time_ms"] = wall_ms
    return doc


def cmd_list(args) -> int:
    entries = list_catalog()
    if (args.format or "json") == "json":
        _emit(json.dumps(entries, indent=2), args.out or "")
    else:
        lines = []
        for e in entries:
            lines.append(f"{e['id']}: {e['parameters']}")
            lines.append(f"    example {e['sample']} dims {e['dimensions']}")
        _emit("\n".join(lines), args.out or "")
    return 0


#: run settings that a check method never reads, refused as flags and as config keys
_UNUSED = {"fat": ("A",), "part2": ("refute_tol",), "part3": ("refute_tol", "seed", "starts")}
#: scan settings that check never reads, only config keys there, with why
_SCAN_ONLY = {"format": "JSON only", "s_values": "scan only"}


def _setup(args) -> tuple[RunConfig, Triple, object, StartBudget]:
    """The settings, triple, base point A and budget of a check or scan, or its input error.

    A setting that the run does not read, as a flag or a config key, is an
    error, raised before the triple is built, as is a missing A after it.
    """
    run = "scan" if args.command == "scan" else f"check --method {args.method}"
    settings, given = _settings(args)
    unused = _UNUSED.get(getattr(args, "method", None), ())
    if args.command != "scan":
        unused += tuple(_SCAN_ONLY)
    if clash := [key for key in unused if key in given]:
        why = f" ({_SCAN_ONLY[clash[0]]})" if clash[0] in _SCAN_ONLY else ""
        raise ValueError(f"{given[clash[0]]} does not apply to {run}{why}")
    config = RunConfig(**settings)
    budget = StartBudget(starts=config.starts, seed=config.seed)
    if args.command == "scan" and not config.s_values:
        raise ValueError("scan requires a nonempty --s-values list")
    triple = _resolve(args)
    a = triple.base_point if args.A is None else _parse_inline_a(args.A, triple)
    if a is None and "A" not in unused:
        raise ValueError(f"{run} requires a base point A (--A or entry default)")
    return config, triple, a, budget


def cmd_check(args) -> int:
    config, triple, a, budget = _setup(args)
    started = time.monotonic()
    if args.method == "part3":
        report = certify_part3(triple, a, tol=config.tol)
    elif args.method == "part2":
        report = certify_part2(triple, a, budget=budget, tol=config.tol)
    else:
        report = check_fatness(triple, budget=budget, tol=config.tol,
                               refute_tol=config.refute_tol)
    wall_ms = int((time.monotonic() - started) * 1000) if args.timing else None
    doc = _report_doc(report, config, wall_ms)
    _emit(json.dumps(doc, indent=2, allow_nan=False), config.output_path)
    return _exit_code(report.verdict)


def cmd_scan(args) -> int:
    config, triple, a, budget = _setup(args)
    started = time.monotonic()
    reports = scan_along_A(triple, a, config.s_values, budget=budget,
                           tol=config.tol, refute_tol=config.refute_tol)
    wall_ms = int((time.monotonic() - started) * 1000) if args.timing else None
    if config.format == "csv":
        lines = ["s,verdict,score"]
        for rep in reports:
            lines.append(f"{rep.s},{rep.verdict.value},{rep.score}")
        _emit("\n".join(lines) + "\n", config.output_path)
    else:
        docs = [_report_doc(rep, config, wall_ms) for rep in reports]
        _emit(json.dumps(docs, indent=2, allow_nan=False), config.output_path)
    worst = max(reports, key=lambda r: _exit_code(r.verdict))
    return _exit_code(worst.verdict)


def cmd_export(args) -> int:
    _emit(triple_to_json(_resolve(args)), args.out or "")
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
    p_check.set_defaults(fn=cmd_check)

    p_scan = sub.add_parser("scan", help="scan point positivity along exp(-sA)")
    _add_run(p_scan)
    p_scan.add_argument("--format", choices=["json", "csv"])
    p_scan.add_argument("--s-values", dest="s_values",
                        type=lambda v: [float(x) for x in v.split(",") if x.strip()],
                        help="comma-separated scan positions, e.g. 0,0.1,0.2")
    p_scan.set_defaults(fn=cmd_scan)

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
    except SystemExit:
        raise
    # KeyError is a backstop: an input error must exit 3, never 1 (REFUTED)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"curvcert: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # an internal error (MemoryError, DegenerateSpectrum, ...)
        traceback.print_exc()
        print(f"curvcert: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
