"""Command-line front end: every pipeline stage behind one reproducible tool.

Each run prints a single report to stdout: JSON by default, TSV with
--format tsv (tabs, no quoting, LF endings).  The envelope carries the
command name, field parameters, and wall time; payloads are documented by
the schemas under docs/schemas/.  Exit status: 0 on success, 1 on domain
errors (degenerate parameters, unsupported degree), failed internal
checks, out of memory and an unreadable --gamma-file, each of which main
alone prints as one error line with no traceback, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from functools import lru_cache

import numpy as np

from . import coset, curves, oracle
from .gf2m import make_field


def _hex(value: int) -> str:
    return f"0x{value:x}"


def _parse_element(text: str) -> int:
    try:
        value = int(text, 16)
        if value >= 0:  # int() takes a sign; no element or modulus has one
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a hex element: {text!r}")


def _profile_payload(profile: curves.TraceProfile, params: curves.CurveParams) -> dict:
    return {
        "tr_a": params.trace_class_a,
        "b": _hex(params.b),
        "lambda": _hex(params.lam),
        "j_invariant": _hex(params.j_invariant),
        **asdict(profile),
    }


def _cmd_field(args) -> dict:
    field = make_field(args.m, args.modulus)
    return {"m": field.m, "modulus": _hex(field.modulus), "q": field.q}


def _cmd_nab(args) -> dict:
    field = make_field(args.m, args.modulus)
    if args.a is not None:
        value = coset.N_of_general(field, args.a, args.b)
        return {"a": _hex(args.a), "b": _hex(args.b), "N": value}
    value = coset.N_of(field, args.tr_a, args.b)
    return {"tr_a": args.tr_a, "b": _hex(args.b), "N": value}


def _cmd_table(args) -> dict:
    table = coset.distribution(args.m, args.modulus)
    payload = table.to_json_dict()
    payload["_tsv"] = table.to_tsv  # rendered by _emit under --format tsv only
    return payload


def _cmd_bounds(args) -> dict:
    return asdict(coset.bounds(args.m))


def _cmd_gamma(args) -> dict:
    report = coset.gamma_report(args.m, coset.load_gamma(args.gamma_file))
    residual_nonzero = {str(l): r for l, r in report.residual.items() if r}
    missing = [coset.GAMMA_BASE + 2 * l for l, c in report.histogram.items() if c == 0]
    return {
        "base_value": coset.GAMMA_BASE,
        "histogram": {str(l): c for l, c in report.histogram.items()},
        "residual_nonzero": residual_nonzero,
        "missing_values": missing,
    }


def _cmd_traces(args) -> dict:
    field = make_field(args.m, args.modulus)
    if args.tr_a is not None:
        params = curves.curve_params(field, args.tr_a, args.b)
        return _profile_payload(curves.curve_traces(params), params)
    out = {}
    for cls in (0, 1):
        params = curves.curve_params(field, cls, args.b)
        out[f"tr_a_{cls}"] = _profile_payload(curves.curve_traces(params), params)
    return out


def _cmd_split(args) -> dict:
    field = make_field(args.m, args.modulus)
    params = curves.curve_params(field, args.tr_a, args.b)
    count = curves.split_count(args.subset, params)
    interval = curves.split_interval(args.subset, field, args.tr_a)
    return {
        "subset": args.subset,
        "tr_a": args.tr_a,
        "b": _hex(args.b),
        "M": count,
        "interval": list(interval) if interval else None,
    }


def _cmd_verify(args) -> dict:
    field = make_field(args.m, args.modulus)
    # the odd-degree rule first, and then the oracle rows: past the oracle's
    # limit they fail before any count table is built
    curves.require_odd(field.m)
    rows = oracle.weight4_rows(field, (0, 1))
    b = np.arange(1, field.q) ^ 1  # B = lam + 1 for A in {0, 1}, lam != 0
    mismatches = []
    for cls, row in enumerate(rows):
        wrong = b[coset.invariants(field, cls)[1:] != row[b]]
        mismatches += [{"tr_a": cls, "b": _hex(v)} for v in np.sort(wrong).tolist()]
    payload = {"mode": "exhaustive", "checked": 2 * (field.q - 1), "mismatches": mismatches}
    if mismatches:
        # reported before the calibration, which reads the same closed form
        raise DomainFailure("oracle disagreement", payload)
    boundary = coset.calibrate_boundary(args.m, args.modulus)
    payload["boundary"] = {str(cls): v for cls, v in boundary.items()}
    return payload


def _cmd_covering_radius(args) -> dict:
    return asdict(oracle.covering_radius(args.m))


class DomainFailure(Exception):
    """A check ran to completion and failed; carries the payload."""

    def __init__(self, message, payload):
        super().__init__(message)
        self.payload = payload


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, rows)
    elif isinstance(value, (list, tuple)):
        rows.append((prefix, ",".join(str(v) for v in value)))
    else:  # a null is an empty field, as an empty list is
        rows.append((prefix, "" if value is None else str(value)))


def _emit(report: dict, fmt: str) -> None:
    tsv_block = report["payload"].pop("_tsv", None)
    if fmt == "json":
        sys.stdout.write(json.dumps(report) + "\n")
        return
    rows: list[tuple[str, str]] = []
    _flatten("", {key: report[key] for key in ("command", "m", "modulus", "elapsed_s")}, rows)
    if tsv_block is None:
        _flatten("", report["payload"], rows)
    text = "".join(f"{key}\t{value}\n" for key, value in rows)
    sys.stdout.write(text + (tsv_block() if tsv_block else ""))


@lru_cache(maxsize=None)  # one parser per process: building it costs more than a small command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bch3",
        description="coset weight invariants of triple-error-correcting BCH codes",
    )
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, modulus=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--m", type=int, required=True)
        if modulus:
            p.add_argument("--modulus", type=_parse_element, default=None)
        return p

    add("field", _cmd_field, help="validate and print a field specification")

    p = add("nab", _cmd_nab, help="the weight-4 invariant for one parameter pair")
    parameterization = p.add_mutually_exclusive_group(required=True)
    parameterization.add_argument("--tr-a", type=int, choices=(0, 1), default=None)
    parameterization.add_argument("--a", type=_parse_element, default=None)
    p.add_argument("--b", type=_parse_element, required=True)

    add("table", _cmd_table, help="full value distribution for one field size")

    add("bounds", _cmd_bounds, modulus=False, help="value enclosures for one field size")

    p = add("gamma", _cmd_gamma, modulus=False, help="compare the m=13 histogram against the reference profile")
    p.add_argument("--gamma-file", default=None)

    p = add("traces", _cmd_traces, help="fibre counts and Frobenius traces for one parameter")
    p.add_argument("--b", type=_parse_element, required=True)
    p.add_argument("--tr-a", type=int, choices=(0, 1), default=None)

    p = add("split", _cmd_split, help="complete-splitting pair count for a cover subset")
    p.add_argument("--b", type=_parse_element, required=True)
    p.add_argument("--subset", choices=sorted(curves.SUBSETS), required=True)
    p.add_argument("--tr-a", type=int, choices=(0, 1), default=0)

    p = add("verify", _cmd_verify, help="cross-check the closed form against the exhaustive oracle")
    # every run is exhaustive; the flag is accepted for existing callers
    p.add_argument("--exhaustive", action="store_true")

    bfs_help = f"exact covering radius by syndrome BFS (4 <= m <= {oracle.BFS_MAX_M})"
    add("covering-radius", _cmd_covering_radius, modulus=False, help=bfs_help)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        payload = args.handler(args)
        failed = False
    except DomainFailure as exc:
        payload = exc.payload
        failed = True
    except (ValueError, AssertionError, OSError, MemoryError) as exc:
        # AssertionError: an internal consistency check failed; OSError: an
        # unreadable input file; MemoryError: a field too large for this host
        sys.stderr.write(f"error: {exc}\n")
        return 1
    elapsed = time.perf_counter() - start
    try:
        modulus = _hex(make_field(args.m, getattr(args, "modulus", None)).modulus)
    except ValueError:  # no field of this degree: the envelope says null
        modulus = None
    report = {
        "command": args.command,
        "m": args.m,
        "modulus": modulus,
        "elapsed_s": round(elapsed, 6),
        "payload": payload,
    }
    _emit(report, args.format)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
