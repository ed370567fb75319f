"""Command-line front end.

Subcommands: discretize, coeffs, verify, simulate, lagstats,
psi-divergence. Every file-producing run writes a manifest JSON next to
the output (``<out>.manifest.json``) recording the subcommand, a
content digest of the spec, every parsed parameter, the tool version
and the output paths, so results can be traced back to their inputs.

Exit codes: 0 success (and every checked bound satisfied or not
applicable), 1 at least one bound unsatisfied, 2 usage or validation
error, 3 numerical failure or internal error. Errors are emitted to
stderr as a single machine-readable JSON line.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import THEOREM_IDS, psi_divergence_table, verify
from .chains import ChainSample, Marginal, empirical_lag_stats, sample_chain
from .coefficients import report
from .errors import NumericalError, ValidationError
from .families import CopulaSpec, Frechet, parse_spec, spec_digest
from .grid import discretize, write_grid_csv

__all__ = ["run", "main", "parse_lag_list"]


class UsageError(Exception):
    """Raised for malformed command lines (mapped to exit code 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def parse_lag_list(text: str) -> list[int]:
    """Parse lag syntax: comma-separated integers and inclusive A..B ranges.

    The combined list must be strictly ascending positive integers.
    """
    lags: list[int] = []
    for token in text.split(","):
        token = token.strip()
        try:
            if ".." in token:
                lo_text, hi_text = token.split("..", 1)
                lo, hi = int(lo_text), int(hi_text)
                if lo > hi:
                    raise ValidationError(f"empty lag range {token!r}")
                lags.extend(range(lo, hi + 1))
            else:
                lags.append(int(token))
        except ValueError as exc:
            raise ValidationError(f"bad lag token {token!r}") from exc
    if not lags:
        raise ValidationError("lag list is empty")
    for lag in lags:
        if lag < 1:
            raise ValidationError(f"lags must be >= 1 (got {lag})")
    if any(b <= a for a, b in zip(lags, lags[1:])):
        raise ValidationError(f"lags must be strictly ascending (got {lags})")
    return lags


def _parse_eps_list(text: str) -> list[float]:
    try:
        return [float(token) for token in text.split(",") if token.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad epsilon list {text!r}") from exc


def _decode_ascii(data: bytes, path: str) -> str:
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path!r} is not ASCII text: {exc}") from exc


def _load_spec(path: str) -> CopulaSpec:
    return parse_spec(_decode_ascii(Path(path).read_bytes(), path))


def _write_json(path: str, obj) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )


def _write_manifest(args, digest: str) -> None:
    """Write ``<out>.manifest.json``; it records every parsed argument."""
    parameters = {
        "in" if key == "infile" else key: value
        for key, value in vars(args).items()
        if key not in ("command", "handler", "out")
    }
    _write_json(
        args.out + ".manifest.json",
        {
            "subcommand": args.command,
            "spec_digest": digest,
            "parameters": parameters,
            "tool_version": __version__,
            "outputs": [args.out],
        },
    )


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_discretize(args) -> int:
    spec = _load_spec(args.spec)
    g = discretize(spec, args.n)
    write_grid_csv(g, args.out)
    _write_manifest(args, spec_digest(spec))
    return 0


def _cmd_coeffs(args) -> int:
    spec = _load_spec(args.spec)
    lags = parse_lag_list(args.lags)
    rep = report(spec, args.n, lags)
    text = "lag,rho,phi,beta,psi_prime,psi,n\n" + "".join(
        "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"
        % (row.lag, row.rho, row.phi, row.beta, row.psi_prime, row.psi, rep.resolution)
        for row in rep.rows
    )
    Path(args.out).write_text(text, encoding="ascii")
    _write_manifest(args, spec_digest(spec))
    return 0


def _cmd_verify(args) -> int:
    spec = _load_spec(args.spec)
    epsilons = _parse_eps_list(args.eps_list)
    results = verify(
        args.theorem, spec, args.m, args.n, max_lag=args.max_lag,
        epsilons=epsilons, ergodic_components=args.ergodic_component,
    )
    payload = [dataclasses.asdict(r) for r in results]
    if args.out:
        _write_json(args.out, payload)
        _write_manifest(args, spec_digest(spec))
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    sample = sample_chain(spec, args.steps, args.seed, args.marginal)
    values = sample.values.tolist()
    text = ("%.17g\n" * len(values)) % tuple(values)
    Path(args.out).write_text(text, encoding="ascii")
    _write_manifest(args, spec_digest(spec))
    return 0


def _cmd_lagstats(args) -> int:
    data = Path(args.infile).read_bytes()
    values = []
    for k, line in enumerate(_decode_ascii(data, args.infile).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise ValidationError(
                f"chain file {args.infile!r}: non-numeric line {k}"
            ) from exc
    sample = ChainSample(
        values=np.array(values), seed=0, spec=None, marginal=Marginal(kind="uniform")
    )
    # "auto" uses ranks: a file carries no marginal provenance, and the
    # rank pipeline is correct for every marginal including uniform.
    use_ranks = args.ranks in ("auto", "yes")
    stats = empirical_lag_stats(sample, args.lag, args.grid_n, use_ranks=use_ranks)
    payload = dataclasses.asdict(stats)
    payload.update(counts=stats.counts.tolist(), use_ranks=use_ranks)
    _write_json(args.out, payload)
    _write_manifest(args, hashlib.sha256(data).hexdigest())
    return 0


def _cmd_psi_divergence(args) -> int:
    lags = parse_lag_list(args.lags)
    table = psi_divergence_table(args.a, args.b, lags, _parse_eps_list(args.eps_list))
    _write_json(args.out, dataclasses.asdict(table))
    _write_manifest(args, spec_digest(Frechet(args.a, args.b)))
    return 0 if table.satisfied or table.not_applicable else 1


# ---------------------------------------------------------------------------
# Parser assembly


def _build_parser() -> _Parser:
    parser = _Parser(prog="copula-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discretize", help="project a copula spec onto an n x n grid")
    p.add_argument("--spec", required=True, help="path to a copula spec JSON file")
    p.add_argument("--n", type=int, default=64, help="grid resolution (default 64)")
    p.add_argument("--out", required=True, help="output grid CSV path")
    p.set_defaults(handler=_cmd_discretize)

    p = sub.add_parser("coeffs", help="mixing coefficients per lag")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--lags", default="1..5", help='e.g. "1..5" or "1,2,8"')
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser("verify", help="machine-check a theorem on a spec")
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p.add_argument("--spec", required=True)
    p.add_argument("--m", type=int, default=1, help="base lag (default 1)")
    p.add_argument("--n", type=int, default=64)
    p.add_argument(
        "--max-lag", type=int, default=None, help="rate table horizon (default 5m)"
    )
    p.add_argument(
        "--eps-list", default="0.1,0.01", help="band widths for psi-divergence"
    )
    p.add_argument(
        "--ergodic-component",
        type=int,
        action="append",
        default=None,
        help="assert a mixture component index is ergodic and aperiodic "
        "(repeatable; default: components with strictly positive grids)",
    )
    p.add_argument("--out", default=None, help="JSON output path (default stdout)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("simulate", help="sample a stationary chain")
    p.add_argument("--spec", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--marginal",
        default="uniform",
        help="uniform | exp:<rate> | normal:<mu>,<sigma>",
    )
    p.add_argument("--out", required=True, help="output CSV, one value per line")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("lagstats", help="empirical lag statistics of a chain file")
    p.add_argument("--in", dest="infile", required=True, help="chain CSV path")
    p.add_argument("--lag", type=int, required=True)
    p.add_argument("--grid-n", type=int, default=16)
    p.add_argument(
        "--ranks",
        choices=("auto", "yes", "no"),
        default="auto",
        help="rank-transform before binning; auto=yes (file marginal unknown)",
    )
    p.add_argument("--out", required=True, help="JSON output path")
    p.set_defaults(handler=_cmd_lagstats)

    p = sub.add_parser(
        "psi-divergence", help="psi lower-bound table for a Frechet family"
    )
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--lags", default="1", help='lags, e.g. "1..3"')
    p.add_argument("--eps-list", default="0.1,0.01")
    p.add_argument("--out", required=True, help="JSON output path")
    p.set_defaults(handler=_cmd_psi_divergence)

    return parser


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def run(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValidationError as exc:
        _emit_error("validation", str(exc))
        return 2
    except json.JSONDecodeError as exc:
        _emit_error("usage", f"malformed JSON: {exc}")
        return 2
    except OSError as exc:
        _emit_error("usage", str(exc))
        return 2
    except NumericalError as exc:
        _emit_error("numerical", str(exc))
        return 3
    except Exception as exc:  # pragma: no cover - last-resort mapping
        _emit_error("internal", f"{type(exc).__name__}: {exc}")
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
