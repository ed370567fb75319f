"""Command-line front end.

Subcommands: discretize, coeffs, verify, simulate, lagstats,
psi-divergence. Every file-producing run writes a manifest JSON next to
the output (``<out>.manifest.json``) recording the subcommand, a
content digest of the spec, every parsed parameter, the tool version
and the output paths, so results can be traced back to their inputs.
Each file is written whole or not at all (``grid.open_output``).

Exit codes: 0 success (and every checked bound satisfied or not
applicable), 1 at least one bound unsatisfied, 2 usage, validation or
output (io) error, 3 numerical failure or internal error. Errors are
emitted to stderr as a single machine-readable JSON line whose "error"
kind is usage (bad command line, unreadable input), validation,
io (an output or manifest could not be written), numerical or internal.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import THEOREM_IDS, psi_divergence_table, verify
from .chains import ChainSample, Marginal, empirical_lag_stats, sample_chain
from .coefficients import report
from .errors import NumericalError, OutputError, ValidationError
from .families import CopulaSpec, Frechet, parse_spec, spec_digest
from .grid import MAX_RESOLUTION, _require_lag, discretize, open_output, write_grid_csv

__all__ = ["run", "main", "parse_lag_list"]


# Chain files are written _FORMAT_BLOCK values and read _READ_BLOCK bytes
# at a time, so their text is never held whole.
_FORMAT_BLOCK = 1 << 16
_READ_BLOCK = 1 << 20


class UsageError(Exception):
    """Raised for malformed command lines (mapped to exit code 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def parse_lag_list(text: str) -> list[int]:
    """Parse lag syntax: comma-separated integers and inclusive A..B ranges.

    The combined list must be strictly ascending positive integers, at
    most ``grid.MAX_RESOLUTION`` of them and none above it. Ranges are
    sized against that budget before they are expanded.
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
            else:
                lo = hi = int(token)
        except ValueError as exc:
            raise ValidationError(f"bad lag token {token!r}") from exc
        if hi - lo >= MAX_RESOLUTION - len(lags):
            raise ValidationError(
                f"lag token {token!r} takes the list past {MAX_RESOLUTION} lags, "
                f"the lag budget"
            )
        lags.extend(range(lo, hi + 1))
    if not lags:
        raise ValidationError("lag list is empty")
    for lag in lags:
        if lag < 1:
            raise ValidationError(f"lags must be >= 1 (got {lag})")
    if any(b <= a for a, b in zip(lags, lags[1:])):
        raise ValidationError(f"lags must be strictly ascending (got {lags})")
    _require_lag(lags[-1], "lag")
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


def _write_text(path: str, text: str) -> None:
    with open_output(path) as fh:
        fh.write(text)


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


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
    _write_text(args.out, text)
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
    values = sample_chain(spec, args.steps, args.seed, args.marginal).values
    with open_output(args.out) as fh:
        for lo in range(0, len(values), _FORMAT_BLOCK):
            block = values[lo : lo + _FORMAT_BLOCK].tolist()
            fh.write(("%.17g\n" * len(block)) % tuple(block))
    _write_manifest(args, spec_digest(spec))
    return 0


def _read_chain_whole(path: str) -> tuple[np.ndarray, str]:
    """The values and SHA-256 of a chain file, parsed from its whole text.

    A non-ASCII byte is reported with its position in the file, and a
    bad line by its number with blank lines counted.
    """
    data = Path(path).read_bytes()
    lines = _decode_ascii(data, path).splitlines()
    try:
        values = np.fromiter(map(float, filter(None, map(str.strip, lines))), float)
    except ValueError:
        # Name the first bad line, counting blank lines.
        for k, line in enumerate(map(str.strip, lines), start=1):
            if line:
                try:
                    float(line)
                except ValueError as exc:
                    raise ValidationError(
                        f"chain file {path!r}: non-numeric line {k}"
                    ) from exc
        raise
    return values, hashlib.sha256(data).hexdigest()


def _chain_pieces(fh, sha) -> Iterator[str]:
    """The text of ``fh`` in pieces that end after a ``\\n`` (the last may not).

    Every block read is fed to ``sha``. A piece never splits a line, so
    ``str.splitlines`` of the pieces gives the lines of the whole text.
    """
    pending: list[bytes] = []
    while block := fh.read(_READ_BLOCK):
        sha.update(block)
        cut = block.rfind(b"\n") + 1
        if cut:
            pending.append(block[:cut])
            yield b"".join(pending).decode("ascii")
            pending = [block[cut:]]
        else:
            pending.append(block)
    yield b"".join(pending).decode("ascii")


def _read_chain(path: str) -> tuple[np.ndarray, str]:
    """The values of a chain file, one per line (blank lines skipped), and its SHA-256.

    The file is read and parsed one block at a time, so besides the
    values only one block's text and lines are held. A file that does
    not parse is read again whole by ``_read_chain_whole``, which names
    the fault.
    """
    sha = hashlib.sha256()
    try:
        with Path(path).open("rb") as fh:
            lines = itertools.chain.from_iterable(map(str.splitlines, _chain_pieces(fh, sha)))
            values = np.fromiter(map(float, filter(None, map(str.strip, lines))), float)
    except (UnicodeDecodeError, ValueError):
        return _read_chain_whole(path)
    return values, sha.hexdigest()


def _cmd_lagstats(args) -> int:
    values, digest = _read_chain(args.infile)
    sample = ChainSample(
        values=values, seed=0, spec=None, marginal=Marginal(kind="uniform")
    )
    del values  # the sample holds its own copy
    # "auto" uses ranks: a file carries no marginal provenance, and the
    # rank pipeline is correct for every marginal including uniform.
    use_ranks = args.ranks in ("auto", "yes")
    stats = empirical_lag_stats(sample, args.lag, args.grid_n, use_ranks=use_ranks)
    payload = dataclasses.asdict(stats)
    payload.update(counts=stats.counts.tolist(), use_ranks=use_ranks)
    _write_json(args.out, payload)
    _write_manifest(args, digest)
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
    except OutputError as exc:
        _emit_error("io", str(exc))
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
