"""Fuzz the command line: every input maps to a documented exit code.

Each example is one subcommand with its spec, grid and chain files and
its options, built from a Hypothesis-seeded random source (so a failure
replays from its seed). Values are mostly small valid ones, so most
runs get past parsing, and otherwise malformed; now and then a required
option is dropped or a stray argument added. Whatever the input,
``cli.run`` must return 0, 1, 2 or 3 and never report an ``internal``
error; an ``io`` error (an output that cannot be written) exits 2.
Sizes stay small (n <= 16, base lag <= 3, at most 300 chain steps), so
each run is cheap.
"""

import contextlib
import io
import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from copula_lab.cli import run

JUNK = ["", "x", "-1", "0", "nan", "inf", "1e999", "1..", "3..1", ",", "0x10", "\xe9"]
PARAMS = [0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1e-9, -0.4]
BAD_PARAMS = [float("nan"), float("inf"), -1.0, 2.0, 1.0 + 1e-12, "0.2", None, [0.1]]
GRID_CSVS = [
    "2\n0.25,0.25\n0.25,0.25\n",
    "2\n0.5,0\n0,0.5\n",
    "4\n" + "0.0625,0.0625,0.0625,0.0625\n" * 4,
    "2\n0.3,0.3\n0.2,0.2\n",
    "3\n0.1,0.1\n",
    "",
    "x\n",
    "2\nnan,0.5\n0.5,nan\n",
    "2\n0.25,0.25\n0.25,\xe9\n",
]
SPEC_JUNK = ["", "{", "null", "[]", "3", '"m"', '{"type": "gaussian"}',
             '{"type": "m", "extra": 1}', '{"type": "frechet", "a": 0.2}', "\xe9"]
WEIGHTS = [[1.0], [0.5, 0.5], [0.2, 0.3, 0.5], [0.4, 0.6]]
BAD_WEIGHTS = [[], [0.5, 0.6], [-0.5, 1.5], [float("nan"), 1.0], "0.5", [0.5, None]]
N = ["2", "3", "4", "8", "16"]
LAGS = ["1", "2", "1..3", "1,3", "2..2", "1,2,8"]
EPS = ["0.1,0.01", "0.1", "0.5,0.25", "0.01", "0,0.1", "1", "0.1,x"]
THEOREMS = ["density-psi-prime", "tuple-decomposition", "mixture-rho", "mixture-psi-prime",
            "mixture-phi", "mixture-beta", "exponential-rate", "psi-divergence"]
MARGINALS = ["uniform", "exp:1.5", "normal:0,1", "exp:nan", "normal:0,inf", "normal:1",
             "gamma:2", "exp:-1"]


def _pick(rnd, valid, junk=JUNK, p_junk=0.15):
    return rnd.choice(junk if rnd.random() < p_junk else valid)


def _param(rnd):
    roll = rnd.random()
    if roll < 0.6:
        return rnd.choice(PARAMS)
    return rnd.uniform(-0.25, 1.25) if roll < 0.9 else rnd.choice(BAD_PARAMS)


def _spec(rnd, grid_path: str, depth: int = 0) -> dict:
    # Mixtures weigh more: five of the eight verify theorems need one.
    kind = rnd.choice(["independence", "w", "m", "frechet", "mardia", "marshall-olkin",
                       "grid"] + ["mixture"] * 4)
    if kind == "mixture" and depth < 2:
        weights = _pick(rnd, WEIGHTS, BAD_WEIGHTS, 0.1)
        count = len(weights) if isinstance(weights, list) and weights else 2
        if rnd.random() < 0.1:
            count = rnd.randint(0, 3)
        components = [_spec(rnd, grid_path, depth + 1) for _ in range(count)]
        return {"type": "mixture", "weights": weights, "components": components}
    if kind in ("frechet", "marshall-olkin"):
        a = _param(rnd)
        b = _param(rnd) if kind == "marshall-olkin" or rnd.random() < 0.3 else (
            rnd.uniform(0.0, 1.0 - a) if isinstance(a, float) and 0.0 <= a <= 1.0 else 0.1
        )
        return {"type": kind, "a": a, "b": b}
    if kind == "mardia":
        return {"type": kind, "theta": _param(rnd)}
    if kind == "grid":
        return {"type": kind, "path": grid_path}
    return {"type": "m" if kind == "mixture" else kind}


def _options(rnd, command, spec, chain, out):
    """(flag, value, required) of each option of ``command``."""
    options = {
        "discretize": [("--spec", spec, True), ("--n", _pick(rnd, N), False)],
        "coeffs": [("--spec", spec, True), ("--n", _pick(rnd, N), False),
                   ("--lags", _pick(rnd, LAGS), False)],
        "verify": [("--theorem", _pick(rnd, THEOREMS, ["fermat"], 0.05), True),
                   ("--spec", spec, True),
                   ("--m", _pick(rnd, ["1", "2", "3"]), False), ("--n", _pick(rnd, N), False),
                   ("--max-lag", _pick(rnd, ["1", "4", "10"]), False),
                   ("--eps-list", _pick(rnd, EPS), False),
                   ("--ergodic-component", _pick(rnd, ["0", "1", "2", "5"]), False)],
        "simulate": [("--spec", spec, True),
                     ("--steps", _pick(rnd, ["2", "50", "300"]), True),
                     ("--seed", _pick(rnd, ["0", "7", str(2**63), str(2**64)]), True),
                     ("--marginal", _pick(rnd, MARGINALS), False)],
        "lagstats": [("--in", chain, True),
                     ("--lag", _pick(rnd, ["1", "2", "5", "59"]), True),
                     ("--grid-n", _pick(rnd, N + ["8193", "100000"]), False),
                     ("--ranks", _pick(rnd, ["auto", "yes", "no"]), False)],
        "psi-divergence": [("--a", _pick(rnd, ["0.2", "0", "0.5", "1e-9"]), True),
                           ("--b", _pick(rnd, ["0.3", "0", "0.6", "1"]), True),
                           ("--lags", _pick(rnd, LAGS), False),
                           ("--eps-list", _pick(rnd, EPS), False)],
    }[command]
    return options + [("--out", out, command != "verify")]


def _chain_text(rnd) -> str:
    roll = rnd.random()
    if roll < 0.8:
        values = [rnd.random() for _ in range(rnd.randint(0, 60))]
    elif roll < 0.9:
        values = [rnd.choice([0.5, -0.2, 1.7, float("nan"), float("inf")]) for _ in range(5)]
    else:
        return rnd.choice(["", "x\n", "0.5\n\xe9\n"])
    return "".join(f"{x!r}\n" for x in values)


def invocation(rnd, workdir: str):
    """Files to write and the argv of one fuzzed CLI run."""
    grid_path = os.path.join(workdir, "grid.csv")
    spec_path = os.path.join(workdir, "spec.json")
    chain_path = os.path.join(workdir, "chain.csv")
    spec_text = (rnd.choice(SPEC_JUNK) if rnd.random() < 0.1
                 else json.dumps(_spec(rnd, grid_path)))
    files = {grid_path: rnd.choice(GRID_CSVS), spec_path: spec_text,
             chain_path: _chain_text(rnd)}
    out = _pick(rnd, ["out.dat"], [os.path.join("missing", "out.dat"), ".", ""], 0.1)
    out = os.path.join(workdir, out) if out else out
    command = rnd.choice(
        ["discretize", "coeffs", "verify", "simulate", "lagstats", "psi-divergence"]
    )
    argv = [command]
    for flag, value, required in _options(rnd, command, spec_path, chain_path, out):
        if rnd.random() < (0.95 if required else 0.5):
            argv += [flag, value]
    if rnd.random() < 0.05:
        argv.insert(rnd.randint(0, len(argv)), rnd.choice(JUNK + ["--x"]))
    return files, argv


def test_cli_exit_codes_are_documented(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("fuzz"))

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.randoms(use_true_random=True))
    def check(rnd):
        files, argv = invocation(rnd, workdir)
        for path, text in files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert '"internal"' not in stderr.getvalue(), (argv, files, stderr.getvalue())
        if code == 3:
            assert json.loads(stderr.getvalue())["error"] == "numerical", argv
        if '{"error": "io"' in stderr.getvalue():
            assert code == 2, (argv, code)

    check()
