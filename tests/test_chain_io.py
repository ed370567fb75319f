"""Chain files written and read in blocks: bytes, parse semantics and memory."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from copula_lab import Frechet, cli, discretize, sample_chain, write_grid_csv
from copula_lab.cli import run
from copula_lab.families import _REGISTRY

FAMILY_SPECS = {
    "independence": {"type": "independence"},
    "w": {"type": "w"},
    "m": {"type": "m"},
    "frechet": {"type": "frechet", "a": 0.2, "b": 0.3},
    "mardia": {"type": "mardia", "theta": -0.4},
    "marshall-olkin": {"type": "marshall-olkin", "a": 0.3, "b": 0.6},
    "mixture": {
        "type": "mixture",
        "weights": [0.3, 0.3, 0.4],
        "components": [{"type": "frechet", "a": 0.2, "b": 0.5}, {"type": "m"},
                       {"type": "marshall-olkin", "a": 0.3, "b": 0.6}],
    },
    "grid": {"type": "grid", "path": "grid.csv"},
}
MARGINALS = ["uniform", "exp:1.5", "normal:-1,2"]
BLOCK = 8


def _old_format(values: np.ndarray) -> str:
    # simulate's formatter before it wrote in blocks.
    values = values.tolist()
    return ("%.17g\n" * len(values)) % tuple(values)


def test_family_specs_cover_the_registry():
    assert {spec["type"] for spec in FAMILY_SPECS.values()} == set(_REGISTRY)


@pytest.fixture
def spec_files(tmp_path):
    write_grid_csv(discretize(Frechet(a=0.2, b=0.3), 4), str(tmp_path / "grid.csv"))
    files = {}
    for name, spec in FAMILY_SPECS.items():
        if name == "grid":
            spec = dict(spec, path=str(tmp_path / "grid.csv"))
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(spec))
    return files


@pytest.mark.parametrize("marginal", MARGINALS)
@pytest.mark.parametrize("name", list(FAMILY_SPECS))
def test_simulate_blocks_match_the_whole_chain_format(tmp_path, spec_files, monkeypatch,
                                                      name, marginal):
    monkeypatch.setattr(cli, "_FORMAT_BLOCK", BLOCK)
    spec = cli._load_spec(str(spec_files[name]))
    for steps in (2, BLOCK - 1, BLOCK, BLOCK + 1):
        out = tmp_path / f"chain-{steps}.csv"
        assert run(["simulate", "--spec", str(spec_files[name]), "--steps", str(steps),
                    "--seed", "17", "--marginal", marginal, "--out", str(out)]) == 0
        want = _old_format(sample_chain(spec, steps, 17, marginal).values)
        assert out.read_bytes() == want.encode("ascii")


def _whole_parse(data: bytes) -> tuple[np.ndarray, str]:
    lines = data.decode("ascii").splitlines()
    values = np.array([float(line) for line in lines if line.strip()], dtype=float)
    return values, hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "data",
    [
        b"0.1\r\n0.5\r\n0.9\r\n0.3\r\n",
        b"0.1\r0.5\r\n\r0.9\n0.3\r",
        b"0.1\x0b0.5\x0c0.9\x1c0.3\x1d0.7\x1e0.2\n",
        b"\n  0.1\n\n\t0.5  \n \n0.9\n0.3",
        b"0.25",
        b"0.1\r0.2\r0.3",
        b"",
    ],
    ids=["crlf", "lone-cr", "other-line-ends", "no-trailing-newline", "one-line",
         "no-newline", "empty"],
)
def test_block_parse_matches_the_whole_text(tmp_path, monkeypatch, data):
    path = tmp_path / "chain.csv"
    path.write_bytes(data)
    want_values, want_digest = _whole_parse(data)
    assert want_digest == hashlib.sha256(data).hexdigest()
    # Block sizes 1..7 put every boundary, CR/LF pairs included, inside a block.
    for block in range(1, 8):
        monkeypatch.setattr(cli, "_READ_BLOCK", block)
        values, digest = cli._read_chain(str(path))
        assert np.array_equal(values, want_values) and digest == want_digest


def _lagstats_error(tmp_path, capsys, data: bytes) -> tuple[str, str]:
    path = tmp_path / "chain.csv"
    path.write_bytes(data)
    assert run(["lagstats", "--in", str(path), "--lag", "1",
                "--out", str(tmp_path / "stats.json")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert not (tmp_path / "stats.json").exists()
    return str(path), err["message"]


def test_bad_line_in_a_later_block_is_numbered_with_blank_lines(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_READ_BLOCK", 4)
    data = b"0.5\n\n0.7\r\n\r\n0.25\n\n0.125\nmoose\n0.5\n"
    path, message = _lagstats_error(tmp_path, capsys, data)
    assert message == f"chain file {path!r}: non-numeric line 8"


def test_non_ascii_in_a_later_block_names_its_file_position(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_READ_BLOCK", 4)
    data = b"0.5\n0.25\n0.75\n0.125\n0.2\xc3\xa95\n0.5\n"
    try:
        data.decode("ascii")
    except UnicodeDecodeError as exc:
        cause = exc
    path, message = _lagstats_error(tmp_path, capsys, data)
    assert "position 23" in str(cause)
    assert message == f"{path!r} is not ASCII text: {cause}"


def test_chain_parse_memory_is_bounded_by_the_array(tmp_path):
    path = tmp_path / "chain.csv"
    values = sample_chain(Frechet(a=0.45, b=0.5), 10**6, 5, "exp:1.0").values
    path.write_text(_old_format(values), encoding="ascii")
    del values
    tracemalloc.start()
    try:
        parsed, _ = cli._read_chain(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.size == 10**6
    assert peak < 4 * parsed.nbytes, peak / parsed.nbytes


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_write_adds_little_to_the_sampling_peak(tmp_path):
    spec = tmp_path / "frechet.json"
    spec.write_text('{"type": "frechet", "a": 0.45, "b": 0.5}')
    steps, seed, marginal = 200_000, 3, "exp:1.0"
    sampled = _traced_peak(lambda: sample_chain(Frechet(a=0.45, b=0.5), steps, seed, marginal))
    argv = ["simulate", "--spec", str(spec), "--steps", str(steps), "--seed", str(seed),
            "--marginal", marginal, "--out", str(tmp_path / "chain.csv")]
    simulated = _traced_peak(lambda: run(argv))
    array_bytes = 8 * steps
    assert simulated - sampled < 0.5 * array_bytes, (simulated - sampled) / array_bytes
