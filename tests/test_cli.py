import dataclasses
import errno
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from copula_lab import (
    BoundCheckResult,
    ChainSample,
    Frechet,
    Marginal,
    empirical_lag_stats,
    parse_spec,
    read_grid_csv,
    sample_chain,
    spec_to_json,
)
from copula_lab import bounds, chains, cli, coefficients, grid
from copula_lab.cli import parse_lag_list, run

FRECHET_JSON = '{"type": "frechet", "a": 0.2, "b": 0.3}\n'
MIX_JSON = (
    '{"type": "mixture", "weights": [0.5, 0.5],'
    ' "components": [{"type": "m"}, {"type": "independence"}]}\n'
)


@pytest.fixture
def frechet_file(tmp_path):
    p = tmp_path / "frechet.json"
    p.write_text(FRECHET_JSON)
    return str(p)


@pytest.fixture
def mixture_file(tmp_path):
    p = tmp_path / "mix.json"
    p.write_text(MIX_JSON)
    return str(p)


# --- lag list parsing ---------------------------------------------------------

def test_parse_lag_list_forms():
    assert parse_lag_list("1..5") == [1, 2, 3, 4, 5]
    assert parse_lag_list("3") == [3]
    assert parse_lag_list("1,2,8") == [1, 2, 8]
    assert parse_lag_list("2..2") == [2]
    assert parse_lag_list("1,3..5,9") == [1, 3, 4, 5, 9]


def test_parse_lag_list_rejects_bad_input():
    from copula_lab import ValidationError

    for text in ("5..1", "a", "", "1,1", "2,1", "0", "1..x", "-3"):
        with pytest.raises(ValidationError):
            parse_lag_list(text)


# --- discretize ----------------------------------------------------------------

def test_discretize_writes_grid_and_manifest(tmp_path, frechet_file):
    out = str(tmp_path / "grid.csv")
    assert run(["discretize", "--spec", frechet_file, "--n", "8", "--out", out]) == 0
    g = read_grid_csv(out)
    assert g.resolution == 8
    manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "discretize"
    assert manifest["parameters"]["n"] == 8
    assert manifest["outputs"] == [out]
    assert len(manifest["spec_digest"]) == 64


def test_manifest_digest_stable_across_json_formatting(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"type": "frechet", "a": 0.2, "b": 0.3}')
    b.write_text('{"b": 0.3,  "a": 0.2, "type": "frechet"}\n')
    out_a = str(tmp_path / "ga.csv")
    out_b = str(tmp_path / "gb.csv")
    assert run(["discretize", "--spec", str(a), "--n", "4", "--out", out_a]) == 0
    assert run(["discretize", "--spec", str(b), "--n", "4", "--out", out_b]) == 0
    da = json.loads((tmp_path / "ga.csv.manifest.json").read_text())["spec_digest"]
    db = json.loads((tmp_path / "gb.csv.manifest.json").read_text())["spec_digest"]
    assert da == db


# --- coeffs ----------------------------------------------------------------------

def test_coeffs_csv_five_rows(tmp_path, frechet_file):
    out = str(tmp_path / "coeffs.csv")
    code = run(
        ["coeffs", "--spec", frechet_file, "--n", "64", "--lags", "1..5", "--out", out]
    )
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "lag,rho,phi,beta,psi_prime,psi,n"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "1"
    assert abs(float(first[1]) - 0.5) < 1e-9
    assert all(line.endswith(",64") for line in lines[1:])


def test_coeffs_rerun_byte_identical(tmp_path, frechet_file):
    out1 = str(tmp_path / "c1.csv")
    out2 = str(tmp_path / "c2.csv")
    assert run(["coeffs", "--spec", frechet_file, "--n", "16", "--out", out1]) == 0
    assert run(["coeffs", "--spec", frechet_file, "--n", "16", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_coeffs_missing_spec_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "c.csv")
    code = run(["coeffs", "--spec", str(tmp_path / "missing.json"), "--out", out])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage"


# --- verify ------------------------------------------------------------------------

def test_verify_mixture_rho_exit_zero(tmp_path, mixture_file):
    out = str(tmp_path / "verify.json")
    code = run(
        [
            "verify", "--theorem", "mixture-rho", "--spec", mixture_file,
            "--m", "2", "--n", "16", "--out", out,
        ]
    )
    assert code == 0
    payload = json.loads(open(out).read())
    assert len(payload) == 1
    res = payload[0]
    assert res["theorem_id"] == "mixture-rho"
    assert res["satisfied"] is True
    assert abs(res["bound"] - 0.75) < 1e-12
    assert (tmp_path / "verify.json.manifest.json").exists()


def test_verify_stdout_mode(frechet_file, capsys):
    code = run(
        ["verify", "--theorem", "density-psi-prime", "--spec", frechet_file, "--n", "16"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["theorem_id"] == "density-psi-prime"
    assert payload[0]["satisfied"] is True


def test_verify_not_applicable_exits_zero(tmp_path, capsys):
    spec = tmp_path / "m.json"
    spec.write_text('{"type": "m"}')
    code = run(
        ["verify", "--theorem", "density-psi-prime", "--spec", str(spec), "--n", "8"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["not_applicable"] is True


def test_verify_tuple_decomposition_needs_mixture(frechet_file, capsys):
    code = run(
        ["verify", "--theorem", "tuple-decomposition", "--spec", frechet_file]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert "mixture" in err["message"]


@pytest.mark.parametrize("theorem", ["mixture-rho", "tuple-decomposition"])
def test_verify_tuple_exponent_budget(theorem, tmp_path, capsys, monkeypatch):
    # (m + 1) * log2(n) = 401 * 3 > 1022: tuple entries near 8^-401 would
    # fall below the smallest normal double. Refused before discretizing.
    spec = tmp_path / "one.json"
    spec.write_text(
        '{"type": "mixture", "weights": [1.0],'
        ' "components": [{"type": "frechet", "a": 0.2, "b": 0.3}]}'
    )
    monkeypatch.setattr(bounds, "discretize", None)
    code = run(
        ["verify", "--theorem", theorem, "--spec", str(spec), "--m", "400", "--n", "8"]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert "exponent budget" in err["message"]


def test_verify_exponential_rate(frechet_file, capsys):
    code = run(
        ["verify", "--theorem", "exponential-rate", "--spec", frechet_file, "--n", "16"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    res = payload[0]
    assert res["satisfied"] is True
    assert abs(res["measured"] - 0.5) < 1e-9
    assert len(res["witness"]["rows"]) == 5


def test_verify_psi_divergence_rows(frechet_file, capsys):
    code = run(
        [
            "verify", "--theorem", "psi-divergence", "--spec", frechet_file,
            "--m", "2", "--eps-list", "0.1,0.01",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["bound"] for r in payload] == [2.25, 24.75]
    assert all(r["satisfied"] for r in payload)


def test_verify_unsatisfied_exits_one(frechet_file, capsys, monkeypatch):
    # No honest input can violate a proven bound, so force a failing
    # result to pin the exit-code mapping.
    fake = BoundCheckResult(
        theorem_id="density-psi-prime", m=1, bound=0.5, measured=0.1, satisfied=False
    )
    monkeypatch.setattr(bounds, "verify_density_bound", lambda *a, **k: fake)
    code = run(
        ["verify", "--theorem", "density-psi-prime", "--spec", frechet_file]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["satisfied"] is False


@pytest.mark.parametrize("theorem", bounds.THEOREM_IDS)
def test_verify_malformed_eps_list_is_validation_error(theorem, frechet_file, capsys):
    code = run(["verify", "--theorem", theorem, "--spec", frechet_file, "--eps-list", "zz"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert "epsilon" in err["message"]


def test_verify_unknown_theorem_is_usage_error(frechet_file, capsys):
    code = run(["verify", "--theorem", "fermat", "--spec", frechet_file])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_numerical_error_exits_three(frechet_file, capsys, monkeypatch):
    from copula_lab import NumericalError

    def boom(*a, **k):
        raise NumericalError("svd did not converge")

    monkeypatch.setattr(bounds, "verify_density_bound", boom)
    code = run(
        ["verify", "--theorem", "density-psi-prime", "--spec", frechet_file]
    )
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "numerical"


def test_rho_eigensolver_failure_exits_three(tmp_path, frechet_file, capsys, monkeypatch):
    def no_convergence(*a, **k):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    out = tmp_path / "c.csv"
    code = run(["coeffs", "--spec", frechet_file, "--n", "8", "--lags", "1", "--out", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"
    assert "eigvalsh" in err["message"]
    assert not out.exists()


# --- simulate + lagstats -------------------------------------------------------------

def test_simulate_then_lagstats_pipeline(tmp_path, frechet_file):
    chain = str(tmp_path / "chain.csv")
    code = run(
        [
            "simulate", "--spec", frechet_file, "--steps", "20000",
            "--seed", "12345", "--out", chain,
        ]
    )
    assert code == 0
    lines = open(chain).read().splitlines()
    assert len(lines) == 20000

    out = str(tmp_path / "stats.json")
    code = run(
        ["lagstats", "--in", chain, "--lag", "1", "--grid-n", "8",
         "--ranks", "no", "--out", out]
    )
    assert code == 0
    payload = json.loads(open(out).read())
    sample = sample_chain(Frechet(a=0.2, b=0.3), 20000, 12345)
    want = empirical_lag_stats(sample, 1, 8, use_ranks=False)
    assert payload["pairs"] == want.pairs
    assert payload["freq_equal"] == want.freq_equal
    assert payload["freq_reflected"] == want.freq_reflected
    assert np.array_equal(np.array(payload["counts"]), want.counts)


def test_simulate_writer_matches_per_value_format(tmp_path, frechet_file, monkeypatch):
    spec = Frechet(a=0.2, b=0.3)
    edge = [0.0, 2.0**-53, 1.0 - 2.0**-53, 5e-324, 2.2250738585072014e-308 / 3]
    exp = sample_chain(spec, 300, 4, "exp:1.5").values
    normal = sample_chain(spec, 300, 4, "normal:-1,2").values
    values = np.concatenate([edge, exp, normal])
    fake = ChainSample(values=values, seed=0, spec=spec, marginal=Marginal(kind="uniform"))
    monkeypatch.setattr(cli, "sample_chain", lambda *a, **k: fake)
    out = tmp_path / "chain.csv"
    args = ["simulate", "--spec", frechet_file, "--steps", "3", "--seed", "1"]
    assert run(args + ["--out", str(out)]) == 0
    expected = "".join(format(v, ".17g") + "\n" for v in values)
    assert out.read_text(encoding="ascii") == expected


def test_coeffs_writer_matches_per_value_format(tmp_path, frechet_file, monkeypatch):
    real = cli.report
    edge = [0.0, 2.0**-53, 1.0 - 2.0**-53, 5e-324, 1.0 / 3]

    def edged(spec, n, lags):
        rep = real(spec, n, lags)
        first = dataclasses.replace(
            rep.rows[0], rho=edge[0], phi=edge[1], beta=edge[2], psi_prime=edge[3], psi=edge[4]
        )
        return dataclasses.replace(rep, rows=(first,) + rep.rows[1:])

    monkeypatch.setattr(cli, "report", edged)
    out = tmp_path / "coeffs.csv"
    assert run(["coeffs", "--spec", frechet_file, "--n", "8", "--lags", "1..3", "--out", str(out)]) == 0
    rep = edged(Frechet(a=0.2, b=0.3), 8, [1, 2, 3])
    expected = "lag,rho,phi,beta,psi_prime,psi,n\n" + "".join(
        ",".join(
            [str(row.lag)]
            + [format(v, ".17g") for v in (row.rho, row.phi, row.beta, row.psi_prime, row.psi)]
            + ["8"]
        )
        + "\n"
        for row in rep.rows
    )
    assert out.read_text(encoding="ascii") == expected


def test_simulate_byte_identical_reruns(tmp_path, frechet_file):
    c1 = str(tmp_path / "c1.csv")
    c2 = str(tmp_path / "c2.csv")
    args = ["simulate", "--spec", frechet_file, "--steps", "500", "--seed", "7"]
    assert run(args + ["--out", c1]) == 0
    assert run(args + ["--out", c2]) == 0
    assert open(c1, "rb").read() == open(c2, "rb").read()


def test_simulate_round_trips_values_exactly(tmp_path, frechet_file):
    chain = str(tmp_path / "chain.csv")
    run(["simulate", "--spec", frechet_file, "--steps", "200", "--seed", "3",
         "--out", chain])
    values = np.array([float(v) for v in open(chain).read().split()])
    direct = sample_chain(Frechet(a=0.2, b=0.3), 200, 3)
    assert np.array_equal(values, direct.values)


def test_lagstats_ranks_auto_equals_yes(tmp_path, frechet_file):
    chain = str(tmp_path / "chain.csv")
    run(["simulate", "--spec", frechet_file, "--steps", "2000", "--seed", "9",
         "--marginal", "exp:1.0", "--out", chain])
    out_auto = str(tmp_path / "auto.json")
    out_yes = str(tmp_path / "yes.json")
    assert run(["lagstats", "--in", chain, "--lag", "1", "--out", out_auto]) == 0
    assert run(["lagstats", "--in", chain, "--lag", "1", "--ranks", "yes",
                "--out", out_yes]) == 0
    a = json.loads(open(out_auto).read())
    y = json.loads(open(out_yes).read())
    assert a["counts"] == y["counts"]
    assert a["freq_equal"] == y["freq_equal"]


def test_lagstats_rejects_non_numeric_chain(tmp_path, capsys):
    chain = tmp_path / "bad.csv"
    chain.write_text("0.5\nmoose\n0.7\n")
    code = run(["lagstats", "--in", str(chain), "--lag", "1",
                "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


def _lagstats_of(tmp_path, text: str, newline: str = "\n") -> int:
    chain = tmp_path / "chain.csv"
    chain.write_bytes(text.replace("\n", newline).encode("ascii"))
    return run(["lagstats", "--in", str(chain), "--lag", "1", "--grid-n", "2",
                "--out", str(tmp_path / "stats.json")])


def test_lagstats_skips_blank_lines_and_padding(tmp_path):
    assert _lagstats_of(tmp_path, "0.1\n0.5\n0.9\n0.3\n") == 0
    plain = (tmp_path / "stats.json").read_bytes()
    assert _lagstats_of(tmp_path, "\n  0.1\n\n\t0.5  \n \n0.9\n0.3\n\n") == 0
    assert (tmp_path / "stats.json").read_bytes() == plain
    assert _lagstats_of(tmp_path, "0.1\n0.5\n0.9\n0.3\n", newline="\r\n") == 0
    assert (tmp_path / "stats.json").read_bytes() == plain


@pytest.mark.parametrize(
    "text, line",
    [("0.1 0.2\n0.5\n0.9\n", 1), ("0.5\n\n0.7\n\nmoose\nfoo\n", 5), ("0.5\r\n\r\n1,5\r\n", 3)],
    ids=["inner-space", "blank-lines-count", "crlf"],
)
def test_lagstats_names_the_first_bad_line(tmp_path, capsys, text, line):
    assert _lagstats_of(tmp_path, text) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert err["message"].endswith(f"non-numeric line {line}")


def _parse_loop(path: str) -> tuple[np.ndarray, str]:
    # The line-at-a-time parse lagstats used before np.fromiter.
    data = open(path, "rb").read()
    values = []
    for line in data.decode("ascii").splitlines():
        line = line.strip()
        if line:
            values.append(float(line))
    return np.array(values), hashlib.sha256(data).hexdigest()


def test_lagstats_parse_matches_the_line_loop(tmp_path, frechet_file, monkeypatch):
    chain = str(tmp_path / "chain.csv")
    assert run(["simulate", "--spec", frechet_file, "--steps", "100000", "--seed", "5",
                "--marginal", "normal:0.5,2", "--out", chain]) == 0
    out = tmp_path / "stats.json"
    argv = ["lagstats", "--in", chain, "--lag", "2", "--out", str(out)]
    outputs = []
    for parse in (cli._read_chain, _parse_loop):
        monkeypatch.setattr(cli, "_read_chain", parse)
        assert run(argv) == 0
        outputs.append((out.read_bytes(), (tmp_path / "stats.json.manifest.json").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("ranks", ["auto", "yes", "no"])
def test_lagstats_rejects_non_finite_chain_values(tmp_path, capsys, ranks):
    chain = tmp_path / "bad.csv"
    chain.write_text("0.5\nnan\n1.7\n-0.2\n0.3\n")
    out = tmp_path / "x.json"
    code = run(["lagstats", "--in", str(chain), "--lag", "1", "--ranks", ranks,
                "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"
    assert not out.exists()


def test_lagstats_without_ranks_rejects_values_outside_unit_interval(tmp_path, capsys):
    chain = tmp_path / "wide.csv"
    chain.write_text("0.5\n1.7\n-0.2\n0.3\n")
    argv = ["lagstats", "--in", str(chain), "--lag", "1", "--out", str(tmp_path / "x.json")]
    assert run(argv + ["--ranks", "no"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"
    assert run(argv + ["--ranks", "yes"]) == 0


def test_simulate_bad_marginal_is_validation_error(tmp_path, frechet_file, capsys):
    code = run(
        ["simulate", "--spec", frechet_file, "--steps", "10", "--seed", "1",
         "--marginal", "pareto:2", "--out", str(tmp_path / "c.csv")]
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


@pytest.mark.parametrize("marginal", ["exp:nan", "normal:nan,1", "normal:0,inf", "exp:inf"])
def test_simulate_non_finite_marginal_is_validation_error(tmp_path, frechet_file, capsys, marginal):
    out = tmp_path / "c.csv"
    code = run(
        ["simulate", "--spec", frechet_file, "--steps", "10", "--seed", "1",
         "--marginal", marginal, "--out", str(out)]
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"
    assert not out.exists()


# --- psi-divergence -------------------------------------------------------------------

def test_psi_divergence_subcommand(tmp_path):
    out = str(tmp_path / "div.json")
    code = run(
        ["psi-divergence", "--a", "0.2", "--b", "0.3", "--lags", "2",
         "--eps-list", "0.1,0.01", "--out", out]
    )
    assert code == 0
    payload = json.loads(open(out).read())
    assert payload["satisfied"] is True
    assert payload["diverges"] is True
    assert [r["lower_bound"] for r in payload["rows"]] == [2.25, 24.75]
    manifest = json.loads((tmp_path / "div.json.manifest.json").read_text())
    assert manifest["subcommand"] == "psi-divergence"


def test_psi_divergence_invalid_parameters(tmp_path, capsys):
    code = run(
        ["psi-divergence", "--a", "0.7", "--b", "0.7",
         "--out", str(tmp_path / "d.json")]
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


# --- spec parsing at the boundary -------------------------------------------------------

def test_spec_round_trip_through_files(tmp_path):
    spec = parse_spec(MIX_JSON)
    p = tmp_path / "round.json"
    p.write_text(spec_to_json(spec))
    out = str(tmp_path / "g.csv")
    assert run(["discretize", "--spec", str(p), "--n", "4", "--out", out]) == 0
    assert parse_spec(p.read_text()) == spec


def test_malformed_json_is_usage_error(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"type": "frechet", "a": 0.2')
    code = run(["coeffs", "--spec", str(p), "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_invalid_spec_parameters_is_validation_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"type": "frechet", "a": 0.7, "b": 0.7}')
    code = run(["coeffs", "--spec", str(p), "--out", str(tmp_path / "c.csv")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert "a + b <= 1 violated" in err["message"]


def _assert_validation_error(capsys, argv):
    assert run(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


def test_absurd_resolution_is_validation_error(tmp_path, frechet_file, capsys, monkeypatch):
    # cell_masses raising stands in for the 80 GB allocation of n = 100000.
    def allocate(self, n):
        raise AssertionError(f"cell masses requested at n={n}")

    monkeypatch.setattr(Frechet, "cell_masses", allocate)
    for command in ("discretize", "coeffs"):
        out = str(tmp_path / f"{command}.out")
        _assert_validation_error(
            capsys, [command, "--spec", frechet_file, "--n", "100000", "--out", out]
        )
        assert not os.path.exists(out)


def test_absurd_steps_is_validation_error(tmp_path, frechet_file, capsys, monkeypatch):
    # Philox raising stands in for the 7 PiB of words of 10^15 steps.
    def allocate(*a, **k):
        raise AssertionError("chain words allocated")

    monkeypatch.setattr(chains.np.random, "Philox", allocate)
    out = tmp_path / "chain.csv"
    for steps in (str(chains.MAX_STEPS + 1), "1000000000000000"):
        _assert_validation_error(
            capsys, ["simulate", "--spec", frechet_file, "--steps", steps, "--seed", "1",
                     "--out", str(out)]
        )
        assert not out.exists()


def test_absurd_lagstats_grid_is_validation_error(tmp_path, capsys, monkeypatch):
    # bincount raising stands in for the 75 GiB histogram of --grid-n 100000.
    def allocate(*a, **k):
        raise AssertionError("histogram allocated")

    monkeypatch.setattr(chains.np, "bincount", allocate)
    chain = tmp_path / "chain.csv"
    chain.write_text("0.1\n0.5\n0.9\n0.3\n")
    out = tmp_path / "stats.json"
    for grid_n in ("8193", "100000"):
        _assert_validation_error(
            capsys, ["lagstats", "--in", str(chain), "--lag", "1", "--grid-n", grid_n,
                     "--out", str(out)]
        )
        assert not out.exists()


def _bounded_range(*args):
    # Stands in for range() in parse_lag_list: a huge lag range fails
    # here instead of allocating.
    lags = range(*args)
    if len(lags) > grid.MAX_RESOLUTION:
        raise AssertionError(f"lag range of {len(lags)} built")
    return lags


def test_parse_lag_list_budget(monkeypatch):
    from copula_lab import ValidationError

    monkeypatch.setattr(cli, "range", _bounded_range, raising=False)
    top = grid.MAX_RESOLUTION
    assert parse_lag_list(f"{top}") == [top]
    assert parse_lag_list(f"1..{top}") == list(range(1, top + 1))
    assert parse_lag_list(f"1,{top - 1}..{top}") == [1, top - 1, top]
    for text in (f"{top + 1}", f"1..{top + 1}", "1..1000000000", "1000000000",
                 "-1000000000..5", f"1..{top},{top + 1}", "1000000000..1000000001"):
        with pytest.raises(ValidationError):
            parse_lag_list(text)


@pytest.mark.parametrize("lags", ["1..1000000000", "1000000000", "-1000000000..5"])
@pytest.mark.parametrize("command", ["coeffs", "psi-divergence"])
def test_absurd_lags_are_validation_errors(tmp_path, frechet_file, capsys, monkeypatch,
                                           command, lags):
    # A stub range() and discretize stand in for 10^9 ints and fold products.
    def walk(*a, **k):
        raise AssertionError("lag walk started")

    monkeypatch.setattr(cli, "range", _bounded_range, raising=False)
    monkeypatch.setattr(coefficients, "discretize", walk)
    monkeypatch.setattr(bounds, "discretize", walk)
    out = tmp_path / "out.json"
    if command == "coeffs":
        argv = ["coeffs", "--spec", frechet_file, "--n", "8"]
    else:
        argv = ["psi-divergence", "--a", "0.2", "--b", "0.3"]
    _assert_validation_error(capsys, argv + [f"--lags={lags}", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("max_lag", [str(grid.MAX_RESOLUTION + 1), "1000000000"])
def test_absurd_rate_horizon_is_validation_error(frechet_file, capsys, monkeypatch, max_lag):
    # discretize raising stands in for the walk of 10^9 fold products.
    def walk(*a, **k):
        raise AssertionError("rate table discretized")

    monkeypatch.setattr(bounds, "discretize", walk)
    _assert_validation_error(
        capsys, ["verify", "--theorem", "exponential-rate", "--spec", frechet_file,
                 "--n", "8", "--max-lag", max_lag]
    )
    with pytest.raises(bounds.ValidationError):
        bounds.exponential_rate_table(Frechet(a=0.2, b=0.3), 1, 8, int(max_lag))


def test_non_ascii_spec_is_validation_error(tmp_path, capsys):
    p = tmp_path / "spec.json"
    p.write_bytes('{"type": "frechet", "a": 0.2, "b": 0.3, "note": "é"}'.encode("utf-8"))
    _assert_validation_error(capsys, ["discretize", "--spec", str(p), "--n", "4",
                                      "--out", str(tmp_path / "g.csv")])


def test_non_ascii_grid_csv_is_validation_error(tmp_path, capsys):
    grid = tmp_path / "g.csv"
    grid.write_bytes(b"2\n0.25,0.25\n0.25,0.25\xff\n")
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps({"type": "grid", "path": str(grid)}))
    _assert_validation_error(capsys, ["discretize", "--spec", str(spec), "--n", "4",
                                      "--out", str(tmp_path / "o.csv")])


def test_non_ascii_chain_file_is_validation_error(tmp_path, capsys):
    chain = tmp_path / "chain.csv"
    chain.write_bytes(b"0.5\n0.25\xc3\xa9\n0.75\n")
    _assert_validation_error(capsys, ["lagstats", "--in", str(chain), "--lag", "1",
                                      "--out", str(tmp_path / "s.json")])


@pytest.mark.parametrize("depth", [600, 2000])
def test_deeply_nested_mixture_is_validation_error(tmp_path, capsys, depth):
    text = '{"type": "m"}'
    for _ in range(depth):
        text = '{"type": "mixture", "weights": [1.0], "components": [' + text + "]}"
    p = tmp_path / "deep.json"
    p.write_text(text)
    _assert_validation_error(capsys, ["discretize", "--spec", str(p), "--n", "4",
                                      "--out", str(tmp_path / "g.csv")])


def test_grid_spec_digest_changes_with_csv_content(tmp_path):
    grid = tmp_path / "g.csv"
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps({"type": "grid", "path": str(grid)}))
    digests = []
    for masses in ([[0.3, 0.2], [0.2, 0.3]], [[0.2, 0.3], [0.3, 0.2]]):
        grid.write_text("2\n" + "\n".join(",".join(map(str, row)) for row in masses) + "\n")
        out = str(tmp_path / "o.csv")
        assert run(["discretize", "--spec", str(spec), "--n", "4", "--out", out]) == 0
        digests.append(json.loads((tmp_path / "o.csv.manifest.json").read_text())["spec_digest"])
    assert digests[0] != digests[1]


def test_exponential_rate_past_the_rounding_floor_exits_zero(tmp_path, capsys):
    p = tmp_path / "fast.json"
    p.write_text('{"type": "frechet", "a": 0.05, "b": 0.05}')
    code = run(["verify", "--theorem", "exponential-rate", "--spec", str(p),
                "--n", "64", "--max-lag", "20"])
    assert code == 0
    res = json.loads(capsys.readouterr().out)[0]
    assert res["satisfied"] is True
    assert abs(res["measured"] - 0.1) < 1e-6
    assert len(res["witness"]["rows"]) == 20


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["transmogrify"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("discretize", "coeffs", "verify", "simulate", "lagstats"):
        assert name in out


# --- environment -----------------------------------------------------------------------

def test_thread_cap_env_is_applied_before_numpy():
    script = (
        "import os\n"
        "import copula_lab\n"
        "print(os.environ.get('OMP_NUM_THREADS', 'unset'))\n"
    )
    env = dict(os.environ, COPULA_LAB_THREADS="2")
    env.pop("OMP_NUM_THREADS", None)
    got = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert got.stdout.strip() == "2"
    env_auto = dict(os.environ, COPULA_LAB_THREADS="0")
    env_auto.pop("OMP_NUM_THREADS", None)
    got = subprocess.run(
        [sys.executable, "-c", script], env=env_auto, capture_output=True, text=True
    )
    assert got.stdout.strip() == "unset"
    # The program's own setting wins over a pre-set variable; "0" leaves it.
    for cap, want in (("2", "2"), ("0", "4")):
        env_preset = dict(os.environ, COPULA_LAB_THREADS=cap, OMP_NUM_THREADS="4")
        got = subprocess.run(
            [sys.executable, "-c", script], env=env_preset, capture_output=True, text=True
        )
        assert got.stdout.strip() == want


# --- atomic outputs -------------------------------------------------------------------

class _DiskFullAfter:
    """A text file that takes ``limit`` characters, then fails like a full disk."""

    def __init__(self, fh, limit):
        self._fh = fh
        self._room = limit

    def write(self, text):
        self._fh.write(text[: self._room])
        self._room -= min(len(text), self._room)
        if self._room == 0:
            self._fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        return len(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


@pytest.mark.parametrize(
    "argv",
    [
        ["discretize", "--spec", "{spec}", "--n", "16", "--out", "{out}"],
        ["coeffs", "--spec", "{spec}", "--n", "8", "--lags", "1..2", "--out", "{out}"],
        ["simulate", "--spec", "{spec}", "--steps", "200", "--seed", "3", "--out", "{out}"],
        ["verify", "--theorem", "density-psi-prime", "--spec", "{spec}", "--n", "8",
         "--out", "{out}"],
    ],
    ids=lambda argv: argv[0],
)
def test_failing_writer_leaves_no_partial_output(tmp_path, frechet_file, capsys, monkeypatch, argv):
    real_open = open
    monkeypatch.setattr(
        grid, "open", lambda *a, **k: _DiskFullAfter(real_open(*a, **k), 40), raising=False
    )
    out = tmp_path / "out" / "result"
    out.parent.mkdir()
    argv = [a.format(spec=frechet_file, out=out) for a in argv]
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "io", "message": "[Errno 28] No space left on device"}
    assert os.listdir(out.parent) == []
    # An earlier output stays whole when its replacement fails.
    out.write_text("earlier output\n")
    assert run(argv) == 2
    assert os.listdir(out.parent) == ["result"]
    assert out.read_text() == "earlier output\n"


def test_unwritable_output_is_reported_against_its_path(tmp_path, capsys):
    (tmp_path / "taken").mkdir()
    for out in (tmp_path / "missing" / "div.json", tmp_path / "taken"):
        assert run(["psi-divergence", "--a", "0.2", "--b", "0.3", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io"
        assert err["message"].endswith(repr(str(out)))
    assert os.listdir(tmp_path) == ["taken"]


# --- manifests -----------------------------------------------------------------------

def _manifest(out) -> dict:
    return json.loads(open(str(out) + ".manifest.json").read())


def test_verify_manifest_records_every_parameter(tmp_path, frechet_file):
    out = tmp_path / "v.json"
    manifests = []
    for max_lag in ("5", "6"):
        run(["verify", "--theorem", "exponential-rate", "--spec", frechet_file,
             "--n", "8", "--max-lag", max_lag, "--out", str(out)])
        manifests.append(_manifest(out))
    assert manifests[0] != manifests[1]
    assert manifests[0]["parameters"] == {
        "spec": frechet_file, "theorem": "exponential-rate", "m": 1, "n": 8,
        "max_lag": 5, "eps_list": "0.1,0.01", "ergodic_component": None,
    }


def test_manifest_parameter_keys(tmp_path, frechet_file):
    chain = str(tmp_path / "c.csv")
    runs = [
        ("discretize", ["--spec", frechet_file, "--n", "4"], {"spec", "n"}),
        ("coeffs", ["--spec", frechet_file, "--n", "4", "--lags", "1..2"], {"spec", "n", "lags"}),
        ("simulate", ["--spec", frechet_file, "--steps", "20", "--seed", "3"],
         {"spec", "steps", "seed", "marginal"}),
        ("lagstats", ["--in", chain, "--lag", "1"], {"in", "lag", "grid_n", "ranks"}),
        ("psi-divergence", ["--a", "0.2", "--b", "0.3"], {"a", "b", "lags", "eps_list"}),
    ]
    for command, argv, keys in runs:
        out = chain if command == "simulate" else str(tmp_path / f"{command}.out")
        assert run([command, *argv, "--out", out]) == 0
        manifest = _manifest(out)
        assert manifest["subcommand"] == command
        assert set(manifest["parameters"]) == keys
        assert manifest["outputs"] == [out]
