import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

from freeconv import cli
from freeconv.cli import main
from freeconv.errors import DomainError
from freeconv.inversion import GriddedDistribution
from freeconv.measures import Measure, semicircle_density


def run(args):
    return main(args)


def test_convolve_semicircle_halves(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code = run(["convolve", "--preset", "semicircle:0.5", "--preset",
                "semicircle:0.5", "--output", str(out), "--no-timestamp"])
    assert code == 0
    lines = out.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "re_z,im_z,re_g,im_g"
    # spot check one row against the unit semicircle transform
    row = [l for l in lines if not l.startswith("#")][1].split(",")
    z = complex(float(row[0]), float(row[1]))
    g = complex(float(row[2]), float(row[3]))
    from freeconv.complexfn import cauchy
    ref = complex(cauchy(Measure.semicircle(1.0), np.array([z]))[0])
    assert abs(g - ref) < 1e-9


def test_convolve_density_emits_distribution(tmp_path):
    out = tmp_path / "d.csv"
    code = run(["convolve", "--preset", "bernoulli", "--preset", "bernoulli",
                "--density", "--eta", "1e-3", "--points", "801",
                "--output", str(out), "--no-timestamp"])
    assert code == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "x,density,cdf"
    xs = np.array([float(r.split(",")[0]) for r in body[1:]])
    dens = np.array([float(r.split(",")[1]) for r in body[1:]])
    # arcsine on [-2, 2]: density at 0 is 1/(2 pi) after smoothing
    i0 = int(np.argmin(np.abs(xs)))
    assert dens[i0] == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-2)


def test_convolve_without_measures_is_config_error(capsys):
    assert run(["convolve", "--output", "-"]) == 1


def test_unknown_subcommand_is_config_error():
    assert run(["frobnicate"]) == 1


def test_distance_arcsine_semicircle(tmp_path):
    out = tmp_path / "dist.json"
    code = run(["distance", "--a", "arcsine", "--b", "semicircle",
                "--metric", "kolmogorov", "--output", str(out),
                "--no-timestamp"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-4)
    assert doc["config"]["command"] == "distance"


def test_distance_from_measure_file(tmp_path):
    mfile = tmp_path / "mu.json"
    mfile.write_text(Measure.bernoulli().to_json())
    out = tmp_path / "dist.json"
    code = run(["distance", "--a", str(mfile), "--b", "semicircle",
                "--metric", "kolmogorov", "--output", str(out),
                "--no-timestamp"])
    assert code == 0
    assert json.loads(out.read_text())["value"] > 0.1


@pytest.mark.parametrize("x, y, metric, expected", [
    (5.0, 6.0, "kolmogorov", 1.0),
    (5.0, 6.0, "levy", 1.0),
    (1e-4, 2e-4, "kolmogorov", 1.0),
    (1e-4, 2e-4, "levy", 1e-4),
    (0.3, 0.30001, "delta_eps", 1.0),
])
def test_distance_between_point_masses_is_exact(tmp_path, x, y, metric,
                                                expected):
    specs = []
    for name, pos in (("a", x), ("b", y)):
        path = tmp_path / f"{name}.json"
        path.write_text(Measure.point(pos).to_json())
        specs.append(str(path))
    out = tmp_path / "dist.json"
    code = run(["distance", "--a", specs[0], "--b", specs[1],
                "--metric", metric, "--output", str(out), "--no-timestamp"])
    assert code == 0
    value = json.loads(out.read_text())["value"]
    if expected == 1.0:
        assert value == 1.0
    else:
        assert value == pytest.approx(expected, rel=1e-12)


def test_distance_reads_convolve_density_csv(tmp_path):
    """The density CSV carries the config and timestamp lines before its
    own header; the bernoulli pair smoothed at eta = 1e-3 is the arcsine law
    up to the smoothing."""
    dens = tmp_path / "d.csv"
    assert run(["convolve", "--preset", "bernoulli", "--preset", "bernoulli",
                "--density", "--eta", "1e-3", "--points", "801",
                "--output", str(dens)]) == 0
    out = tmp_path / "dist.json"
    assert run(["distance", "--a", str(dens), "--b", "arcsine",
                "--output", str(out), "--no-timestamp"]) == 0
    assert json.loads(out.read_text())["value"] == pytest.approx(0.01833,
                                                                 abs=1e-4)


def test_support_command_reports_r_theta(tmp_path):
    out = tmp_path / "s.json"
    code = run(["support", "--preset", "bernoulli", "--n", "1024",
                "--weights", "uniform", "--points", "801",
                "--output", str(out), "--no-timestamp"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["r_theta"] == 0.375
    assert doc["preconditions_met"] is True


def test_sphere_command_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code = run(["sphere", "--n", "16", "--count", "10", "--seed", "3",
                    "--output", str(out), "--no-timestamp"])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_concentration_command(tmp_path):
    out = tmp_path / "c.json"
    code = run(["concentration", "--n", "16", "--samples", "2000",
                "--seed", "1", "--output", str(out), "--no-timestamp"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert "checks" in doc and doc["config"]["samples"] == 2000


def test_rates_command_small(tmp_path):
    out = tmp_path / "r.csv"
    code = run(["rates", "--preset", "bernoulli", "--n", "4,8,16",
                "--weights", "uniform", "--metric", "delta",
                "--points", "801", "--output", str(out), "--no-timestamp"])
    assert code == 0
    text = out.read_text()
    assert "slope[delta]" in text
    assert "n,rep,seed,weight_mode" in text


def test_residuals_command(tmp_path):
    out = tmp_path / "res.csv"
    code = run(["residuals", "--preset", "bernoulli", "--n", "8",
                "--seed", "2", "--grid-points", "9",
                "--output", str(out), "--no-timestamp"])
    assert code == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    vals = [float(r.split(",")[2]) for r in body[1:]]
    assert max(vals) < 1e-7


def test_output_to_unwritable_path_is_io_error(tmp_path):
    code = run(["sphere", "--n", "8", "--count", "1", "--seed", "0",
                "--output", str(tmp_path / "missing_dir" / "x.csv")])
    assert code == 3


@pytest.mark.parametrize("count, code", [(-3, 1), (0, 0)])
def test_sphere_negative_count_is_config_error(count, code, capsys):
    """As sample_matrix raises for a negative count; no rows is no error."""
    assert run(["sphere", "--n", "4", "--count", str(count),
                "--output", "-"]) == code
    assert ("config error" in capsys.readouterr().err) == (code == 1)


def test_failed_rename_removes_temp_file(tmp_path):
    """The artifact is written to a temp file beside the output path; when
    the rename onto the path fails, here because it is a directory, the
    temp file goes and the exit is an I/O error."""
    (tmp_path / "out").mkdir()
    code = run(["sphere", "--n", "4", "--count", "1", "--seed", "0",
                "--output", str(tmp_path / "out")])
    assert code == 3
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert not list((tmp_path / "out").iterdir())


def test_no_partial_output_on_failure(tmp_path, capsys):
    out = tmp_path / "never.csv"
    # z too close to an atom with an impossible tolerance forces exit 2
    code = run(["convolve", "--preset", "bernoulli", "--preset", "bernoulli",
                "--density", "--eta", "1e-6", "--points", "11",
                "--max-iters", "3", "--output", str(out)])
    assert code == 2
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "z=" in err
    assert re.search(r"residual \d\.\d+e[+-]\d+", err)


@pytest.mark.parametrize("argv", [
    ["sphere", "--n", "8"],
    ["concentration", "--n", "8"],
    ["distance", "--a", "arcsine", "--b", "semicircle"],
])
def test_solver_flags_rejected_where_nothing_is_solved(argv):
    assert run(argv + ["--tol", "1e-6", "--output", "-"]) == 1


def test_solver_flags_recorded_in_config(tmp_path):
    out = tmp_path / "r.csv"
    code = run(["rates", "--preset", "bernoulli", "--n", "4,8,16",
                "--metric", "delta", "--points", "201", "--tol", "1e-10",
                "--max-iters", "500", "--output", str(out), "--no-timestamp"])
    assert code == 0
    first = out.read_text().splitlines()[0]
    cfg = json.loads(first[len("# config: "):])
    assert cfg["tol"] == 1e-10 and cfg["max_iters"] == 500


@pytest.mark.parametrize("flag, value, field, default", [
    ("--tol", "1e-6", "max_iters", 10000),
    ("--max-iters", "400000", "tol", 1e-12),
])
def test_solver_flag_keeps_other_support_defaults(monkeypatch, flag, value,
                                                  field, default):
    seen = {}

    def fake_support(mu, theta, **kwargs):
        seen.update(kwargs)
        raise DomainError("stop after recording the options")

    monkeypatch.setattr(cli, "support_experiment", fake_support)
    code = run(["support", "--preset", "bernoulli", "--n", "16",
                flag, value, "--output", "-"])
    assert code == 1
    opts = seen["opts"]
    assert getattr(opts, field) == default
    assert getattr(opts, flag[2:].replace("-", "_")) == float(value)


def test_support_n_zero_is_config_error(capsys):
    code = run(["support", "--preset", "bernoulli", "--n", "0",
                "--output", "-"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["sphere", "concentration"])
def test_seed_outside_key_range_is_config_error(cmd, capsys):
    code = run([cmd, "--n", "8", "--seed", str(2**64), "--output", "-"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["inf", "nan", "1e308", "-1", "0"])
def test_bad_window_is_config_error(tmp_path, capsys, window):
    out = tmp_path / "never.csv"
    code = run(["convolve", "--preset", "bernoulli", "--window", window,
                "--output", str(out)])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_damping_flag_is_rejected():
    assert run(["convolve", "--preset", "bernoulli", "--damping", "0.5",
                "--output", "-"]) == 1


def test_timestamp_present_unless_suppressed(tmp_path):
    out = tmp_path / "t.json"
    run(["concentration", "--n", "8", "--samples", "1000", "--seed", "0",
         "--output", str(out)])
    assert "timestamp" in json.loads(out.read_text())
    run(["concentration", "--n", "8", "--samples", "1000", "--seed", "0",
         "--output", str(out), "--no-timestamp"])
    assert "timestamp" not in json.loads(out.read_text())


# SHA-256 of each form's --no-timestamp stdout, so a change to how any
# subcommand formats its artifact shows; "mu.json" is the bernoulli measure
# written to the working directory
GOLDEN = [
    ("857951c9f20c0edf6a1e397d20afb3346f52715e862f3c7d142e5c2b2bd82dc6",
     "convolve --preset semicircle:0.5 --preset semicircle:0.5 --points 21"),
    ("473472037aa2ceddc3fb3e65574a684ffb6aa94124d4034daa43b204788cb3f8",
     "convolve --preset bernoulli --preset bernoulli --density --eta 1e-3 "
     "--points 101"),
    ("ced3f063d0f3deb30778989a9cc8bb29ee386db90c63a94587e9ef12a6719d98",
     "distance --a arcsine --b semicircle"),
    ("39059a50c3d8298cb2ae10c7770a19ce3f42cba6d12bb980c83da5580b7a895e",
     "distance --a arcsine --b semicircle --metric levy"),
    ("49c55e549dc181bbdca1b80eb972101ae8aa30ba2671a99c972db61eb48d9389",
     "distance --a arcsine --b semicircle --metric delta_eps --eps 0.25"),
    ("78647687a6e05c41f0e145cce2b6034e519f52c8af199354d4158cdb08d5bf43",
     "distance --a mu.json --b semicircle"),
    ("fd1bfdf1ca27263b207e10df4851480d7bf5cb7611a39047518d281d5fd8ac29",
     "rates --preset bernoulli --n 4,8 --points 201"),
    ("44d073e31ff07ba9dc3e7232a93ee07920ce1fc2bd008f6126e6b66071c741f6",
     "rates --preset bernoulli --n 4,8 --points 201 --weights random "
     "--metric delta,levy --reps 2 --seed 3"),
    ("c8b65754dfe2a9f9d448dcf3b99be18b1390a8088c0356aa5b5b54df8836ee66",
     "support --preset bernoulli --n 16 --points 201"),
    ("f4e578fc7c0d09c44140aa0421dff92af488e5027365948eca590633dcf5e485",
     "support --preset bernoulli --n 16 --points 201 --weights random "
     "--seed 3"),
    ("e6c746dccff75cc7d6faa94797fd05f78b7a41d52444878469bbfd88b15cab7d",
     "residuals --preset bernoulli --n 4 --grid-points 9"),
    ("adbef229716af3b40848243c3c6bdf486cdfcdf16244240390a5a0036542a0db",
     "residuals --preset bernoulli --n 4 --grid-points 9 --weights uniform"),
    ("b8ba30ef98001d4e2a30e94953a853df4e8b62a90051be4360567010eca27a31",
     "sphere --n 4 --count 3 --seed 1"),
    ("a6443a90bb32bf26e5e79cd98ed903db4ab06de40489b62d6b93b5ccef2ff419",
     "sphere --n 0 --count 0"),
    ("de32d5ca41dac154e55480addc61873b947761685596dd67dd14c661bfb2031f",
     "concentration --n 8 --samples 1000 --seed 0"),
]


@pytest.mark.parametrize("digest, cmdline", GOLDEN,
                         ids=[c for _, c in GOLDEN])
def test_stdout_bytes_are_pinned(digest, cmdline, tmp_path, monkeypatch,
                                 capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mu.json").write_text(Measure.bernoulli().to_json())
    assert run(cmdline.split() + ["--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Malformed input from outside reaches each parser: every case raises
# DomainError naming the fault, and the CLI exits 1 with a config error.
@pytest.mark.parametrize("text, match", [
    ('{"kind": "semicircle"}', "float 'variance'"),
    ('{"kind": "atomic", "atoms": [{"x": 1.0}]}', "float 'w'"),
    ('{"kind": "atomic", "atoms": 5}', "list 'atoms'"),
    ("[1, 2]", "str 'kind'"),
], ids=["no-variance", "atom-without-w", "atoms-not-a-list", "list"])
def test_malformed_measure_json_is_config_error(text, match, tmp_path, capsys):
    with pytest.raises(DomainError, match=match):
        Measure.from_json(text)
    (tmp_path / "mu.json").write_text(text)
    assert run(["convolve", "--preset", str(tmp_path / "mu.json")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("name, match", [
    ("semicircleX", "unknown measure preset"),
    ("binomial", "unknown measure preset"),
    ("semicircle:", "needs a number"),
    ("binomial:half", "needs a number"),
])
def test_malformed_preset_is_config_error(name, match, capsys):
    with pytest.raises(DomainError, match=match):
        Measure.from_preset(name)
    assert run(["convolve", "--preset", name]) == 1
    assert "config error" in capsys.readouterr().err


_CSV_HEAD = "# eta=0.001 tail_mass=0\nx,density,cdf\n"


@pytest.mark.parametrize("text, match", [
    (_CSV_HEAD, "rows of x,density,cdf"),
    (_CSV_HEAD + "0,0.2\n", "rows of x,density,cdf"),
    ("# eta=0.001\nx,density,cdf\n0,0.2,0.4\n", "KeyError\\('tail_mass'\\)"),
    (_CSV_HEAD + "0,zero,0.4\n", "ValueError"),
    (_CSV_HEAD + "0,0.2,0.4\nnan,0.2,0.6\n", "finite values"),
    (_CSV_HEAD + "0,0.2,0.4\n0,0.2,0.6\n", "strictly increasing"),
], ids=["no-rows", "short-row", "no-tail-mass", "text", "nan-node", "repeated-node"])
def test_malformed_density_csv_is_config_error(text, match, tmp_path, capsys):
    with pytest.raises(DomainError, match=match):
        GriddedDistribution.from_csv(text)
    (tmp_path / "d.csv").write_text(text)
    assert run(["distance", "--a", str(tmp_path / "d.csv"), "--b", "semicircle"]) == 1
    assert "config error" in capsys.readouterr().err


def test_csv_timestamp_is_second_line(capsys):
    assert run(["sphere", "--n", "4", "--count", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1].startswith("# timestamp: ")


def test_density_at_tiny_eta_matches_semicircle(capsys):
    """At eta = 1e-16 the grid's outer points lie within rounding of the
    real axis outside [-2, 2]; the semicircle transform has no cut there."""
    code = run(["convolve", "--preset", "semicircle", "--density",
                "--eta", "1e-16", "--points", "11"])
    assert code == 0
    d = GriddedDistribution.from_csv(capsys.readouterr().out)
    assert d.grid.size == 11
    assert np.max(np.abs(d.density - semicircle_density(d.grid))) < 1e-12


@pytest.mark.parametrize("flag, value", [("--metric", "foo"),
                                         ("--reps", "0")])
def test_rates_rejects_bad_metric_and_reps(flag, value, capsys):
    code = run(["rates", "--preset", "bernoulli", "--n", "4,8",
                "--points", "201", flag, value])
    assert code == 1
    assert "config error" in capsys.readouterr().err
