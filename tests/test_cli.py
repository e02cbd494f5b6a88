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
from freeconv.measures import Measure


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
    ("b04dc532ef1e81034c2a6d23b4d9aa4a28fbd4746c706d7397dcc45188f876fe",
     "convolve --preset semicircle:0.5 --preset semicircle:0.5 --points 21"),
    ("14f53465b1aeecc6ca817c79caf8cee64962e560c7da4f487e1152a8faa4157d",
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
    ("8dd124909b9cd110e045945a3561eef3d94a3cd2ea2bd05ea47d9a12c70d5aee",
     "rates --preset bernoulli --n 4,8 --points 201"),
    ("49410464204b339c41f4d5df01e43cf93fa54b6a3eb3670b1201efef506f2794",
     "rates --preset bernoulli --n 4,8 --points 201 --weights random "
     "--metric delta,levy --reps 2 --seed 3"),
    ("c8b65754dfe2a9f9d448dcf3b99be18b1390a8088c0356aa5b5b54df8836ee66",
     "support --preset bernoulli --n 16 --points 201"),
    ("bf7109b6a0c265b80a5b73307cf5f347c7393c860ea8ef50a41e979c81864a4e",
     "support --preset bernoulli --n 16 --points 201 --weights random "
     "--seed 3"),
    ("0493f1c7015362cc87b95a27ff6036b8bdf48c9b194e4f2e650e5227cc6c2a09",
     "residuals --preset bernoulli --n 4 --grid-points 9"),
    ("c7f511741324ebebf9346fe407f0c4bed563b0a062c4791df76c98a08cd966aa",
     "residuals --preset bernoulli --n 4 --grid-points 9 --weights uniform"),
    ("5c69a25250d00f40efdddfc6ebfa56446abf991d0ba1ebba1939ceab83f0bd65",
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


def test_csv_timestamp_is_second_line(capsys):
    assert run(["sphere", "--n", "4", "--count", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1].startswith("# timestamp: ")


def test_branch_cut_failure_is_numerical(capsys):
    code = run(["convolve", "--preset", "semicircle", "--density",
                "--eta", "1e-16", "--points", "11"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--metric", "foo"),
                                         ("--reps", "0")])
def test_rates_rejects_bad_metric_and_reps(flag, value, capsys):
    code = run(["rates", "--preset", "bernoulli", "--n", "4,8",
                "--points", "201", flag, value])
    assert code == 1
    assert "config error" in capsys.readouterr().err
