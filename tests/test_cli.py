import importlib
import json
import math
import os

import numpy as np
import pytest

from vslice.cli import _parse, cli
from vslice.grid import GridSpec
from vslice.harness import Phantom, make_phantom, read_json, read_vsl
from vslice.invert_svd import svd_index_set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRID = "64x24x32"
BUMP_FLAGS = ["--phantom", "bump", "--n", "2", "--center", "0.3,-0.2,0.93",
              "--margin", "0.25"]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A phantom description plus its sinogram on a small grid."""
    d = tmp_path_factory.mktemp("cli")
    ph = d / "phantom.json"
    sino = d / "sino.vsl"
    assert cli(["phantom", *BUMP_FLAGS, "--out", str(ph)]) == 0
    assert cli(["forward", "--truth", str(ph), "--grid", GRID, "--out", str(sino)]) == 0
    return d, ph, sino


def test_usage_errors_exit_2(tmp_path, capsys):
    assert cli([]) == 2
    assert cli(["invert", "--method", "nope", "--in", "x.vsl"]) == 2
    assert cli(["invert", "--method", "john", "--in", "x.vsl", "--report", "r.json"]) == 2
    assert cli(["forward", "--phantom", "bump", "--n", "2", "--out", "s.vsl"]) == 2  # no center
    assert cli(["svd-table", "--band", "4"]) == 2  # no n
    assert cli(["selftest", "--criteria", "0,13"]) == 2
    # non-numeric list items and grid counts are usage errors too
    out = str(tmp_path / "s.vsl")
    assert cli(["selftest", "--criteria", "1,x"]) == 2
    assert cli(["forward", "--phantom", "even_constant", "--n", "2", "--grid", "12xfoox8",
                "--out", out]) == 2
    assert cli(["forward", "--phantom", "basis", "--n", "2", "--nu", "1,a,0", "--out", out]) == 2
    assert cli(["forward", "--phantom", "bump", "--n", "2", "--center", "0.1,b,0.9",
                "--out", out]) == 2
    assert not (tmp_path / "s.vsl").exists()
    # the backprojection kernel is sized from the grid; there is no resolution knob
    assert cli(["invert", "--method", "john", "--in", "x.vsl", "--resolution", "96"]) == 2
    cfg = tmp_path / "res.json"
    cfg.write_text(json.dumps({"method": "john", "infile": "x.vsl", "resolution": 96}))
    assert cli(["invert", "--config", str(cfg)]) == 2
    assert "resolution" in capsys.readouterr().err
    # config values pass through argparse's choices, like flags
    cfg.write_text(json.dumps({"phantom": "nope", "n": 2, "out": out}))
    assert cli(["forward", "--config", str(cfg)]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_missing_input_exits_1(tmp_path, capsys):
    assert cli(["invert", "--method", "john", "--in", str(tmp_path / "no.vsl")]) == 1
    err = capsys.readouterr().err
    assert "vslice: error" in err


def test_truncated_input_exits_1(artifacts, tmp_path, capsys):
    _, _, sino = artifacts
    cut = tmp_path / "cut.vsl"
    cut.write_bytes(sino.read_bytes()[:50])
    assert cli(["invert", "--method", "john", "--in", str(cut)]) == 1
    assert "vslice: error: truncated" in capsys.readouterr().err


def test_phantom_description_round_trip(artifacts):
    _, ph, _ = artifacts
    payload = read_json(str(ph))
    assert payload["n"] == 2
    assert payload["phantom"]["kind"] == "bump"
    assert payload["phantom"]["equator_margin"] == 0.25


def test_forward_writes_readable_sinogram(artifacts):
    _, _, sino = artifacts
    data, lam = read_vsl(str(sino))
    assert data.grid.spec.n_angular == 64
    assert math.isnan(lam)
    assert np.all(np.isfinite(data.values))


def test_invert_svd_report(artifacts, tmp_path, capsys):
    _, ph, sino = artifacts
    rep = tmp_path / "report.json"
    rc = cli(["invert", "--method", "svd", "--band", "8", "--in", str(sino),
              "--truth", str(ph), "--report", str(rep)])
    assert rc == 0
    body = read_json(str(rep))
    printed = json.loads(capsys.readouterr().out)
    assert printed["rel_l2_after_scale"] == body["rel_l2_after_scale"]
    assert body["method"] == "svd"
    assert body["rel_l2_after_scale"] < 0.2
    assert 0.9 < body["best_fit_scalar"] < 1.1


def test_invert_john_and_ac_reports(artifacts, tmp_path, capsys):
    _, ph, sino = artifacts
    out = tmp_path / "rec.vsl"
    rc = cli(["invert", "--method", "john", "--in", str(sino),
              "--truth", str(ph), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.startswith("wrote ")
    john = json.loads(printed.split("\n", 1)[1])
    assert john["rel_l2_after_scale"] < 0.1
    rec, _ = read_vsl(str(out))
    assert rec.grid.spec == read_vsl(str(sino))[0].grid.spec

    rc = cli(["invert", "--method", "ac", "--in", str(sino),
              "--truth", str(ph)])
    assert rc == 0
    ac = json.loads(capsys.readouterr().out)
    assert ac["rel_l2_after_scale"] < 0.1
    # the continuation constants are self-consistent, unlike the even-route scalar
    assert 0.9 < ac["best_fit_scalar"] < 1.1
    assert john["best_fit_scalar"] < 0


def test_invert_hs_flags(artifacts, capsys):
    _, ph, sino = artifacts
    rc = cli(["invert", "--method", "hs", "--rmax", "6",
              "--in", str(sino), "--truth", str(ph)])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["rel_l2_after_scale"] < 0.1
    assert 0.9 < body["best_fit_scalar"] < 1.1


def test_config_mirrors_flags(artifacts, tmp_path, capsys):
    d, ph, sino = artifacts
    cfg = tmp_path / "fwd.json"
    cfg.write_text(json.dumps({
        "phantom": "bump", "n": 2, "center": [0.3, -0.2, 0.93], "margin": 0.25,
        "grid": GRID, "out": str(tmp_path / "from_cfg.vsl"),
    }))
    assert cli(["forward", "--config", str(cfg)]) == 0
    assert (tmp_path / "from_cfg.vsl").read_bytes() == sino.read_bytes()

    # explicit flags win over the config
    assert cli(["forward", "--config", str(cfg), "--out", str(tmp_path / "o2.vsl")]) == 0
    assert (tmp_path / "o2.vsl").read_bytes() == sino.read_bytes()

    # configs may carry the package's JSON schema version, and no other
    body = json.loads(cfg.read_text())
    cfg.write_text(json.dumps(dict(body, schema_version=1, out=str(tmp_path / "v1.vsl"))))
    assert cli(["forward", "--config", str(cfg)]) == 0
    assert (tmp_path / "v1.vsl").read_bytes() == sino.read_bytes()
    for version in (2, True, 1.0):
        cfg.write_text(json.dumps(dict(body, schema_version=version, out=str(tmp_path / "v2.vsl"))))
        assert cli(["forward", "--config", str(cfg)]) == 2
        assert "schema version" in capsys.readouterr().err
        assert not (tmp_path / "v2.vsl").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus_key": 1}))
    assert cli(["forward", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bogus_key" in err


# (subcommand, config, the same values as command-line flags)
PARITY = [
    ("forward",
     {"phantom": "bump", "n": 2, "center": [-0.3, 0.2, 0.93], "width": 0.5, "margin": 0.25,
      "grid": GRID, "out": "s.vsl"},
     ["--phantom", "bump", "--n", "2", "--center=-0.3,0.2,0.93", "--width", "0.5",
      "--margin", "0.25", "--grid", GRID, "--out", "s.vsl"]),
    ("forward", {"truth": "p.json", "grid": "default", "out": "s.vsl"},
     ["--truth", "p.json", "--grid", "default", "--out", "s.vsl"]),
    ("phantom",
     {"phantom": "basis", "n": 3, "nu": [2, 1, 0], "lam": 1.5, "grid": "16x24x32",
      "out": "p.json", "vsl": "p.vsl"},
     ["--phantom", "basis", "--n", "3", "--nu", "2,1,0", "--lam", "1.5", "--grid", "16x24x32",
      "--out", "p.json", "--vsl", "p.vsl"]),
    ("phantom", {"phantom": "axial_power", "n": 2, "power": 1.5, "out": "p.json"},
     ["--phantom", "axial_power", "--n", "2", "--power", "1.5", "--out", "p.json"]),
    ("invert",
     {"method": "svd", "infile": "s.vsl", "out": "r.vsl", "truth": "p.json",
      "report": "r.json", "band": 6, "lam": 1.25, "eps": 0.05, "rmax": 6},
     ["--method", "svd", "--in", "s.vsl", "--out", "r.vsl", "--truth", "p.json",
      "--report", "r.json", "--band", "6", "--lam", "1.25", "--eps", "0.05", "--rmax", "6"]),
    ("svd-table", {"n": 3, "lam": 2.0, "band": 4, "out": "t.csv"},
     ["--n", "3", "--lam", "2.0", "--band", "4", "--out", "t.csv"]),
    ("selftest", {"criteria": [1, 9, 10]}, ["--criteria", "1,9,10"]),
]


@pytest.mark.parametrize("command, config, flags", PARITY)
def test_config_parses_like_flags(command, config, flags, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    from_config = vars(_parse([command, "--config", str(cfg)]))
    assert from_config.pop("config") == str(cfg)
    from_flags = vars(_parse([command, *flags]))
    assert from_flags.pop("config") is None
    assert from_config == from_flags


@pytest.mark.parametrize("command, config", [
    ("svd-table", {"n": 2.5, "band": 2.9}),
    ("invert", {"method": "svd", "infile": "x.vsl", "band": 4.7}),
    ("selftest", {"criteria": [10, 9.5]}),
    ("invert", {"method": "hs", "infile": "x.vsl", "rmax": True}),
    ("svd-table", {"n": 2, "band": 8.0}),
    ("forward", {"phantom": "bump", "n": 2, "center": [True, 0, 1], "out": "s.vsl"}),
    ("forward", {"phantom": "even_constant", "n": 2, "out": {"path": "s.vsl"}}),
    ("forward", {"phantom": "even_constant", "n": 2, "out": "s.vsl", "config": "c.json"}),
    ("selftest", {"help": True}),
])
def test_config_values_argparse_rejects_exit_2(command, config, tmp_path, monkeypatch):
    # the x.vsl inputs do not exist, so exit 2 comes from the parse, not a read
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli([command, "--config", str(cfg)]) == 2
    assert not (tmp_path / "s.vsl").exists()


def test_negative_first_list_value(tmp_path, capsys):
    ph = tmp_path / "p.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"phantom": "bump", "n": 2, "center": [-0.3, 0.2, 0.93],
                               "out": str(ph)}))
    assert cli(["phantom", "--config", str(cfg)]) == 0
    assert read_json(str(ph))["phantom"]["center"] == [-0.3, 0.2, 0.93]
    # on the command line the = form is needed; argparse reads -0.3,... as a flag
    flags = ["phantom", "--phantom", "bump", "--n", "2", "--out", str(ph)]
    assert cli([*flags, "--center=-0.3,0.2,0.93"]) == 0
    assert cli([*flags, "--center", "-0.3,0.2,0.93"]) == 2
    # null leaves a flag unset, so the bump lacks its center
    cfg.write_text(json.dumps({"phantom": "bump", "n": 2, "center": None, "out": str(ph)}))
    capsys.readouterr()
    assert cli(["phantom", "--config", str(cfg)]) == 2
    assert "needs --center" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2.9, 2.0, True])
def test_description_n_must_be_integer(n, tmp_path, capsys):
    ph = tmp_path / "p.json"
    ph.write_text(json.dumps({"schema_version": 1, "n": n,
                              "phantom": {"kind": "even_constant"}}))
    assert cli(["forward", "--truth", str(ph), "--grid", GRID,
                "--out", str(tmp_path / "s.vsl")]) == 1
    assert "field n" in capsys.readouterr().err
    assert not (tmp_path / "s.vsl").exists()


@pytest.mark.parametrize("body, field", [
    ({"schema_version": True, "n": 2,
      "phantom": {"kind": "bump", "center": [True, 0, "1"], "width": True}}, "schema_version"),
    ({"schema_version": 1, "n": 2, "phantom": {"kind": "bump", "center": [True, 0, 1]}}, "center"),
    ({"schema_version": 1, "n": 2, "phantom": {"kind": "bump", "center": [0, 0, "1"]}}, "center"),
    ({"schema_version": 1, "n": 2,
      "phantom": {"kind": "bump", "center": [0, 0, 1], "width": True}}, "width"),
    pytest.param({"schema_version": 1, "phantom": {"kind": "even_constant"}}, "field n",
                 id="no-n"),
    pytest.param({"schema_version": 1, "n": 2}, "field phantom", id="no-phantom"),
])
def test_description_fields_are_checked(body, field, tmp_path, capsys):
    ph = tmp_path / "p.json"
    ph.write_text(json.dumps(body))
    assert cli(["forward", "--truth", str(ph), "--grid", GRID,
                "--out", str(tmp_path / "s.vsl")]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "s.vsl").exists()


@pytest.mark.parametrize("flags", [
    [*BUMP_FLAGS, "--width", "5"],
    ["--phantom", "bump", "--n", "2", "--center", "0,0,1,5"],
    ["--phantom", "axial_power", "--n", "2", "--power", "-3"],
    ["--phantom", "basis", "--n", "2", "--nu", "1,7,0"],
], ids=["width", "center", "power", "nu"])
def test_phantom_rejects_what_forward_rejects(flags, tmp_path, capsys):
    # the description is sampled on --grid before anything is written, so a
    # description that forward --truth would reject is never written
    ph, vsl = tmp_path / "p.json", tmp_path / "p.vsl"
    assert cli(["phantom", *flags, "--out", str(ph), "--vsl", str(vsl)]) == 1
    assert "vslice: error" in capsys.readouterr().err
    assert not ph.exists() and not vsl.exists()


def test_phantom_vsl_is_the_sampled_phantom(tmp_path):
    vsl = tmp_path / "p.vsl"
    assert cli(["phantom", *BUMP_FLAGS, "--grid", GRID, "--out", str(tmp_path / "p.json"),
                "--vsl", str(vsl)]) == 0
    f, _ = read_vsl(str(vsl))
    want = make_phantom(Phantom(kind="bump", center=(0.3, -0.2, 0.93), equator_margin=0.25),
                        GridSpec(2, 64, 24, 32))
    assert f.grid.spec == want.grid.spec
    assert f.boundary_exponent == want.boundary_exponent
    assert np.array_equal(f.smooth, want.smooth)


@pytest.mark.parametrize("body, message", [
    pytest.param({"n": 3, "phantom": {"kind": "even_constant"}}, "field n", id="n3"),
    pytest.param({"phantom": {"kind": "even_constant"}}, "field n", id="no-n"),
    pytest.param({"n": 2, "phantom": {"kind": "bump", "center": [0, 0, 1], "width": 5}},
                 "width", id="width"),
])
def test_invert_rejects_description_before_writing(body, message, artifacts, tmp_path, capsys):
    # the description is checked against the data before the inversion runs
    _, _, sino = artifacts
    ph, out = tmp_path / "p.json", tmp_path / "rec.vsl"
    ph.write_text(json.dumps({"schema_version": 1, **body}))
    assert cli(["invert", "--method", "john", "--in", str(sino), "--truth", str(ph),
                "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    pytest.param("{not json", "not valid JSON", id="not-json"),
    pytest.param("[1, 2]", "must be a JSON object", id="not-object"),
])
def test_config_must_be_a_json_object(text, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli(["svd-table", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_svd_table_csv(tmp_path, capsys):
    assert cli(["svd-table", "--n", "2", "--band", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,mu,k,c_nu,d_nu,s_nu"
    assert len(lines) - 1 == len(svd_index_set(2, 4))
    first = lines[1].split(",")
    assert first[:3] == ["0", "1", "0"]
    assert math.isclose(float(first[5]), 2.0 * math.sqrt(math.pi), rel_tol=1e-15)

    out = tmp_path / "table.csv"
    assert cli(["svd-table", "--n", "3", "--band", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().splitlines()[0] == "m,mu,k,c_nu,d_nu,s_nu"


@pytest.mark.parametrize("n, lam", [(2, "nan"), (2, "inf"), (3, "nan"), (3, "inf")])
def test_svd_table_non_finite_lam_exits_1(n, lam, capsys):
    assert cli(["svd-table", "--n", str(n), "--band", "4", "--lam", lam]) == 1
    assert "lam" in capsys.readouterr().err


def test_selftest_subset(capsys):
    assert cli(["selftest", "--criteria", "10"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "harmonic dimension" in out


def test_console_script_entry_point():
    # the callable [project.scripts] names must exist and run a subcommand
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["vslice"]
    module, attr = target.split(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry(["selftest", "--criteria", "10"]) == 0
