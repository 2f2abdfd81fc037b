"""CLI option table: one parse for a flag, a config file and the environment."""

import json
import re

import pytest

from translab import cli
from translab.cli import main

# a valid value of each required option, per command
REQUIRED = {
    "bowl": {"curvature": "mean:n=3"},
    "catenoid": {"curvature": "qk:k=3,n=6", "R": "1"},
    "verify": {"suite": "homogeneity", "curvature": "mean:n=3"},
}
SOURCES = ("flag", "config", "env")


def _options():
    for command in REQUIRED:
        for section in ("global", command):
            for name, opt in cli._OPTIONS[section].items():
                if name != "out":  # a path: every string is one
                    yield command, section, name, opt


def _argv(command, section, name, value, source, tmp_path, monkeypatch):
    """argv for ``command`` with option ``name`` set to ``value`` from
    ``source`` and the other required options given as flags."""
    argv = [command]
    for other, valid in REQUIRED[command].items():
        if other != name:
            argv += [cli._flag(other), valid]
    if source == "flag":
        argv += [cli._flag(name), value]
    elif source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\n{name} = {value}\n")
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv(f"TRANSLAB_{section.upper()}_{name.upper()}", value)
    return argv


def test_required_options_match_table():
    for command, values in REQUIRED.items():
        required = {name for name, opt in cli._OPTIONS[command].items()
                    if opt.default is cli._REQUIRED}
        assert set(values) == required


@pytest.mark.parametrize("value", ["abc", "nan"])
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize(
    "command, section, name, opt", list(_options()),
    ids=[f"{command}-{name}" for command, _, name, _ in _options()],
)
def test_malformed_value_exit2_before_run_dir(tmp_path, monkeypatch, capsys,
                                              command, section, name, opt, value, source):
    # whatever its source, a malformed value returns 2 from main() (never a
    # SystemExit from argparse) before the run directory is made; a curvature
    # key is parsed by from_key when the command builds its function
    out = tmp_path / "o"
    argv = _argv(command, section, name, value, source, tmp_path, monkeypatch)
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: " if opt.parse is cli._TEXT else "config error: ")


@pytest.mark.parametrize("source", SOURCES)
def test_value_parsed_alike_from_every_source(tmp_path, monkeypatch, source):
    out = tmp_path / "o"
    argv = _argv("bowl", "bowl", "rmax", "60", source, tmp_path, monkeypatch)
    assert main(argv + ["--seed", "7", "--out", str(out), "--quiet"]) == 0
    echo = json.loads((out / "manifest.json").read_text())["config"]
    assert (echo["rmax"], echo["seed"]) == (60.0, 7)
    assert type(echo["rmax"]) is float and type(echo["seed"]) is int


@pytest.mark.parametrize(
    "command, flags",
    [
        ("bowl", ["--curvature", "--rmax", "--fit-lo", "--fit-hi"]),
        ("catenoid", ["--curvature", "--R", "--rmax", "--handoff"]),
        ("verify", ["--suite", "--curvature"]),
        ("list", []),
    ],
)
def test_help_lists_flags(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.MULTILINE)
    assert listed == flags + ["--config", "--out", "--seed", "--quiet"]


@pytest.mark.parametrize("text", [
    b"rmax = 60\n",  # no section header
    b"[bowl]\nrmax = 60\nrmax = 70\n",  # a repeated key
    b"[bowl]\nrmax = 60\n[bowl]\nfit_lo = 10\n",  # a repeated section
    b"[bowl]\nrmax = %(x)s\n",  # taken as written, then parsed as --rmax
    b"[bowl]\nrmax = 6\xff0\n",  # not UTF-8
], ids=["no-section", "repeated-key", "repeated-section", "interpolation", "not-utf8"])
def test_unparsable_config_file_exit2_before_run_dir(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text)
    out = tmp_path / "o"
    assert main(["bowl", "--curvature", "mean:n=3", "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error: ")


def test_config_value_taken_as_written(tmp_path):
    # a % in a value is no interpolation: the run writes where --out run%1 would
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[global]\nout = {tmp_path / 'run%1'}\n[bowl]\nrmax = 60\n")
    assert main(["bowl", "--curvature", "mean:n=3", "--config", str(cfg), "--quiet"]) == 0
    assert (tmp_path / "run%1" / "manifest.json").is_file()
