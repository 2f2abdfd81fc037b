"""Configuration, structured output, and run manifests for the CLI.

Output contract (stable for diff-based regression):
  bowl profile CSV      header "r,u,v,residual"
  catenoid branch CSV   header "s,r,u,theta,kappa,residual"
Numbers are written with 17 significant digits, so identical runs are
byte-identical; every emitted file is listed in manifest.json with its
sha256.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from . import __version__
from .errors import ParameterError

ENV_PREFIX = "TRANSLAB_"


def load_config(path: Optional[str], known: dict) -> dict:
    """Flat key=value sections, each value as written; environment variables
    override as TRANSLAB_<SECTION>_<KEY>, and each key is stored lower-cased.
    ``known`` maps each section to its option names, which match keys
    regardless of case; any other section or key is rejected, in the file
    and under a known section's environment prefix alike, as is a file that
    does not parse."""
    cfg = {section: {} for section in known}
    items = []  # (section, key, value), the environment's after the file's
    if path:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ParameterError(f"config file {path!r}: {exc}") from exc
        if not read:
            raise ParameterError(f"config file {path!r} not readable")
        for section in parser.sections():
            if section not in known:
                raise ParameterError(f"unknown config section [{section}]")
            items += [(section, key, val) for key, val in parser.items(section)]
    for env_key, val in os.environ.items():
        if not env_key.startswith(ENV_PREFIX):
            continue
        rest = env_key[len(ENV_PREFIX):].lower()
        section, sep, key = rest.partition("_")
        if section in known and sep:
            items.append((section, key, val))
    for section, key, val in items:
        if key not in map(str.lower, known[section]):
            raise ParameterError(f"unknown config key {key!r} in [{section}]")
        cfg[section][key] = val
    return cfg


def write_csv(path: Path, header: str, columns: Iterable[np.ndarray]) -> None:
    """``np.savetxt``'s bytes (fmt "%.17g", delimiter ","), by one % per block
    of 1024 rows, so that the memory taken does not grow with the row count."""
    rows = np.column_stack(columns)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for block in np.split(rows, range(1024, len(rows), 1024)):
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def write_json(path: Path, payload: dict) -> None:
    """The payload as sorted, indented JSON; every value is plain Python
    (a numpy value raises TypeError)."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class RunManifest:
    """Collects outputs and check outcomes for one CLI run."""

    def __init__(self, out_dir: Path, command: str, config_echo: dict):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.config_echo = config_echo
        self.checks = {}
        self.files = []
        self._t0 = time.monotonic()

    def emit(self, name: str, writer, *data) -> None:
        """Write one output file with ``writer(path, *data)`` and list it."""
        writer(self.out_dir / name, *data)
        self.files.append(self.out_dir / name)

    def record_check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks[name] = {"passed": bool(passed), "detail": detail}

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def write(self) -> Path:
        payload = {
            "tool_version": __version__,
            "command": self.command,
            "config": self.config_echo,
            "wall_time_s": round(time.monotonic() - self._t0, 3),
            "checks": self.checks,
            "files": [
                {"name": p.name, "sha256": sha256_of(p)} for p in sorted(self.files)
            ],
        }
        path = self.out_dir / "manifest.json"
        write_json(path, payload)
        return path


def emit_plot_script(path: Path, title: str, plots: list) -> None:
    """Plain gnuplot script referencing the emitted CSVs."""
    lines = [
        "# gnuplot script",
        "set datafile separator ','",
        f"set title '{title}'",
        "set key left top",
        "set grid",
    ]
    plot_parts = [
        f"'{fname}' every ::1 using {cols} with lines title '{label}'"
        for fname, cols, label in plots
    ]
    lines.append("plot " + ", \\\n     ".join(plot_parts))
    lines.append("pause -1")
    Path(path).write_text("\n".join(lines) + "\n")
