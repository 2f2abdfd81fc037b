"""Compare the outputs of a fixed list of CLI runs between two source trees.

Run from anywhere, with the two checkouts to compare:

    python3 tools/same_outputs.py OLD NEW --out OUTPUTS.json

Each run of ``RUNS`` is made once per tree, in a fresh process (its own
empty working directory, ``PYTHONPATH=<tree>/src``, no bytecode written)
with ``--out out``.  The JSON written records, per run, the exit code of
each tree, the sha256 of stdout, stderr and each output file, and for each
file whose bytes differ the largest relative difference |a - b| / max(|a|,
|b|) per CSV column and per JSON number that differs.  ``manifest.json`` is
hashed but not judged: it holds the run's wall time.

The script exits 0 when every run has equal exit codes and every judged
stream and file is byte-identical, 1 otherwise.  The list covers every
command and exit codes 0-3.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUNS = (
    # bowls: exit 0, then sk:k=3,n=5 failing fit_b (exit 1) and past its
    # precision horizon (exit 3)
    ("bowl", "--curvature", "mean:n=3", "--rmax", "500"),
    ("bowl", "--curvature", "hq:k=2,l=0,n=3", "--rmax", "200"),
    ("bowl", "--curvature", "kconv:k=2,n=4", "--rmax", "200"),
    ("bowl", "--curvature", "qk:k=3,n=6", "--rmax", "200"),
    ("bowl", "--curvature", "gauss:n=4", "--rmax", "1e4"),
    ("bowl", "--curvature", "gauss:n=5", "--rmax", "1e4"),
    ("bowl", "--curvature", "sk:k=3,n=5", "--rmax", "100"),
    ("bowl", "--curvature", "sk:k=3,n=5"),
    # acceptance criterion 10's determinism run
    ("bowl", "--curvature", "gauss:n=4", "--rmax", "1000", "--seed", "11"),
    # a malformed option (exit 2)
    ("bowl", "--curvature", "mean:n=3", "--rmax", "nan"),
    ("catenoid", "--curvature", "qk:k=3,n=6", "--R", "1", "--rmax", "200"),
    ("catenoid", "--curvature", "qk:k=4,n=6", "--R", "1", "--rmax", "200"),
    ("catenoid", "--curvature", "qk:k=5,n=6", "--R", "1", "--rmax", "200"),
    ("catenoid", "--curvature", "sk:k=3,n=5", "--R", "1", "--rmax", "6"),
    ("catenoid", "--curvature", "qk:k=3,n=6", "--R", "10", "--rmax", "400"),
    ("catenoid", "--curvature", "qk:k=1,n=4", "--R", "1", "--rmax", "50"),
    ("catenoid", "--curvature", "sk:k=3,n=5", "--R", "2", "--rmax", "12", "--handoff", "pi6"),
    # knorm:k=4,n=4's ordering run ends in step_underflow (exit 3)
    ("verify", "--suite", "all", "--curvature", "mean:n=3"),
    ("verify", "--suite", "all", "--curvature", "hq:k=2,l=0,n=4"),
    ("verify", "--suite", "all", "--curvature", "knorm:k=4,n=4"),
    ("verify", "--suite", "all", "--curvature", "qk:k=3,n=6"),
    ("verify", "--suite", "ordering", "--curvature", "sk:k=3,n=5"),
    ("list",),
    # inputs that fail today, each for a reason of its own: the fold at the
    # cylinder of the k-norms (exit 1 and 3) and the even S_k ordering run
    ("bowl", "--curvature", "knorm:k=2,n=3", "--rmax", "50"),
    ("bowl", "--curvature", "knorm:k=3,n=3"),
    ("bowl", "--curvature", "knorm:k=4,n=4", "--rmax", "200"),
    ("verify", "--suite", "all", "--curvature", "sk:k=4,n=5"),
    # the precision horizon of the slope chart, past which a bowl, and the
    # catenoid built on it, stall (exit 3), and a fit it biases (exit 1);
    # the degenerate gauss tail has none
    ("bowl", "--curvature", "mean:n=3", "--rmax", "1e7"),
    ("bowl", "--curvature", "gauss:n=4", "--rmax", "1e8"),
    ("bowl", "--curvature", "sk:k=2,n=4"),
    ("catenoid", "--curvature", "qk:k=3,n=6", "--R", "2e6", "--rmax", "8e6"),
    # the upper end's growth exponent judged on a pre-asymptotic window
    # (exit 1), and the one-term power barrier of qk:k=5,n=6 (exit 1)
    ("catenoid", "--curvature", "qk:k=3,n=6", "--R", "0.1", "--rmax", "12"),
    ("catenoid", "--curvature", "sk:k=3,n=5", "--R", "2", "--rmax", "8"),
    ("catenoid", "--curvature", "qk:k=3,n=6", "--R", "1e5", "--rmax", "4e5"),
    ("verify", "--suite", "all", "--curvature", "qk:k=5,n=6"),
    # the comparison runs of the ordering-pairs bench families on a second
    # set of pairs
    ("verify", "--suite", "ordering", "--curvature", "mean:n=3", "--seed", "5"),
    ("verify", "--suite", "ordering", "--curvature", "hq:k=2,l=0,n=4", "--seed", "5"),
    # the comparison run that moves most with its stepper: at seed 0 all 77
    # of its steps were explicit while h max|dF/dv| stayed below STIFF_STEP
    ("verify", "--suite", "ordering", "--curvature", "gauss:n=4"),
    # a bowl whose Radau IIA steps stall without the retry of a failed Newton
    # iteration at the step's start, and a neck far inside the bowl's start
    ("bowl", "--curvature", "mean:n=3", "--rmax", "1e6"),
    ("catenoid", "--curvature", "qk:k=3,n=6", "--R", "1e-9", "--rmax", "12"),
    # barrier margins: a beta != 0 power barrier, the reflected -1 level of
    # the even k-norms and the power barrier of the bench's qk:k=3,n=7
    ("verify", "--suite", "barrier", "--curvature", "sk:k=3,n=5"),
    ("verify", "--suite", "barrier", "--curvature", "knorm:k=2,n=3"),
    ("verify", "--suite", "barrier", "--curvature", "qk:k=3,n=7"),
    # a power barrier judged on 748 of its 1,080 radii, the "direct" -1 level
    # of an odd k-norm, and the reflected even-k margins, which the --suite
    # all run of knorm:k=4,n=4 never reaches (its ordering run exits 3 first)
    ("verify", "--suite", "barrier", "--curvature", "qk:k=2,n=8"),
    ("verify", "--suite", "barrier", "--curvature", "knorm:k=3,n=3"),
    ("verify", "--suite", "barrier", "--curvature", "knorm:k=4,n=4"),
    # every suite on the two-piece -1 level of an m = 2 quotient with a pole,
    # on a k-convexity with B_k = 0 and on an odd Gauss root
    ("verify", "--suite", "all", "--curvature", "hq:k=3,l=1,n=5"),
    ("verify", "--suite", "all", "--curvature", "kconv:k=3,n=3"),
    ("verify", "--suite", "all", "--curvature", "gauss:n=5"),
    # lambda0 = 0.999 leaves no slope inside U+ to draw ordering pairs from
    ("verify", "--suite", "ordering", "--curvature", "mean:n=1000"),
)
NOT_JUDGED = {"manifest.json"}
ENTRY = "import sys; from translab.cli import main; sys.exit(main())"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_digest(tree: Path) -> str:
    """The sha256 of the tree's ``src/`` as ``bench/run.py`` reports it."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run(tree: Path, argv) -> dict:
    """One CLI run from ``tree`` in a fresh directory: its exit code, stdout,
    stderr and the bytes of every output file."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env = {k: v for k, v in env.items() if not k.startswith("TRANSLAB_")}
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv, "--out", "out"], cwd=work,
                              env=env, capture_output=True, timeout=600)
        out = Path(work, "out")
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit": proc.returncode, "files": {"<stdout>": proc.stdout, "<stderr>": proc.stderr,
                                               **files}}


def rel_diff(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def csv_diffs(old: bytes, new: bytes) -> dict:
    """Largest relative difference per CSV column that differs."""
    rows_old, rows_new = (list(csv.reader(io.StringIO(b.decode()))) for b in (old, new))
    if rows_old[:1] != rows_new[:1] or len(rows_old) != len(rows_new):
        return {"<shape>": f"{len(rows_old)} rows of {rows_old[:1]} -> "
                           f"{len(rows_new)} rows of {rows_new[:1]}"}
    diffs = {}
    for j, name in enumerate(rows_old[0]):
        worst = max((rel_diff(float(a[j]), float(b[j]))
                     for a, b in zip(rows_old[1:], rows_new[1:]) if a[j] != b[j]), default=0.0)
        if worst:
            diffs[name] = worst
    return diffs


def json_diffs(old, new, path="", diffs=None) -> dict:
    """Largest relative difference per JSON number that differs, keyed by its
    path; any other difference is reported as the two values."""
    diffs = {} if diffs is None else diffs
    number = (int, float)
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            json_diffs(old[key], new[key], f"{path}.{key}", diffs)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            json_diffs(a, b, f"{path}[{i}]", diffs)
    elif (isinstance(old, number) and isinstance(new, number)
          and not isinstance(old, bool) and not isinstance(new, bool)):
        if rel_diff(float(old), float(new)):
            diffs[path or "."] = rel_diff(float(old), float(new))
    elif old != new:
        diffs[path or "."] = f"{old!r} -> {new!r}"
    return diffs


def file_diffs(name: str, old: bytes, new: bytes):
    try:
        if name.endswith(".csv"):
            return csv_diffs(old, new)
        if name.endswith(".json"):
            return json_diffs(json.loads(old), json.loads(new))
    except ValueError as exc:
        return {"<unparsed>": str(exc)}
    return None  # bytes differ; no numbers compared


def compare(argv, old: dict, new: dict) -> dict:
    entry = {"argv": list(argv), "exit": [old["exit"], new["exit"]], "files": {}}
    same = old["exit"] == new["exit"]
    for name in sorted(old["files"].keys() | new["files"].keys()):
        a, b = old["files"].get(name), new["files"].get(name)
        rec = {"sha256": [None if x is None else sha256(x) for x in (a, b)]}
        if name in NOT_JUDGED:
            rec["judged"] = False
        elif a != b:
            same = False
            rec["identical"] = False
            if a is not None and b is not None:
                rec["max_rel_diff"] = file_diffs(name, a, b)
        else:
            rec["identical"] = True
        entry["files"][name] = rec
    entry["same"] = same
    return entry


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path, help="root of the reference checkout")
    p.add_argument("new", type=Path, help="root of the checkout to compare with it")
    p.add_argument("--out", type=Path, default=Path("OUTPUTS.json"), help="JSON written")
    args = p.parse_args(argv)
    old_tree, new_tree = args.old.resolve(), args.new.resolve()
    runs = []
    for cli_argv in RUNS:
        entry = compare(cli_argv, run(old_tree, cli_argv), run(new_tree, cli_argv))
        runs.append(entry)
        print(("same " if entry["same"] else "DIFF ") + f"exit {entry['exit']}: "
              + " ".join(cli_argv), flush=True)
    n_same = sum(e["same"] for e in runs)
    report = {
        "source_sha256": [source_digest(old_tree), source_digest(new_tree)],
        "not_judged": sorted(NOT_JUDGED),
        "runs_same": n_same,
        "runs": runs,
        "exit_codes": sorted({code for e in runs for code in e["exit"]}),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{n_same}/{len(runs)} runs the same; written to {args.out}")
    return 0 if n_same == len(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
