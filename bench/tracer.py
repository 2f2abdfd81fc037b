"""Spans around the package's layer entry points, recorded from outside.

``Tracer.installed()`` replaces the public entry point of each layer with a
wrapper for the duration of a traced pass and restores the originals
afterwards, so untraced passes run the package untouched.  Entry points
that the solver modules imported by name are patched where they were
imported (``translab.bowl.integrate``, ``translab.cli.write_csv``, ...).

Two kinds of wrapper:

* spans (solver calls, writes, numeric root solves) are stored one by one
  with their parent span;
* hot leaves (``value``, ``grad``, ``solve_x``, ``solve_level`` and the RHS
  closure handed to ``integrate``) are only counted and timed, aggregated
  per parent span.

Every call's self time (its duration minus the time of the wrapped calls it
made) is added to its layer, the first component of its name.  The RHS
closure is named after the module whose ``integrate`` received it, so its
own arithmetic counts as that module's self time.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from translab import barrier, bowl, catenoid, cli, cliio, curvature, implicit, ode

TERMINATIONS = ("reached_end", "terminal_event", "step_underflow", "domain_exit", "other")
NUMERIC = ("implicit.solve_extended", "implicit.g_plus", "implicit.g_minus")

_clock = time.perf_counter


class _Frame:
    # kids: names of the direct children, kept for solve_level only, whose
    # path (closed form, verified, numeric) they reveal
    __slots__ = ("stat", "stored", "sid", "t0", "child", "kids", "value0", "grad0")

    def __init__(self, stat, stored, sid):
        self.stat = stat
        self.stored = stored
        self.sid = sid
        self.child = 0.0
        self.kids = None


class Tracer:
    """Span store and counters of one traced pass."""

    def __init__(self):
        self.stack = []
        self.spans = []  # [sid, parent sid, name, t0, t1]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (parent sid, name) -> [calls, s]
        self.stats = {}  # name -> [calls, total s, self s]
        self.counts = Counter()  # outcomes: nodes, segments, bytes, ...

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    # -- recording ---------------------------------------------------------

    def _enter(self, name, stat, stored):
        stack = self.stack
        parent = stack[-1] if stack else None
        if parent is not None and parent.kids is not None:
            parent.kids.add(name)
        if stored:
            sid = len(self.spans)
            self.spans.append([sid, parent.sid if parent else None, name, 0.0, 0.0])
        else:
            sid = parent.sid if parent else None
        frame = _Frame(stat, stored, sid)
        if name == "implicit.solve_level":
            frame.kids = set()
        elif name in NUMERIC:
            frame.value0 = self._stat("curvature.value")[0]
            frame.grad0 = self._stat("curvature.grad")[0]
        stack.append(frame)
        frame.t0 = _clock()
        return frame

    def _exit(self, name, frame):
        t1 = _clock()
        stack = self.stack
        stack.pop()
        dur = t1 - frame.t0
        stat = frame.stat
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - frame.child
        if stack:
            stack[-1].child += dur
        if frame.stored:
            span = self.spans[frame.sid]
            span[3], span[4] = frame.t0, t1
        else:
            agg = self.leaves[(frame.sid, name)]
            agg[0] += 1
            agg[1] += dur
        if frame.kids is not None:
            if "implicit.solve_extended" not in frame.kids:
                self.counts["solve_level.closed"] += 1
            if "curvature.value" in frame.kids:
                self.counts["solve_level.verified"] += 1
        elif name in NUMERIC:
            self.counts["numeric.value"] += self._stat("curvature.value")[0] - frame.value0
            self.counts["numeric.grad"] += self._stat("curvature.grad")[0] - frame.grad0

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a stored span (used for the benchmark's own jobs)."""
        frame = self._enter(name, self._stat(name), True)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, frame)

    def _wrap(self, name, fn, stored, after=None, rhs_name=None):
        tracer = self
        stat = self._stat(name)

        def wrapper(*args, **kwargs):
            if rhs_name is not None:
                args = (tracer._wrap(rhs_name, args[0], False),) + args[1:]
            frame = tracer._enter(name, stat, stored)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)
            if after is not None:
                after(tracer.counts, result, args)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    @staticmethod
    def _targets():
        """(owner, attribute, span name, stored, after hook, rhs name)."""
        leaf, span = False, True
        methods = [
            (curvature.CurvatureFunction, "value", "curvature.value", leaf),
            (curvature.CurvatureFunction, "grad", "curvature.grad", leaf),
            (curvature.CurvatureFunction, "solve_x", "curvature.solve_x", leaf),
            (implicit.ImplicitBranch, "solve_level", "implicit.solve_level", leaf),
            (implicit.ImplicitBranch, "solve_extended", "implicit.solve_extended", span),
            (implicit.ImplicitBranch, "g_plus", "implicit.g_plus", span),
            (implicit.ImplicitBranch, "g_minus", "implicit.g_minus", span),
            (ode.Trajectory, "resample", "ode.resample", span),
        ]
        out = []
        for cls, attr, name, stored in methods:
            # wrap every class in the hierarchy that defines its own copy
            for owner in _subclasses(cls):
                if attr in vars(owner):
                    out.append((owner, attr, name, stored, None, None))
        for module in (bowl, catenoid, barrier):
            out.append((module, "integrate", "ode.integrate", span, _after_integrate,
                        f"{module.__name__.rsplit('.', 1)[-1]}.rhs"))
        functions = [
            ((bowl, cli, catenoid), "solve_bowl", "bowl.solve_bowl", None),
            ((bowl, cli), "fit_tail", "bowl.fit_tail", None),
            ((catenoid, cli), "solve_catenoid", "catenoid.solve_catenoid", None),
            ((catenoid,), "solve_neck", "catenoid.solve_neck", None),
            ((catenoid,), "solve_upper_branch", "catenoid.solve_upper_branch", None),
            ((catenoid,), "solve_lower_branch", "catenoid.solve_lower_branch", None),
            ((barrier, cli), "verify_inequality", "barrier.verify_inequality", _after_verify),
            ((barrier, cli), "compare_orderings", "barrier.compare_orderings", _after_compare),
            ((cli,), "write_csv", "cli.write_csv", _after_write),
            ((cli, cliio), "write_json", "cli.write_json", _after_write),
            ((cli,), "main", "cli.main", None),
        ]
        for modules, attr, name, after in functions:
            for module in modules:
                out.append((module, attr, name, span, after, None))
        return out

    @contextmanager
    def installed(self):
        """Wrap every layer entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, stored, after, rhs_name in self._targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, stored, after, rhs_name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def deterministic_counts(self) -> dict:
        """Counts that must repeat exactly when the same inputs run again.

        Bytes written are left out: manifest.json records the run's wall time.
        """
        out = {f"calls.{k}": v[0] for k, v in self.stats.items()}
        out.update({f"counts.{k}": v for k, v in self.counts.items() if k != "cli.bytes_written"})
        return out

    def layer_metrics(self) -> dict:
        c = Counter({k: v[0] for k, v in self.stats.items()})
        t = Counter({k: v[1] for k, v in self.stats.items()})
        n = self.counts
        rhs_names = [k for k in c if k.endswith(".rhs")]
        rhs_evals = sum(c[k] for k in rhs_names)
        nodes = n["ode.nodes"]
        level_calls = c["implicit.solve_level"]
        numeric = sum(c[k] for k in NUMERIC)
        layer_self = Counter()
        for name, (_, _, self_s) in self.stats.items():
            layer_self[name.split(".", 1)[0]] += self_s
        m = {
            "ode.integrate.calls": c["ode.integrate"],
            "ode.nodes": nodes,
            "ode.segments": n["ode.segments"],
            "ode.rhs_evals": rhs_evals,
            "ode.rhs_per_node": _ratio(rhs_evals, nodes),
            "ode.rhs_s": sum(t[k] for k in rhs_names),
            "ode.self_s": layer_self["ode"],
            "ode.resample.calls": c["ode.resample"],
            "ode.resample_s": t["ode.resample"],
        }
        for reason in TERMINATIONS:
            m[f"ode.termination.{reason}"] = n[f"termination.{reason}"]
        m.update({
            "implicit.solve_level.calls": level_calls,
            "implicit.solve_level.closed_share": _ratio(n["solve_level.closed"], level_calls),
            "implicit.solve_level.verified_share": _ratio(n["solve_level.verified"], level_calls),
            "implicit.numeric.calls": numeric,
            "implicit.numeric.value_per_solve": _ratio(n["numeric.value"], numeric),
            "implicit.numeric.grad_per_solve": _ratio(n["numeric.grad"], numeric),
            "implicit.self_s": layer_self["implicit"],
            "curvature.value.calls": c["curvature.value"],
            "curvature.grad.calls": c["curvature.grad"],
            "curvature.solve_x.calls": c["curvature.solve_x"],
            "curvature.self_s": layer_self["curvature"],
            "bowl.solve_s": t["bowl.solve_bowl"],
            "bowl.fit_s": t["bowl.fit_tail"],
            "bowl.self_s": layer_self["bowl"],
            "catenoid.neck_s": t["catenoid.solve_neck"],
            "catenoid.upper_s": t["catenoid.solve_upper_branch"],
            "catenoid.lower_s": t["catenoid.solve_lower_branch"],
            "catenoid.self_s": layer_self["catenoid"],
            "barrier.margin_points": n["barrier.margin_points"],
            "barrier.skipped": n["barrier.skipped"],
            "barrier.pairs": n["barrier.pairs"],
            "barrier.self_s": layer_self["barrier"],
            "cli.write_s": t["cli.write_csv"] + t["cli.write_json"],
            "cli.bytes_written": n["cli.bytes_written"],
            "cli.self_s": layer_self["cli"],
        })
        return m


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _after_integrate(counts, traj, args):
    counts["ode.nodes"] += len(traj.ts)
    counts["ode.segments"] += len(traj.segments)
    reason = traj.termination if traj.termination in TERMINATIONS else "other"
    counts[f"termination.{reason}"] += 1


def _after_verify(counts, report, args):
    counts["barrier.margin_points"] += len(report.grid)
    counts["barrier.skipped"] += report.skipped


def _after_compare(counts, report, args):
    counts["barrier.pairs"] += report["pairs"]


def _after_write(counts, result, args):
    counts["cli.bytes_written"] += os.path.getsize(args[0])
