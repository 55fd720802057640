"""Spans and counters recorded around focksym's public functions.

The tracer replaces a traced function by a wrapper on every module attribute
that names it, so each call site records one span.  The defining module is
wrapped too, because some layers call their own public functions (for example
``semigroup.check_semigroup_law`` calls ``semigroup.semigroup_matrix``).  The
one exception is ``fock.sqrt_factorial``, which calls itself once per array
element: it is wrapped only where other modules import it, so one matrix
build is one span.

Spans stay in memory as (name, parent index, start, end) and are written out
once, when the run ends.  A span's self time is its duration minus the time
covered by its direct children; children never overlap because the program is
single-threaded.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

# (layer, function) pairs traced at every binding.  The layer is the module
# that defines the function; it prefixes the metric names.
TRACED = (
    ("wco", "wco_matrix"),
    ("wco", "apply_wco"),
    ("fock", "sqrt_factorial"),
    ("semigroup", "semigroup_matrix"),
    ("semigroup", "check_semigroup_law"),
    ("semigroup", "n_omega_estimate"),
    ("semigroup", "laplace_resolvent"),
    ("semigroup", "solve_scaling_equation"),
    ("generator", "matrix_exponential"),
    ("generator", "check_generator_fd"),
    ("generator", "spectrum_report"),
    ("generator", "check_empty_point_spectrum"),
    ("generator", "check_stone_adjoint_relation"),
    ("conjugation", "conjugation_matrix"),
    ("evolution", "evolve"),
    ("cli", "main"),
    ("cli", "validate_scenario"),
    ("serialize", "write_json_report"),
    ("serialize", "write_csv"),
    ("rng", "complex_normal_vectors"),
)

# Bindings left alone: the function calls itself through this name.
_RECURSIVE = {("fock", "sqrt_factorial")}

_MODULES = ("fock", "wco", "conjugation", "semigroup", "generator",
            "evolution", "verification", "cli", "serialize", "rng")

# Parents by which semigroup_matrix calls are split.
_MATRIX_PARENTS = ("check_semigroup_law", "n_omega_estimate",
                   "laplace_resolvent", "check_generator_fd")


class Tracer:
    """Records spans and counts while installed; restores the program after."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self.counts: Counter = Counter()
        self.symbols: set = set()
        self.matrix_parent: Counter = Counter()
        self.wco_by_dim: dict[int, list[int]] = defaultdict(list)
        self.integrated_span = 0.0

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        import importlib

        modules = {m: importlib.import_module(f"{package.__name__}.{m}")
                   for m in _MODULES}
        for layer, fname in TRACED:
            original = getattr(modules[layer], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for mname, mod in modules.items():
                if (mname, fname) in _RECURSIVE:
                    continue
                if getattr(mod, fname, None) is original:
                    self._restore.append((mod, fname, original))
                    setattr(mod, fname, wrapper)
        groups = modules["verification"].CHECK_GROUPS
        for gname, fn in list(groups.items()):
            self._restore.append((groups, gname, fn))
            groups[gname] = self._wrap(f"verification.{gname}", fn)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        on_exit = getattr(self, "_after_" + name.split(".")[-1], None)

        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if on_exit is not None:
                on_exit(idx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts taken at the span boundaries ------------------------------

    def _after_wco_matrix(self, idx, args, kwargs, result) -> None:
        p = args[0] if args else kwargs["p"]
        dim = args[1] if len(args) > 1 else kwargs["dim"]
        self.symbols.add((complex(p.A), complex(p.B), complex(p.C), complex(p.D), int(dim)))
        self.wco_by_dim[int(dim)].append(idx)

    def _after_semigroup_matrix(self, idx, args, kwargs, result) -> None:
        label = "other"
        j = self.parents[idx]
        while j >= 0:
            fname = self.names[j].split(".")[-1]
            if fname in _MATRIX_PARENTS:
                label = fname
                break
            j = self.parents[j]
        self.matrix_parent[label] += 1

    def _after_evolve(self, idx, args, kwargs, result) -> None:
        self.counts["rk_steps"] += result.stats.steps
        self.counts["rk_rejected"] += result.stats.rejected
        self.integrated_span += abs(result.t - result.s)

    def _after_write_json_report(self, idx, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        payload = args[1] if len(args) > 1 else kwargs["payload"]
        # the digits of wall_time_s are the one part of a report that changes
        # between runs of one seed; leave them out so the count repeats
        wall = payload.get("provenance", {}).get("wall_time_s", "")
        self.counts["bytes_written"] += os.path.getsize(path) - len(json.dumps(wall))

    def _after_write_csv(self, idx, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        self.counts["bytes_written"] += os.path.getsize(path)

    # -- reduction --------------------------------------------------------

    def _durations(self) -> tuple[list[float], list[float]]:
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        dur, self_t = self._durations()
        calls: Counter = Counter(self.names)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for name, d, s in zip(self.names, dur, self_t):
            total[name] += d
            own[name] += s

        def per_call_ms(dim: int) -> float:
            idxs = self.wco_by_dim.get(dim, [])
            return 1e3 * statistics.median(dur[i] for i in idxs) if idxs else 0.0

        out: dict[str, tuple[float, str]] = {
            "wco.wco_matrix.calls": (calls["wco.wco_matrix"], "count"),
            "wco.wco_matrix.distinct": (len(self.symbols), "count"),
            "wco.wco_matrix.self_s": (own["wco.wco_matrix"], "s"),
            "wco.wco_matrix.ms_per_call.d64": (per_call_ms(64), "ms"),
            "wco.wco_matrix.ms_per_call.d128": (per_call_ms(128), "ms"),
            "wco.apply_wco.calls": (calls["wco.apply_wco"], "count"),
            "wco.apply_wco.self_s": (own["wco.apply_wco"], "s"),
            "fock.sqrt_factorial.calls": (calls["fock.sqrt_factorial"], "count"),
            "fock.sqrt_factorial.self_s": (own["fock.sqrt_factorial"], "s"),
            "semigroup.semigroup_matrix.calls": (calls["semigroup.semigroup_matrix"], "count"),
        }
        for parent in _MATRIX_PARENTS + ("other",):
            out[f"semigroup.semigroup_matrix.calls.in-{parent}"] = (
                self.matrix_parent[parent], "count")
        for fname in ("check_semigroup_law", "n_omega_estimate",
                      "laplace_resolvent", "solve_scaling_equation"):
            out[f"semigroup.{fname}.self_s"] = (own[f"semigroup.{fname}"], "s")
        out["generator.matrix_exponential.calls"] = (
            calls["generator.matrix_exponential"], "count")
        for fname in ("matrix_exponential", "check_generator_fd", "spectrum_report",
                      "check_empty_point_spectrum", "check_stone_adjoint_relation"):
            out[f"generator.{fname}.self_s"] = (own[f"generator.{fname}"], "s")
        out["conjugation.conjugation_matrix.calls"] = (
            calls["conjugation.conjugation_matrix"], "count")
        out["conjugation.conjugation_matrix.self_s"] = (
            own["conjugation.conjugation_matrix"], "s")
        out["evolution.evolve.calls"] = (calls["evolution.evolve"], "count")
        out["evolution.evolve.self_s"] = (own["evolution.evolve"], "s")
        out["evolution.rk_steps"] = (self.counts["rk_steps"], "count")
        out["evolution.rk_rejected"] = (self.counts["rk_rejected"], "count")
        out["evolution.integrated_span"] = (self.integrated_span, "1")
        from focksym.verification import CHECK_GROUPS

        for gname in CHECK_GROUPS:
            out[f"verification.{gname}.s"] = (total[f"verification.{gname}"], "s")
        out["cli.main.self_s"] = (own["cli.main"], "s")
        out["cli.validate_scenario.calls"] = (calls["cli.validate_scenario"], "count")
        out["cli.validate_scenario.self_s"] = (own["cli.validate_scenario"], "s")
        out["serialize.write_json_report.self_s"] = (own["serialize.write_json_report"], "s")
        out["serialize.write_csv.self_s"] = (own["serialize.write_csv"], "s")
        out["serialize.bytes_written"] = (self.counts["bytes_written"], "bytes")
        out["rng.complex_normal_vectors.calls"] = (calls["rng.complex_normal_vectors"], "count")
        out["rng.complex_normal_vectors.self_s"] = (own["rng.complex_normal_vectors"], "s")
        out["trace.spans"] = (len(self.names), "count")
        return out

    def dump(self, path: Path) -> None:
        """Write every span as [name, parent, start_s, end_s] after the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        rows = [[n, p, round(s - t0, 9), round(e - t0, 9)]
                for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)]
        path.write_text(json.dumps({"spans": rows}) + "\n")
