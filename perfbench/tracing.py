"""Spans around the public functions of copula_lab, recorded from outside.

:class:`Tracer` wraps each function in :data:`TARGETS` at every place the
program binds it: the defining module, every ``copula_lab`` module that
imported the name, module-level dispatch dicts such as
``bounds._COEFF_FUNCS``, and (for methods) the class. Each call records a
span: name, start, end, CPU time over the span (``time.process_time``,
so BLAS threads count), its parent span, the job id and a few
attributes. Spans stay in memory until :meth:`Tracer.write`.

Self time of a span is its wall time minus the part of its interval
that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _fold_attrs(args, kwargs, result) -> dict:
    # Computed, not measured: one n x n matrix product is 2n^3 flops.
    return {"gflop": 2.0 * args[0].resolution ** 3 / 1e9}


def _csv_attrs(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _tuple_attrs(args, kwargs, result) -> dict:
    m = args[3] if len(args) > 3 else kwargs["m"]
    return {"tuples": len(list(args[1])) ** m, **_check_attrs(args, kwargs, result)}


def _check_attrs(args, kwargs, result) -> dict:
    return {
        "unsatisfied": int(not result.satisfied and not result.not_applicable),
        "not_applicable": int(bool(result.not_applicable)),
    }


_FAMILY = {
    "Frechet": "frechet",
    "Mardia": "frechet",
    "Mixture": "mixture",
    "GridSpec": "grid",
    "MarshallOlkin": "marshall-olkin",
}


def _chain_attrs(args, kwargs, result) -> dict:
    return {"steps": args[1], "family": _FAMILY.get(type(args[0]).__name__, "other")}


# (module, attribute path, span name, attribute hook)
TARGETS = [
    ("families", "parse_spec", "families.parse_spec", None),
    ("families", "eval_cdf", "families.eval_cdf", None),
    ("families", "conditional_cdf", "families.conditional_cdf", None),
    ("families", "spec_digest", "families.spec_digest", None),
    ("grid", "discretize", "grid.discretize", None),
    ("grid", "fold_product", "grid.fold_product", _fold_attrs),
    ("grid", "fold_power", "grid.fold_power", None),
    ("grid", "mix_grids", "grid.mix_grids", None),
    ("grid", "write_grid_csv", "grid.write_grid_csv", _csv_attrs),
    ("coefficients", "report", "coefficients.report", None),
    ("coefficients", "rho", "coefficients.rho", None),
    ("coefficients", "phi", "coefficients.phi", None),
    ("coefficients", "beta", "coefficients.beta", None),
    ("coefficients", "psi_prime", "coefficients.psi_prime", None),
    ("coefficients", "psi", "coefficients.psi", None),
    ("bounds", "verify_density_bound", "bounds.verify_density_bound", _check_attrs),
    ("bounds", "tuple_decomposition_check", "bounds.tuple_decomposition_check", _check_attrs),
    ("bounds", "verify_mixture_bound", "bounds.verify_mixture_bound", _tuple_attrs),
    ("bounds", "exponential_rate_table", "bounds.exponential_rate_table", _check_attrs),
    ("bounds", "psi_divergence_table", "bounds.psi_divergence_table", _check_attrs),
    ("chains", "sample_chain", "chains.sample_chain", _chain_attrs),
    ("chains", "Marginal.quantile", "chains.Marginal.quantile", None),
    ("chains", "empirical_lag_stats", "chains.empirical_lag_stats", None),
    ("cli", "_cmd_discretize", "cli.discretize", None),
    ("cli", "_cmd_coeffs", "cli.coeffs", None),
    ("cli", "_cmd_verify", "cli.verify", None),
    ("cli", "_cmd_simulate", "cli.simulate", None),
    ("cli", "_cmd_lagstats", "cli.lagstats", None),
    ("cli", "_cmd_psi_divergence", "cli.psi-divergence", None),
]

LIBRARY_MODULES = ("families.", "grid.", "coefficients.", "bounds.", "chains.")


class Tracer:
    """Records spans; :meth:`install` patches the program, :meth:`uninstall` restores it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "job": self.job,
                "name": name,
            }
            self.spans.append(record)
            self._stack.append(record["id"])
            cpu0 = time.process_time()
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                record["cpu_s"] = time.process_time() - cpu0
                self._stack.pop()
            if hook is not None:
                record["attrs"] = hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {
            name.partition(".")[2]: mod
            for name, mod in sys.modules.items()
            if (name == "copula_lab" or name.startswith("copula_lab.")) and mod is not None
        }
        for module, path, name, hook in TARGETS:
            owner = modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            if outer:  # a method: patch the class only
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
                    elif type(value) is dict:
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = wrapper
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Span arithmetic


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> wall time minus the part covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children[s["id"]]) for s in spans
    }


def library_coverage(spans: list[dict], root: dict) -> float:
    """Share of ``root``'s wall time covered by library-layer spans of its job.

    Only the outermost library spans count, so nested calls are not
    counted twice.
    """
    by_id = {s["id"]: s for s in spans}

    def outermost(s):
        parent = by_id.get(s["parent"])
        return parent is None or not parent["name"].startswith(LIBRARY_MODULES)

    intervals = [
        (s["start"], s["end"])
        for s in spans
        if s["job"] == root["job"]
        and s["name"].startswith(LIBRARY_MODULES)
        and outermost(s)
    ]
    return _covered(intervals) / (root["end"] - root["start"])


def layer_stats(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, self_s, wall_s, cpu_s and summed attributes."""
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = out[s["name"]]
        row["calls"] += 1
        row["self_s"] += selfs[s["id"]]
        row["wall_s"] += s["end"] - s["start"]
        row["cpu_s"] += s["cpu_s"]
        for key, value in s.get("attrs", {}).items():
            if isinstance(value, (int, float)):
                row[key] += value
    return out
