"""Spans around the program's public functions, installed from the
benchmark's own files so the program is not edited.

A wrapper replaces the function in every ``doubletrace`` namespace that
binds it, because a module that imported the function by name would
otherwise call past the wrapper.  Spans (name, start, end, parent span,
query id) are kept in flat arrays and written out at the end; self time is
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable

TRACED = {
    "cli": ("parse_graph",),
    "feasibility": ("find_admissible_tree",),
    "graphs": (
        "components_with_parity",
        "induced_edge_subgraph",
        "contract",
        "contract_mixed",
        "simplify_multigraph",
        "automorphisms",
    ),
    "construction": (
        "antiparallel_strong_trace",
        "parallel_strong_trace",
        "euler_tour",
        "reduce_repetition",
        "merge_closed_walks",
    ),
    "search_backend": ("run",),
    "enumeration": ("canonical_form", "orbit_size", "enumerate_classes"),
    # validate_double_trace is reached only by ``classify``, which no
    # workload runs, so it would read zero on every run
    "traces": ("transition_system",),
}
# search_backend.run spans are named by mode (its mode constants); the CLI
# never runs mode 1, count_raw, which only the library's count_raw_traces uses
RUN_MODES = {0: "exists", 2: "enum_fixed"}
MAIN = "cli.main"


def span_names() -> list[str]:
    names = [MAIN]
    for module, functions in TRACED.items():
        for fn in functions:
            if module == "search_backend":
                names += [f"search_backend.run.{mode}" for mode in RUN_MODES.values()]
            else:
                names.append(f"{module}.{fn}")
    return names


class Tracer:
    def __init__(self) -> None:
        self.names = span_names()
        self._id = {name: k for k, name in enumerate(self.names)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.query_id = -1
        self.certificates = 0  # find_admissible_tree calls that returned a tree
        self.sequences = {mode: 0 for mode in RUN_MODES.values()}
        self._open: list[int] = []
        self._covered: list[float] = []
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        k = self._id[name]
        idx = len(self.name)
        self.name.append(k)
        self.parent.append(self._open[-1] if self._open else -1)
        self.query.append(self.query_id)
        self.end.append(0.0)
        self._open.append(idx)
        self._covered.append(0.0)
        start = time.perf_counter()
        self.start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.end[idx] = end
            self._open.pop()
            covered = self._covered.pop()
            duration = end - start
            self.self_s[k] += duration - covered
            self.calls[k] += 1
            if self._covered:
                self._covered[-1] += duration

    def _wrapper(self, module: str, fn_name: str, fn: Callable) -> Callable:
        tracer = self
        if module == "search_backend":

            def run(*args, **kwargs):
                mode = RUN_MODES[kwargs.get("mode", args[6] if len(args) > 6 else 0)]
                out = tracer.call(f"search_backend.run.{mode}", fn, *args, **kwargs)
                if mode == "enum_fixed":
                    tracer.sequences[mode] += len(out)
                elif out is not None:
                    tracer.sequences[mode] += 1
                return out

            return run
        name = f"{module}.{fn_name}"
        if name == "feasibility.find_admissible_tree":

            def search(*args, **kwargs):
                out = tracer.call(name, fn, *args, **kwargs)
                tracer.certificates += out is not None
                return out

            return search

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every namespace that binds it."""
        package = [
            m for name, m in sys.modules.items()
            if name == "doubletrace" or name.startswith("doubletrace.")
        ]
        for module, functions in TRACED.items():
            home = sys.modules[f"doubletrace.{module}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrapper(module, fn_name, original)
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def trees_tried(self) -> int:
        """components_with_parity calls made directly by the tree search."""
        cwp = self._id["graphs.components_with_parity"]
        search = self._id["feasibility.find_admissible_tree"]
        return sum(
            1
            for i in range(len(self.name))
            if self.name[i] == cwp and self.parent[i] >= 0 and self.name[self.parent[i]] == search
        )

    def layer_table(self, rounds: int) -> list[tuple[str, float, float]]:
        """(span name, calls per round, self seconds per round)."""
        return [
            (name, self.calls[k] / rounds, self.self_s[k] / rounds)
            for k, name in enumerate(self.names)
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tquery\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - self.t0:.9f}\t"
                    f"{self.end[i] - self.t0:.9f}\t{self.parent[i]}\t{self.query[i]}\n"
                )
