"""Per-module tracing installed from outside the package.

The benchmark wraps public functions of ``spectacle`` where their callers
look them up: every module global (and the ``QExpansion.first_mismatch``
class attribute) bound to the original function is replaced by a wrapper.
No file of the package changes.

Each wrapper records, per function, the number of calls, the inclusive time
of its outermost calls and its self time (duration minus the time of wrapped
calls made inside it).  Functions marked ``span`` also leave one span record
(id, parent id, name, start, end) in memory; functions called once per
lattice vector or per character value keep only the count and summed time.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span?).  Counted-only entries are the per-vector and
# per-coefficient kernels, where one span per call would dwarf the work.
TARGETS: Tuple[Tuple[str, str, bool], ...] = (
    ("quad_space", "epsilon_sign", False),
    ("shintani_lift", "main_theorem_check", True),
    ("shintani_lift", "lift_theta_side", True),
    ("shintani_lift", "lift_geometric_side", True),
    ("theta11", "theta11_series", True),
    ("exact_arith", "generalized_bernoulli", False),
    ("exact_arith", "bernoulli_poly", False),
    ("exact_arith", "kronecker_symbol", False),
    ("exact_arith", "divisor_power_sum", False),
    ("qseries", "cohen_eisenstein", True),
    ("qseries", "QExpansion.first_mismatch", True),
    ("qseries", "eisenstein_level1", True),
    ("sym_rep", "act", False),
    ("caps", "cap_solve", False),
    ("caps", "cap_closed_form", False),
    ("caps", "spectacle_assemble", True),
    ("periods", "spectacle_period", True),
    ("periods", "completed_L", True),
    ("periods", "geodesic_intersection_numeric", True),
)


def metric_name(module: str, attr: str) -> str:
    """``<module>.<function>``; methods drop their class name."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Call counts, times and spans, grouped per root (one op or one check)."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self._stack: List[list] = []  # frames: [child_time, span_id]
        self._active: Dict[str, int] = {}
        self._agg: Dict[str, List[float]] = {}
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def begin(self, name: str) -> None:
        """Open a root frame; wrapped calls until ``end`` are charged to it."""
        self._agg = {}
        self._root_name = name
        self._root_start = time.perf_counter()
        self._stack = [[0.0, self._new_id()]]

    def end(self) -> Tuple[Dict[str, List[float]], float]:
        """Close the root; returns ({name: [calls, incl_s, self_s]}, root self time)."""
        end = time.perf_counter()
        child, root_id = self._stack.pop()
        self.spans.append((root_id, None, self._root_name, self._root_start, end))
        return self._agg, (end - self._root_start) - child

    def wrap(self, name: str, fn: Callable, span: bool) -> Callable:
        active, spans = self._active, self.spans
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1]
            frame = [0.0, self._new_id() if span else parent[1]]
            stack.append(frame)
            depth = active.get(name, 0)
            active[name] = depth + 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[name] = depth
                parent[0] += dt
                rec = self._agg.get(name)
                if rec is None:
                    rec = self._agg[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[2] += dt - frame[0]
                if depth == 0:
                    rec[1] += dt
                if span:
                    spans.append((frame[1], parent[1], name, t0, t0 + dt))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every binding of each target function in the loaded package
        modules (importing ``spectacle.cli`` loads them all)."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "spectacle" or name.startswith("spectacle."))]
        for module, attr, span in TARGETS:
            owner = importlib.import_module(f"spectacle.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(metric_name(module, attr), getattr(cls, meth), span))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(metric_name(module, attr), original, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
