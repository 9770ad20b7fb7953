"""Spans around calls into qpd3's public functions, recorded from outside the package.

Installing a :class:`Tracer` rebinds each listed function in every loaded
``qpd3`` namespace that holds it: the defining module's globals (so calls
inside that module are seen), every ``from .x import f`` binding in sibling
modules, and the package ``__init__``.  ``StrategyParams`` stays a class, so
its construction is traced by wrapping ``StrategyParams.__init__`` instead.
Spans live in flat in-memory arrays (parent id, name, start, end) until the
run ends; :meth:`Tracer.uninstall` puts the originals back and
:meth:`Tracer.leftovers` proves that it did.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: (module, name) of every traced function, grouped by layer.
LAYERS = (
    ("linalg", "tensor3"),
    ("linalg", "outer"),
    ("linalg", "adjoint"),
    ("game", "StrategyParams"),
    ("game", "initial_state"),
    ("game", "strategy_unitary"),
    ("game", "measurement_basis"),
    ("game", "outcome_distribution"),
    ("game", "expected_payoffs"),
    ("equilibrium", "verify_nash"),
    ("equilibrium", "four_case_scan"),
    ("closedform", "sample_any"),
    ("closedform", "closed_form_payoffs"),
    ("closedform", "compare_to_oracle"),
    ("comms", "protocol_table"),
    ("comms", "decode"),
    ("comms", "information_bits"),
    ("comms", "info_relation_report"),
    ("cli", "build_verify_bundle"),
    ("cli", "render_json"),
)
NAMES = tuple(f"{module}.{name}" for module, name in LAYERS)
_ID = {name: i for i, name in enumerate(NAMES)}


def _qpd3_modules() -> list:
    return [m for key, m in list(sys.modules.items()) if key == "qpd3" or key.startswith("qpd3.")]


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.parent = array("i")
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.grids: dict[int, object] = {}  # verify_nash span id -> its grid
        self._stack = [-1]
        self._patched: list[tuple[object, str, object, object]] = []

    def _wrap(self, nid: int, fn):
        parent, name, start, end, stack = self.parent, self.name, self.start, self.end, self._stack
        grids = self.grids if nid == _ID["equilibrium.verify_nash"] else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name.append(nid)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
                if grids is not None:
                    grids[sid] = args[2] if len(args) > 2 else kwargs["grid"]

        return traced

    def install(self) -> None:
        modules = _qpd3_modules()
        for nid, (module, attr) in enumerate(LAYERS):
            home = sys.modules.get(f"qpd3.{module}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            if isinstance(original, type):
                init = vars(original)["__init__"]
                wrapper = self._wrap(nid, init)
                original.__init__ = wrapper
                self._patched.append((original, "__init__", init, wrapper))
                continue
            wrapper = self._wrap(nid, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original, wrapper))

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._patched):
            setattr(owner, key, original)

    def leftovers(self) -> list[str]:
        """Bindings that are not back to their original after :meth:`uninstall`."""
        bad = [
            f"{getattr(owner, '__name__', owner)}.{key}"
            for owner, key, original, _ in self._patched
            if vars(owner)[key] is not original
        ]
        wrappers = {id(w) for *_, w in self._patched}
        for mod in _qpd3_modules():
            bad += [f"{mod.__name__}.{k}" for k, v in vars(mod).items() if id(v) in wrappers]
        return bad

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "name": np.frombuffer(self.name, dtype=np.uint8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(NAMES), **self.arrays())

    def layer_metrics(self, ops: int, op_walls: list[float]) -> dict[str, tuple[float, str]]:
        """Per-layer counts and self times per traced op, plus count ratios."""
        a = self.arrays()
        parent, name = a["parent"], a["name"]
        dur = a["end"] - a["start"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - covered
        calls = np.bincount(name, minlength=len(NAMES))
        self_s = np.bincount(name, weights=self_time, minlength=len(NAMES))

        out: dict[str, tuple[float, str]] = {}
        for i, layer in enumerate(NAMES):
            out[f"{layer}.calls"] = (calls[i] / ops, "calls/op")
            out[f"{layer}.self_s"] = (float(self_s[i]) / ops, "s/op")

        in_nash = _under(parent, name, _ID["equilibrium.verify_nash"])
        in_oracle = _under(parent, name, _ID["game.expected_payoffs"])
        sizes = {sid: 3 * grid.size() for sid, grid in self.grids.items()}
        candidates = sum(sizes.values())
        singles = calls[_ID["game.expected_payoffs"]] + int(
            np.count_nonzero((name == _ID["game.outcome_distribution"]) & ~in_oracle)
        )
        nash_params = int(np.count_nonzero((name == _ID["game.StrategyParams"]) & in_nash))
        out["game.oracle_evals"] = ((singles + candidates) / ops, "evals/op")
        out["equilibrium.candidates"] = (candidates / ops, "candidates/op")
        # The kernel holds one (G, 8) complex128 array per player.
        out["equilibrium.batch_bytes_computed"] = (candidates * 8 * 16 / ops, "B/op")
        out["equilibrium.params_per_candidate"] = (
            nash_params / candidates if candidates else 0.0,
            "ratio",
        )
        out["trace.coverage"] = (float(dur[~nested].sum()) / sum(op_walls), "fraction")
        out["trace.ops"] = (ops, "count")
        return out


def _under(parent: np.ndarray, name: np.ndarray, target: int) -> np.ndarray:
    """Mask of spans with an ancestor span named ``target``."""
    flag = np.zeros(len(parent), dtype=bool)
    up = parent.copy()
    live = up >= 0
    while live.any():
        flag[live] |= name[up[live]] == target
        up[live] = parent[up[live]]
        live = up >= 0
    return flag
