"""Traced CLI call: ``python tracer.py SPANS.json ARG...`` runs ``lafte.cli.main(ARGS)``.

Before running the CLI it wraps every public function of each lafte module
in every lafte namespace that holds it (modules bind names with ``from .x
import y``, so patching the defining module alone would miss most calls).
Each call records a span ``[name, start, end, parent, attrs]``; spans stay in
memory and are written to SPANS.json when the command ends. Work the tracer
itself does (hashing fit inputs, sizing files) is recorded as a
``trace.bookkeeping`` span so it is not charged to any layer.

Fit attributes: ``rows`` fitted, whether the fit computed a cluster sandwich,
and a digest of (response, design, instruments, cluster labels) from which
the benchmark counts fits repeated within one command.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "data", "regression", "estimands", "diagnostics", "bounds",
          "report", "strata", "verify")

clock = time.perf_counter


# Digests of read-only arrays (table columns, cluster labels) by id; the
# cached array is kept alive so its id cannot be reused.
_frozen_digests: dict[int, tuple[object, bytes]] = {}


def _array_digest(a) -> bytes:
    h = hashlib.blake2b(f"{a.dtype.str}{a.shape}".encode(), digest_size=16)
    if a.dtype == object:
        h.update("\x1f".join(map(str, a.ravel())).encode())
    else:
        h.update(memoryview(a).cast("B"))
    return h.digest()


def _digest(*parts) -> str:
    import numpy as np  # loaded by lafte already; kept out of the import span

    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if part is None or isinstance(part, str):
            h.update(repr(part).encode())
            continue
        a = np.ascontiguousarray(part)
        if a.flags.writeable:
            h.update(_array_digest(a))
            continue
        if id(a) not in _frozen_digests:
            _frozen_digests[id(a)] = (a, _array_digest(a))
        h.update(_frozen_digests[id(a)][1])
    return h.hexdigest()


def _annotate(name: str, bound: inspect.BoundArguments, result) -> dict:
    import numpy as np

    a = bound.arguments
    if name in ("data.load_table", "data.save_table"):
        return {"bytes": os.path.getsize(a["path"])}
    if name == "regression.stack":
        return {"rows": int(result.response.shape[0])}
    if name == "regression.fit_stacked":
        # A stacked fit always takes the cluster sandwich: the rows that
        # repeat one observation (or one cluster) form one unit.
        s = a["system"]
        return {"rows": int(s.response.shape[0]), "clustered": True,
                "digest": _digest(name, s.response, s.design, s.instruments,
                                  s.cluster_labels)}
    if name == "regression.ols":
        parts = (a["y"], a["x"], None, a.get("cluster"))
    else:  # tsls: y on [1, d, controls] instrumented by [1, z, controls]
        parts = (a["y"], a["d"], a["z"], a.get("controls"), a.get("cluster"))
    return {"rows": int(np.asarray(a["y"]).shape[0]), "clustered": a.get("cluster") is not None,
            "digest": _digest(name, *parts)}


_ANNOTATED = {"regression.ols", "regression.tsls", "regression.fit_stacked",
              "regression.stack", "data.load_table", "data.save_table"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def record(self, name, start, end, parent, attrs=None):
        self.spans.append([name, start, end, parent, attrs])

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in _ANNOTATED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            sid = len(self.spans)
            self.spans.append(None)
            self.stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.spans[sid] = [name, start, end, parent, None]
            if signature is not None:
                b0 = clock()
                self.spans[sid][4] = _annotate(name, signature.bind(*args, **kwargs), result)
                self.record("trace.bookkeeping", b0, clock(), parent)
            return result

        return traced

    def install(self) -> None:
        modules = [sys.modules[f"lafte.{layer}"] for layer in LAYERS]
        wrapped = {}
        for module in modules:
            layer = module.__name__.split(".")[-1]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        namespaces = [m for name, m in sys.modules.items()
                      if name == "lafte" or name.startswith("lafte.")]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                try:
                    replacement = wrapped.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if replacement is not None:
                    setattr(namespace, attr, replacement)


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    tracer = Tracer()
    start = clock()
    import lafte.cli
    tracer.record("import.lafte_cli", start, clock(), None)
    tracer.install()
    try:
        code = lafte.cli.main(args)
    finally:
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
