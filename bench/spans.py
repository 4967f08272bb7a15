"""In-memory span recorder and the wrappers that feed it.

A span is ``[name, kind, start_ns, end_ns, parent, info]``. ``kind`` is
"op" (a ``tensor`` function), "module" (a model module's ``forward``), "fn"
(any other guidedepth function) or "bench" (the benchmark's own work);
``parent`` is the index of the enclosing span (-1 at the root) and ``info``
holds counts taken at the boundary (MACs, bytes, conv signature). Spans come
from wrappers the benchmark installs around guidedepth's public functions
and module ``forward`` methods; nothing inside ``src/`` is edited.
``Instrumentation`` undoes every rebinding on exit, so an untraced run pays
nothing.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from pathlib import Path

NAME, KIND, START, END, PARENT, INFO = range(6)


class Recorder:
    """Append-only list of spans plus the stack of currently open ones."""

    def __init__(self):
        self.spans: list[list] = []
        self._open = [-1]

    def open(self, name: str, kind: str) -> int:
        i = len(self.spans)
        self.spans.append([name, kind, time.perf_counter_ns(), 0, self._open[-1], None])
        self._open.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][END] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, kind: str = "bench"):
        i = self.open(name, kind)
        try:
            yield i
        finally:
            self.close(i)

    def wrap(self, name: str, fn, kind: str = "fn", describe=None):
        """Return ``fn`` recording one span per call; ``describe(args, kwargs,
        result)`` runs after the span closes and fills its ``info``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name, kind)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if describe is not None:
                self.spans[i][INFO] = describe(args, kwargs, out)
            return out

        return wrapper

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Counts taken at op boundaries
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos: int, name: str, default):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def conv_category(kh: int, kw: int, stride: int) -> str:
    return "conv2d_1x1" if (kh, kw) == (1, 1) else f"conv2d_{kh}x{kw}s{stride}"


def _describe_conv(args, kwargs, out):
    x = _arg(args, kwargs, 0, "x", None)
    weight = _arg(args, kwargs, 1, "weight", None)
    bias = _arg(args, kwargs, 2, "bias", None)
    stride = _arg(args, kwargs, 3, "stride", 1)
    padding = _arg(args, kwargs, 4, "padding", 0)
    n, _, h, w = x.shape
    co, ci, kh, kw = weight.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    return {
        "cat": conv_category(kh, kw, stride),
        "macs": n * co * ci * kh * kw * oh * ow,
        # replay key: shapes, stride, padding and which inputs take a gradient
        "sig": (x.shape, weight.shape, stride, padding,
                x.requires_grad, weight.requires_grad, bias.requires_grad, x.dtype.name),
        "grad": bool(out.requires_grad),
    }


def _describe_dense(args, kwargs, out):
    x = _arg(args, kwargs, 0, "x", None)
    weight = _arg(args, kwargs, 1, "weight", None)
    co, ci = weight.shape[:2]
    return {"macs": x.shape[0] * co * ci}


def _describe_write(args, kwargs, out):
    return {"bytes": int(_arg(args, kwargs, 1, "arr", None).nbytes)}


def _describe_read(args, kwargs, out):
    return {"bytes": int(out.nbytes)}


_DESCRIBE = {
    "tensor.conv2d": _describe_conv,
    "tensor.dense": _describe_dense,
    "gdt.write_array": _describe_write,
    "gdt.read_array": _describe_read,
}


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------


def guidedepth_modules() -> list:
    return sorted(
        (m for name, m in list(sys.modules.items()) if name == "guidedepth" or name.startswith("guidedepth.")),
        key=lambda m: m.__name__,
    )


def public_functions(module) -> dict[str, object]:
    """Public plain functions defined in ``module`` itself (not re-exports).

    Context-manager factories such as ``no_grad`` are left out: a span around
    them would time only the creation of the manager, not the block it guards.
    """
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not inspect.isgeneratorfunction(getattr(obj, "__wrapped__", None))
    }


_ABSENT = object()  # marks an attribute that did not exist before it was set


class Instrumentation:
    """Context manager that routes guidedepth calls through a ``Recorder``.

    On entry every public function of every ``guidedepth.*`` module is
    wrapped, and each module global that is the same object as a wrapped
    function is rebound to the wrapper, so calls between modules (blocks into
    tensor, losses into tensor, evaluate into tensor) are caught. ``watch``
    wraps each module instance's ``forward`` under its attribute path. On
    exit every rebound global and instance attribute is put back.
    """

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []  # (owner, attr, old or _ABSENT)

    def __enter__(self) -> "Instrumentation":
        wrappers: dict[int, object] = {}
        mods = guidedepth_modules()
        for m in mods:
            short = m.__name__.rpartition(".")[2]
            for name, fn in public_functions(m).items():
                span = f"{short}.{name}"
                kind = "op" if short == "tensor" else "fn"
                wrappers[id(fn)] = self.rec.wrap(span, fn, kind, _DESCRIBE.get(span))
        for m in mods:
            for name, val in list(vars(m).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._set(m, name, w)
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _set(self, owner, attr: str, value) -> None:
        old = vars(owner).get(attr, _ABSENT)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def watch(self, model) -> None:
        """Wrap ``forward`` of ``model`` and every module under it, keyed
        ``blocks.<attribute path>``; the root is ``blocks.model``."""
        for path, mod in modules(model):
            self._set(mod, "forward", self.rec.wrap(f"blocks.{path or 'model'}", mod.forward, "module"))
        if hasattr(model, "guidance_pyramid"):
            self._set(model, "guidance_pyramid",
                      self.rec.wrap("blocks.guidance_pyramid", model.guidance_pyramid, "module"))


def modules(root, path: str = ""):
    """(attribute path, module) for ``root`` and every module reachable from it
    through attributes and lists, in assignment order."""
    from guidedepth.blocks import Module

    yield path, root
    for name, val in list(vars(root).items()):
        items = enumerate(val) if isinstance(val, (list, tuple)) else [(None, val)]
        for i, item in items:
            if isinstance(item, Module):
                sub = name if i is None else f"{name}.{i}"
                yield from modules(item, f"{path}.{sub}" if path else sub)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def duration_ns(s) -> int:
    return s[END] - s[START]


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Calls are nested and single-threaded, so siblings never overlap and the
    covered time is the sum of the children's durations.
    """
    out = [duration_ns(s) for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= duration_ns(s)
    return out


def roots(spans: list[list]) -> list[int]:
    """Index of the outermost ancestor of each span (parents precede children)."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[PARENT] < 0 else out[s[PARENT]])
    return out
