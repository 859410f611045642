"""In-memory spans around the public functions of each redqueue layer.

The library is not edited.  `instrument(tracer)` rebinds each traced
function in every `redqueue` namespace that bound it by name (the CLI and
`meanfield` import theirs directly), patches `GaloisField.matmul` and
`GaloisField.solve` on the class, and restores the originals on exit.

A span is `[name, start, end, parent, attrs]`; `parent` is the index of the
enclosing span or -1.  A span's self time is its duration minus the time
its direct children cover.
"""

import contextlib
import functools
import os
import sys
import time

import numpy as np

from redqueue import cli, codec, meanfield, orderstats, sim
from redqueue.gf import GaloisField


class Tracer:
    """Append-only span list plus the stack of open spans (one thread)."""

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name, attrs):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        self._open.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._open.pop()


def _matmul_attrs(attrs, args, result):
    a, b = np.shape(args[1]), np.shape(args[2])
    attrs["mults"] = a[0] * a[1] * b[1]
    # int64 operands and result; computed from shapes, not measured traffic
    attrs["bytes_computed"] = 8 * (a[0] * a[1] + b[0] * b[1] + a[0] * b[1])


def _grid_attrs(attrs, args, result):
    attrs["grid_points"] = int(result.virtual_tail.times.size)


def _points_attrs(attrs, args, result):
    attrs["points"] = int(np.size(result))


def _sim_attrs(attrs, args, result):
    attrs.update(result.counts)


def _table_attrs(attrs, args, result):
    attrs["bytes"] = os.path.getsize(args[0])


def _coded_field(args, kwargs):
    return {"field": kwargs.get("field_order", 256)}


def _decoded_field(args, kwargs):
    return {"field": next(iter(args[0])).field_order}


def _gf_field(args, kwargs):
    return {"field": args[0].order}


# (span name, owner, attribute, attrs before the call, attrs after it)
TARGETS = (
    ("cli.main", cli, "main", None, None),
    ("cli.write_table", cli, "write_table", None, _table_attrs),
    ("cli.svg_chart", cli, "svg_chart", None, None),
    ("cli.ecdf_tail", sim, "ecdf_tail", None, None),
    ("meanfield.solve_virtual_tail", meanfield, "solve_virtual_tail", None, _grid_attrs),
    ("orderstats.order_stat_tail", orderstats, "order_stat_tail", None, _points_attrs),
    ("orderstats.rep_batch_tail", orderstats, "rep_batch_tail", None, _points_attrs),
    ("sim.run", sim, "run", None, _sim_attrs),
    ("codec.encode", codec, "encode", _coded_field, None),
    ("codec.decode", codec, "decode", _decoded_field, None),
    ("gf.matmul", GaloisField, "matmul", _gf_field, _matmul_attrs),
    ("gf.solve", GaloisField, "solve", _gf_field, None),
)


def _wrap(tracer, name, fn, before, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = before(args, kwargs) if before else {}
        sid = tracer.begin(name, attrs)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            attrs["raised"] = True
            raise
        finally:
            tracer.end(sid)
        if after:
            after(attrs, args, result)
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer):
    """Route every traced function through `tracer` inside the block."""
    modules = [
        mod for key, mod in list(sys.modules.items())
        if key == "redqueue" or key.startswith("redqueue.")
    ]
    undo = []
    try:
        for name, owner, attr, before, after in TARGETS:
            original = vars(owner)[attr]
            wrapped = _wrap(tracer, name, original, before, after)
            for target in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapped)
                        undo.append((target, key, original))
        yield tracer
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)
