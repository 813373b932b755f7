"""``backend="c"``: the batch kernels' sequential row walks, compiled.

The workspace numpy path (:mod:`repro.sim.batch_kernels`) resolves each
interval's ordered service and DP timeline with closed forms plus a
sequential repair of the rows the closed form cannot settle.  Those walks
are sequential within a row — links transmit in backoff order and each
link's attempt ceiling depends on the airtime and empty claims before it
— so ``_kernels.c`` runs them as plain per-row loops over the same
workspace arrays, bit-identical to numpy (see the contract at the top of
that file).  :mod:`repro.sim.clib` builds the library at the first bind
of a c-backend kernel.

Each entry point takes one argument struct.  A kernel binds a
:class:`Call` once, with the pointers of its persistent workspace arrays
already in the struct, and per interval passes only the arrays that
change (orders, arrivals, the channel block).  Rebuilding every pointer
on every call would cost about as much as the C body itself.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Optional

import numpy as np

from . import clib

__all__ = ["available", "load_error", "Call"]

_SOURCE = Path(__file__).with_name("_kernels.c")

_i64, _f64, _p = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


class ServeArgs(ctypes.Structure):
    _fields_ = [
        ("S", _i64), ("N", _i64), ("A", _i64), ("cap", _i64), ("air", _f64),
        ("order", _p), ("backlog", _p), ("needed", _p),
        ("delivered", _p), ("att_pos", _p), ("busy", _p),
    ]


class TimelineArgs(ctypes.Structure):
    _fields_ = [
        ("S", _i64), ("N", _i64), ("A", _i64), ("exact", _i64),
        ("T", _f64), ("air", _f64), ("slot", _f64), ("empty_air", _f64),
        ("order", _p), ("backoff", _p), ("is_empty", _p), ("backlog", _p),
        ("needed", _p), ("delivered", _p), ("att_pos", _p), ("tx", _p),
        ("start", _p), ("busy", _p), ("ovh", _p),
    ]


class IncrementalArgs(ctypes.Structure):
    _fields_ = [
        ("S", _i64), ("N", _i64), ("K", _i64), ("A", _i64),
        ("exact", _i64), ("track", _i64),
        ("T", _f64), ("air", _f64), ("slot", _f64), ("empty_air", _f64),
        ("inv", _p), ("cand", _p), ("swap", _p), ("wants_a", _p),
        ("wants_b", _p), ("bmin", _p), ("bmax", _p), ("backlog", _p),
        ("needed", _p), ("delivered", _p), ("attempts", _p), ("tx_a", _p),
        ("start_a", _p), ("busy", _p), ("ovh", _p),
    ]


def load_error() -> Optional[str]:
    """Why the compiled library cannot load here, or ``None``."""
    return clib.load_error(_SOURCE)


def available() -> bool:
    """Whether the compiled library builds and loads on this host."""
    return load_error() is None


_ARGS = {
    "serve_rows": ServeArgs,
    "timeline_rows": TimelineArgs,
    "incremental_rows": IncrementalArgs,
}


def _address(a: np.ndarray) -> int:
    if not a.flags.c_contiguous:
        raise ValueError("compiled kernels need C-contiguous arrays")
    return a.ctypes.data


class Call:
    """One entry point bound to its persistent argument struct.

    ``entry`` names the walk (``"serve_rows"``, ``"timeline_rows"``,
    ``"incremental_rows"``) and ``dtypes`` its dtype combination (the
    draw dtype, then for the timeline the start-plane dtype).  ``fields``
    fill the struct once: scalars as they are, C-contiguous arrays as
    pointers (the call object keeps the arrays alive).  ``per_call``
    maps the arrays that change every interval to their ``(dtype,
    shape)``; calling the object checks each shape, converts each array
    to its dtype in C order (a no-op on the kernels' own arrays), sets
    the pointers and runs the entry point.
    """

    __slots__ = ("args", "_fn", "_addr", "_per_call", "_bound")

    def __init__(self, entry: str, dtypes, per_call: dict, **fields):
        suffix = "_".join(f"f{np.dtype(d).itemsize * 8}" for d in dtypes)
        fn = getattr(clib.load(_SOURCE), f"{entry}_{suffix}")
        fn.argtypes = [ctypes.c_void_p]
        fn.restype = None
        self.args = _ARGS[entry](
            **{
                k: _address(v) if isinstance(v, np.ndarray) else v
                for k, v in fields.items()
            }
        )
        self._bound = [v for v in fields.values() if isinstance(v, np.ndarray)]
        self._fn = fn
        self._addr = ctypes.addressof(self.args)
        self._per_call = {
            k: (np.dtype(d), tuple(shape)) for k, (d, shape) in per_call.items()
        }

    def __call__(self, **arrays: np.ndarray) -> None:
        keep = []
        for name, a in arrays.items():
            dtype, shape = self._per_call[name]
            if a.shape != shape:
                raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
            a = np.ascontiguousarray(a, dtype=dtype)
            try:
                # A char view of the buffer is ~3x cheaper than a.ctypes.
                view = ctypes.c_char.from_buffer(a)
            except (TypeError, ValueError):  # read-only or empty
                view = a
                setattr(self.args, name, a.ctypes.data)
            else:
                setattr(self.args, name, ctypes.addressof(view))
            keep.append(view)
        self._fn(self._addr)
