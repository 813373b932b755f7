"""On-demand C libraries: built with the system compiler, loaded with ctypes.

The repository's compiled paths — the batch kernels' ``backend="c"`` row
walks (``_kernels.c``, wrapped by :mod:`repro.sim.ckernels`) and the
multi-cell topology kernel (``_cellsim.c``, wrapped by
:mod:`repro.topology.cellsim`) — ship as C source next to their wrappers.
:func:`load` builds one the first time a process asks for it, never at
import, with no build step in the package and no Python dependency:

* the shared object is cached in the temp directory under the SHA-256 of
  the source, the compiler and its flags, so an edit recompiles and later
  processes on the host reuse the cached build; the final rename is
  atomic, so concurrent builders race safely;
* a cold build evicts all but the :data:`KEEP_BUILDS` most recently
  used builds of its source (by mtime, which a cache hit refreshes), so
  edits do not pile up shared objects, while a few trees run side by
  side (say, a checkout and a branch under comparison) keep their
  builds without recompiling;
* ``-march=native`` is tried first and dropped if the toolchain rejects
  it; ``-ffp-contract=off`` keeps every floating-point expression rounded
  as written (no fused multiply-add), which bit-identity with numpy needs;
* ``CC`` names the compiler, else ``cc``, ``gcc`` or ``clang`` on
  ``PATH``.  Without a working one, :func:`load` raises ``RuntimeError``
  with the reason (cached per source) and callers fall back to numpy.

The seconds a load takes — compiling on a cold cache, ``dlopen`` on a
warm one — are reported as the ``clib.build`` perf stage, apart from the
``kernel.*`` stages they would otherwise inflate.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict, Optional, Union

from . import perf

__all__ = ["compiler", "load", "load_error"]

_BASE_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

#: Cached builds of one source that survive a cold build's eviction.
KEEP_BUILDS = 4

#: Per-source outcome of the first load: the library, or why it failed.
_libs: Dict[Path, Union[ctypes.CDLL, str]] = {}


def compiler() -> Optional[str]:
    """The C compiler :func:`load` would use, or ``None``."""
    return (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )


def _build(source: Path, cc: str) -> Path:
    code = source.read_bytes()
    stem = source.stem.lstrip("_")
    last_err = ""
    for extra in (("-march=native",), ()):
        flags = _BASE_FLAGS + extra
        digest = hashlib.sha256(code + repr((cc, flags)).encode()).hexdigest()
        lib_path = Path(tempfile.gettempdir()) / f"repro_{stem}_{digest[:20]}.so"
        if lib_path.exists():
            try:
                os.utime(lib_path)  # eviction ranks builds by last use
            except OSError:
                pass
            return lib_path
        import subprocess  # only a cold cache compiles

        tmp = lib_path.with_name(lib_path.name + f".tmp{os.getpid()}")
        cmd = [cc, *flags, str(source), "-o", str(tmp), "-lm"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode == 0:
            os.replace(tmp, lib_path)
            _evict(lib_path.parent, stem)
            return lib_path
        tmp.unlink(missing_ok=True)
        last_err = proc.stderr.strip() or f"exit {proc.returncode}"
    raise RuntimeError(f"{cc} failed: {last_err}")


def _evict(directory: Path, stem: str) -> None:
    """Delete all but the :data:`KEEP_BUILDS` newest builds of ``stem``.

    Only finished builds (``repro_<stem>_<digest>.so``) are candidates,
    never another process's in-flight ``.tmp<pid>`` file.  A build that
    vanishes meanwhile (a concurrent eviction) is skipped.
    """
    builds = []
    for path in directory.glob(f"repro_{stem}_{'[0-9a-f]' * 20}.so"):
        try:
            builds.append((path.stat().st_mtime, path))
        except OSError:
            pass
    builds.sort(reverse=True)
    for _, path in builds[KEEP_BUILDS:]:
        try:
            path.unlink()
        except OSError:
            pass


def load(source: Path) -> ctypes.CDLL:
    """Build (or reuse) and load the shared object of one C source."""
    got = _libs.get(source)
    if isinstance(got, ctypes.CDLL):
        return got
    if got is not None:
        raise RuntimeError(got)
    t0 = perf.clock()
    try:
        cc = compiler()
        if cc is None:
            raise RuntimeError("no C compiler on PATH (set CC to override)")
        lib = ctypes.CDLL(str(_build(source, cc)))
    except (OSError, RuntimeError) as exc:
        _libs[source] = f"cannot build {source.name}: {exc}"
        raise RuntimeError(_libs[source]) from None
    _libs[source] = lib
    if perf.counters.enabled:
        perf.counters.add("clib.build", perf.clock() - t0)
    return lib


def load_error(source: Path) -> Optional[str]:
    """Why :func:`load` fails for ``source``, or ``None`` when it loads."""
    try:
        load(source)
    except RuntimeError as exc:
        return str(exc)
    return None
