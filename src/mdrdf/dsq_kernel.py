"""The ecdq loop of `sim._dsq_loop`, compiled to C and loaded with ctypes.

The first ecdq simulation in a process builds the kernel with the system C
compiler `cc` into `$XDG_CACHE_HOME/mdrdf` (default `~/.cache/mdrdf`),
under a file name keyed by the SHA-256 of the source and the compiler
flags; later processes load the cached library without compiling. The
flags keep IEEE semantics (no fast-math, no fused multiply-add, no
host-specific code), so the kernel rounds exactly as the reference loop
does; only its dot products, summed in lag order, may differ from
`np.dot` in the last bits of V. Without a compiler, or when the build or
the load fails, `load` warns once and returns None, and `sim` runs the
Python reference loop.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .errors import KernelUnavailableWarning

SOURCE = r"""
#include <math.h>
#include <stdint.h>

void dsq_loop(const double *u, const double *a, long P, const double *q, long L,
              long stride, const double *dither, double step, long n,
              double *V, double *Y, double *G, int64_t *idx)
{
    for (long m = 0; m < n; m++) {
        double b = 0.0, et = 0.0;
        for (long j = 0; j < P && m - (j + 1) * stride >= 0; j++)
            b += a[j] * V[m - (j + 1) * stride];
        for (long k = 0; k < L && m - 1 - k >= 0; k++)
            et += q[k] * G[m - 1 - k];
        double d = u[m] - b + et;
        double k = floor((d + dither[m]) / step + 0.5);
        double y = k * step - dither[m];
        idx[m] = (int64_t)k;
        G[m] = y - d + et;
        V[m] = y + b;
        Y[m] = y;
    }
}
"""
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _library() -> Path:
    """Path of the cached library, building it first if it is missing."""
    key = hashlib.sha256((SOURCE + " ".join(CFLAGS)).encode()).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "mdrdf"
    lib = cache / f"dsq_loop-{key}.so"
    if lib.exists():
        return lib
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler 'cc' on PATH")
    cache.mkdir(parents=True, exist_ok=True)
    # build in a private directory beside the target, then rename into place,
    # so a concurrent process never loads a half-written library
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        src, out = Path(tmp) / "dsq_loop.c", Path(tmp) / lib.name
        src.write_text(SOURCE)
        subprocess.run([cc, *CFLAGS, "-o", str(out), str(src), "-lm"],
                       check=True, capture_output=True, timeout=120)
        os.replace(out, lib)
    return lib


@functools.cache
def load():
    """The compiled loop, with `sim._dsq_loop`'s signature and results, or None."""
    try:
        fn = ctypes.CDLL(str(_library())).dsq_loop
    except (OSError, subprocess.SubprocessError) as exc:
        warnings.warn(f"compiled ecdq loop unavailable, running the Python loop: {exc}",
                      KernelUnavailableWarning, stacklevel=2)
        return None
    f64 = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    out = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
    i64 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
    c_long = ctypes.c_long
    fn.argtypes = [f64, f64, c_long, f64, c_long, c_long, f64, ctypes.c_double, c_long,
                   out, out, out, i64]
    fn.restype = None

    def dsq_loop(u, a, q, stride, dither, step):
        u, a, q, dither = (np.ascontiguousarray(x, dtype=np.float64) for x in (u, a, q, dither))
        n = u.size
        if dither.shape != u.shape or stride < 1:
            raise ValueError("u and dither must have equal shapes, and stride must be >= 1")
        V, Y, G = np.zeros(n), np.zeros(n), np.zeros(n)
        idx = np.zeros(n, dtype=np.int64)
        fn(u, a, a.size, q, q.size, stride, dither, step, n, V, Y, G, idx)
        return V, Y, idx

    return dsq_loop
