"""`sim`'s sequential filters in C, loaded with ctypes: `dsq_loop`, the ecdq
loop of `sim._dsq_loop`, and `allpole`, y[m] = x[m] + sum_j a_j y[m-(1+j)s].

The first simulation in a process, in either mode, builds both into one
library with the system C compiler `cc` in `$XDG_CACHE_HOME/mdrdf`
(default `~/.cache/mdrdf`), named by the SHA-256 of the source and the
compiler flags; later processes load the cached library without
compiling. The flags keep IEEE semantics (no fast-math, no fused
multiply-add, no host-specific code), so the loop rounds exactly as the
reference loop does, except in its lag sums. Each sum over the predictor's
or the shaper's lags is taken in four partial sums, of the lags j with
j mod 4 = 0, 1, 2, 3 in lag order, combined as (s0 + s1) + (s2 + s3), so
that each sample waits on a quarter of the dependent adds; the order is
fixed, so results are deterministic, but may differ from `np.dot` and
`scipy.signal.lfilter` in the last bits. Without a compiler,
or when the build or the load fails, `load` warns once and returns None.
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
from types import SimpleNamespace

import numpy as np

from .errors import KernelUnavailableWarning

SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* sum_j c[j] x[last - j*stride] for j < len, in four partial sums over
   j mod 4, combined as (s0 + s1) + (s2 + s3): four independent chains of
   adds instead of one */
static double lagdot(const double *c, const double *x, long last, long len, long stride)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    long j = 0;
    for (; j + 4 <= len; j += 4) {
        s0 += c[j] * x[last - j * stride];
        s1 += c[j + 1] * x[last - (j + 1) * stride];
        s2 += c[j + 2] * x[last - (j + 2) * stride];
        s3 += c[j + 3] * x[last - (j + 3) * stride];
    }
    for (; j < len; j++)
        s0 += c[j] * x[last - j * stride];
    return (s0 + s1) + (s2 + s3);
}

void dsq_loop(const double *u, const double *a, long P, const double *q, long L,
              long stride, const double *dither, double step, long n,
              double *V, double *Y, double *G, int64_t *idx)
{
    for (long m = 0; m < n; m++) {
        double b = lagdot(a, V, m - stride, m / stride < P ? m / stride : P, stride);
        double et = lagdot(q, G, m - 1, m < L ? m : L, 1);
        double d = u[m] - b + et;
        double k = floor((d + dither[m]) / step + 0.5);
        double y = k * step - dither[m];
        idx[m] = (int64_t)k;
        G[m] = y - d + et;
        V[m] = y + b;
        Y[m] = y;
    }
}

void allpole(const double *x, const double *a, long P, long stride, long n, double *y)
{
    for (long m = 0; m < n; m++)
        y[m] = x[m] + lagdot(a, y, m - stride, m < P * stride ? m / stride : P, stride);
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
    """The compiled kernel, or None: `dsq_loop` with `sim._dsq_loop`'s
    signature and results, and `allpole(x, a, stride=1)`, each phase
    x[k::stride] filtered by 1/(1 - A) in one pass."""
    try:
        lib = ctypes.CDLL(str(_library()))
    except (OSError, subprocess.SubprocessError) as exc:
        warnings.warn(f"compiled kernel unavailable, running the Python loop and "
                      f"scipy.signal.lfilter: {exc}", KernelUnavailableWarning, stacklevel=2)
        return None
    f64 = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    out = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
    i64 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
    c_long = ctypes.c_long
    lib.dsq_loop.argtypes = [f64, f64, c_long, f64, c_long, c_long, f64, ctypes.c_double,
                             c_long, out, out, out, i64]
    lib.allpole.argtypes = [f64, f64, c_long, c_long, c_long, out]
    lib.dsq_loop.restype = lib.allpole.restype = None

    def dsq_loop(u, a, q, stride, dither, step):
        u, a, q, dither = (np.ascontiguousarray(x, dtype=np.float64) for x in (u, a, q, dither))
        n = u.size
        if dither.shape != u.shape or stride < 1:
            raise ValueError("u and dither must have equal shapes, and stride must be >= 1")
        V, Y, G = np.zeros(n), np.zeros(n), np.zeros(n)
        idx = np.zeros(n, dtype=np.int64)
        lib.dsq_loop(u, a, a.size, q, q.size, stride, dither, step, n, V, Y, G, idx)
        return V, Y, idx

    def allpole(x, a, stride=1):
        x, a = (np.ascontiguousarray(v, dtype=np.float64) for v in (x, a))
        if stride < 1:
            raise ValueError("stride must be >= 1")
        y = np.empty(x.size)
        lib.allpole(x, a, a.size, stride, x.size, y)
        return y

    return SimpleNamespace(dsq_loop=dsq_loop, allpole=allpole)
