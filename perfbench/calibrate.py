"""A fixed reference computation, timed between units to follow the host's speed.

A shared host runs the same code at different speeds from one minute to
the next: its other tenants contend for caches and memory bandwidth. The
kernel here is independent of csmooth, so it does the same work for every
commit, and the benchmark divides its unit times by the kernel's. It does
what moved most with csmooth's own times on a shared host: a sparse
factorization with its solve, a dense LU factorization, and arithmetic
streamed over numpy arrays larger than the caches. Interpreted Python is
left out; its speed on such a host moved independently of csmooth's.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

SIDE = 120              # the factorized SIDE x SIDE grid Laplacian
STREAM = 2_000_000      # doubles per streamed array (16 MB)
STREAM_PASSES = 3
DENSE = 400             # order of the dense LU factorization


def _laplacian(n: int) -> sp.csc_matrix:
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    return (sp.kron(line, eye) + sp.kron(eye, line) + 0.01 * sp.identity(n * n)).tocsc()


_MATRIX = _laplacian(SIDE)
_RHS = np.linspace(0.0, 1.0, SIDE * SIDE)
_STREAM = np.linspace(0.0, 1.0, STREAM)
_DENSE = np.add.outer(np.arange(DENSE), np.arange(DENSE)) % 7 + DENSE * np.eye(DENSE)


def kernel_seconds() -> float:
    """Time one pass of the kernel; checks its own answer so no step is skipped."""
    t = time.perf_counter()
    x = splu(_MATRIX).solve(_RHS)
    y = _STREAM
    for _ in range(STREAM_PASSES):
        y = np.maximum(y * 0.5 - 0.25, 0.0) + _STREAM
    lu, _ = scipy.linalg.lu_factor(_DENSE)
    elapsed = time.perf_counter() - t
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(lu).all()):
        raise RuntimeError("calibration kernel gave a wrong answer")
    return elapsed
