"""A fixed piece of work that measures how fast the machine is right now.

The machine the benchmark was built on is shared, and other tenants change
its speed by up to 1.7x for seconds to minutes at a time, longer than one
run.  The workload process therefore times a round of this calibration
after the run and after the verify calls of each repetition, and run.py
multiplies the repetition's times by CAL_REF_S / (its mean round).  The
work here never changes with the program under test; it only imitates the
kinds of work the program does, so that it slows down with it:

- `contract`: a 48 x 48 matrix contracted with each axis of a 48 x 48
  array, then exp and log;
- `sinkhorn`: log-domain Sinkhorn iterations on a 48 x 48 grid, with the
  masking and marginal test of each iteration;
- `spectral`: real FFTs of 256 values and 2D FFTs of 48 x 48;
- `transport1d`: cumulative sums, sorted merges, searches and scatter-adds
  on 257 values;
- `quantile1d`: the quantile coupling of two 1D densities on 256 cells,
  with three quadrature nodes per interval;
- `interpreter`: a loop of Python arithmetic and dict look-ups;
- `text`: writing an array as text and parsing it back, as run directories
  are written and read.

Each kernel takes 1.3-2 ms on a 2-core Xeon VM, 12 ms a round.
"""

from __future__ import annotations

import io
import time

import numpy as np

_RNG = np.random.default_rng(20070459)
_KMAT = np.exp(-((np.arange(48)[:, None] - np.arange(48)[None, :]) / 6.0) ** 2)
_FIELD = _RNG.random((48, 48)) + 0.1
_LINE = _RNG.random(256)
_CDF_A = np.concatenate([[0.0], np.cumsum(_RNG.random(256))])
_CDF_B = np.concatenate([[0.0], np.cumsum(_RNG.random(256))])
_TABLE = _RNG.random((256, 2))

# sinkhorn: Gibbs kernel of epsilon 0.1 on 48 points of [-8, 8], two
# densities of mass 1
_EPS = 0.1
_X48 = np.linspace(-8, 8, 48)
_GIBBS = np.exp(-((_X48[:, None] - _X48[None, :]) ** 2) / _EPS)
_A = _RNG.random((48, 48)) + 0.5
_A /= _A.sum()
_B = _RNG.random((48, 48)) + 0.5
_B /= _B.sum()
_LA = np.log(_A) * _EPS
_LB = np.log(_B) * _EPS

# quantile1d: cumulative distributions of two Gaussians on 256 cells
_N = 256
_EDGES = np.linspace(-20, 20, _N + 1)
_CU = np.concatenate([[0.0], np.cumsum(np.exp(-np.linspace(-20, 20, _N) ** 2 / 2))])
_CU /= _CU[-1]
_CV = np.concatenate([[0.0], np.cumsum(np.exp(-(np.linspace(-20, 20, _N) - 0.3) ** 2 / 2.2))])
_CV /= _CV[-1]


def contract():
    out = _FIELD
    for _ in range(30):
        out = np.tensordot(_KMAT, out, axes=([1], [0]))
        out = np.tensordot(out, _KMAT, axes=([1], [1]))
        out = np.exp(-np.log(out / out.max()) * 0.5)


def _softmin(psi):
    shift = np.max(psi[np.isfinite(psi)])
    out = np.exp((psi - shift) / _EPS)
    for axis in range(2):
        out = np.moveaxis(np.tensordot(_GIBBS, out, axes=([1], [axis])), 0, axis)
    return -_EPS * np.log(out) - shift


def sinkhorn():
    g = np.zeros((48, 48))
    for _ in range(4):
        f = _softmin(g + _LB)
        f = np.where(np.isfinite(f), f, 0.0)
        g = _softmin(f + _LA)
        g = np.where(np.isfinite(g), g, 0.0)
        row = _A * np.exp(np.clip((f - _softmin(g + _LB)) / _EPS, -700, 700))
        float(np.sum(np.abs(row - _A)))


def spectral():
    for _ in range(40):
        np.fft.irfft(np.fft.rfft(_LINE) * 0.5, n=256)
    for _ in range(10):
        np.fft.ifft2(np.fft.fft2(_FIELD) * 0.5).real


def transport1d():
    for _ in range(40):
        qs = np.union1d(_CDF_A, _CDF_B)
        idx = np.clip(np.searchsorted(_CDF_A, qs, side="left"), 1, 256)
        acc = np.zeros(257)
        np.add.at(acc, idx, np.diff(qs, prepend=0.0))
        np.interp(qs, _CDF_B, _CDF_A)


def _quantile(q, cum):
    idx = np.clip(np.searchsorted(cum, q, side="left"), 1, len(cum) - 1)
    denom = cum[idx] - cum[idx - 1]
    safe = denom > 0
    frac = np.where(safe, (q - cum[idx - 1]) / np.where(safe, denom, 1.0), 0.0)
    return _EDGES[idx - 1] + frac * (_EDGES[idx] - _EDGES[idx - 1])


def quantile1d():
    for _ in range(4):
        qs = np.union1d(_CU, _CV)
        a, w = qs[:-1], np.diff(qs)
        keep = w > 0
        a, w = a[keep], w[keep]
        total = 0.0
        seg = np.zeros(len(a))
        for fr, cf in ((0.0, 1.0), (0.5, 4.0), (1.0, 1.0)):
            tu, tv = _quantile(a + w * fr, _CU), _quantile(a + w * fr, _CV)
            total += cf * np.sum(w / 3.0 * (tu - tv) ** 2)
            seg += cf * (w / 3.0) * tv
        own = np.clip(np.searchsorted(_CU, a, side="right") - 1, 0, _N - 1)
        acc = np.zeros(_N)
        np.add.at(acc, own, seg)
        np.cumsum(acc)


def interpreter():
    table = {i: float(i) for i in range(64)}
    s = 0.0
    for i in range(16000):
        s += table[i & 63] * 0.5 - i
    return s


def text():
    for _ in range(2):
        buf = io.StringIO()
        np.savetxt(buf, _TABLE, fmt="%.17g")
        buf.seek(0)
        np.loadtxt(buf)


KERNELS = (contract, sinkhorn, spectral, transport1d, quantile1d, interpreter, text)


def timed_round() -> list:
    """Seconds each kernel takes, once each, in KERNELS order."""
    out = []
    for kernel in KERNELS:
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out
