"""Reference transforms and CSV reading for the grid-numeric workload.

A grid (p, M, N) holds p**(M+N) samples indexed by the digits at
positions -M+1 .. N, first position most significant.  The reference
transform is numpy.fft.fftn on the (p,)*(M+N) tensor view with the axes
reversed (the duality pairs position j with dual position 1 - j) and
scaled by the cell measure; it shares no code with the library.
"""

from __future__ import annotations

import functools

import numpy as np


def _tensor(values: np.ndarray, p: int) -> np.ndarray:
    n = round(np.log(values.size) / np.log(p))
    return values.reshape((p,) * n)


def _reversed_axes(t: np.ndarray, p: int, fine: int) -> np.ndarray:
    return t.transpose(tuple(reversed(range(t.ndim)))).reshape(-1) * float(p) ** (-fine)


def forward(values: np.ndarray, p: int, fine: int) -> np.ndarray:
    """Transform of samples on a grid of the given fine depth onto its dual."""
    return _reversed_axes(np.fft.fftn(_tensor(values, p)), p, fine)


def inverse(values: np.ndarray, p: int, fine: int) -> np.ndarray:
    """Inverse transform of samples on a grid of the given fine depth."""
    return _reversed_axes(np.fft.ifftn(_tensor(values, p)) * values.size, p, fine)


def indicator(p: int, M: int, N: int, cylinders) -> np.ndarray:
    """0/1 samples on grid (p, M, N) of a union of disjoint
    (resolution, {position: digit}) cylinders."""
    positions = range(-M + 1, N + 1)
    t = np.zeros((p,) * (M + N))
    for res, pinned in cylinders:
        assert res <= N and min(pinned) >= -M + 1, "cylinder outside the grid"
        t[tuple(pinned.get(q, 0) if q <= res else slice(None) for q in positions)] = 1.0
    return t.reshape(-1).astype(np.complex128)


def norm(values: np.ndarray, p: int, fine: int) -> float:
    return float(np.sqrt(float(p) ** (-fine) * np.sum(np.abs(values) ** 2)))


@functools.lru_cache(maxsize=16)
def labels(p: int, M: int, N: int) -> tuple[str, ...]:
    """Radix-point cell labels in index order: digits at positions <= 0
    before the point without leading zeros, the rest after it without
    trailing zeros."""
    out = []
    for i in range(p ** (M + N)):
        digits = np.base_repr(i, p).lower().zfill(M + N)
        out.append(f"{digits[:M].lstrip('0')}.{digits[M:].rstrip('0')}")
    return tuple(out)


def read_samples(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != "cell,re,im":
        raise ValueError(f"{path}: bad header")
    cells, re, im = zip(*(line.split(",") for line in lines[1:]))
    return list(cells), np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
