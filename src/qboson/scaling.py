"""Scaling-law fit for Pauli-string counts: y = (1/Q) ln N = a + (b + c ln Q)/Q.

A nonzero fitted ``a`` signals exponential growth of N with Q. Natural
logarithms throughout; on the exact series N = Q 2**(Q-1) the ansatz is an
identity with (a, b, c) = (ln 2, -ln 2, 1).
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScalingSeries:
    qs: tuple[int, ...]
    n_pauli: tuple[int, ...]

    def __post_init__(self):
        if len(self.qs) != len(self.n_pauli):
            raise ValueError("qs and n_pauli must have equal length")
        if any(q2 <= q1 for q1, q2 in zip(self.qs, self.qs[1:])):
            raise ValueError("Q values must be strictly increasing")
        if any(q < 1 for q in self.qs):  # the fit divides by Q and takes ln Q
            raise ValueError("Q values must be >= 1")
        if any(n < 1 for n in self.n_pauli):
            raise ValueError("string counts must be >= 1")

    def __len__(self) -> int:
        return len(self.qs)

    @property
    def y(self) -> np.ndarray:
        """(1/Q) ln N_Pauli per row."""
        return np.log(np.asarray(self.n_pauli, dtype=float)) / np.asarray(self.qs, dtype=float)


@dataclass(frozen=True)
class FitResult:
    a: float
    b: float
    c: float
    residual_rms: float
    covariance_diag: tuple[float, float, float]

    def predict(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return self.a + (self.b + self.c * np.log(q)) / q


def fit_scaling(series: ScalingSeries) -> FitResult:
    """Ordinary least squares on regressors [1, 1/Q, ln Q / Q].

    Solves the 3x3 normal equations exactly; needs >= 4 rows and >= 3
    distinct Q (always true for a valid series of length >= 4).
    """
    if len(series) < 4:
        raise ValueError(f"need at least 4 data rows, got {len(series)}")
    q = np.asarray(series.qs, dtype=float)
    y = series.y
    design = np.column_stack([np.ones_like(q), 1.0 / q, np.log(q) / q])
    gram = design.T @ design
    if np.linalg.cond(gram) > 1e12:
        raise ValueError("rank-deficient design (need at least 3 distinct Q)")
    beta = np.linalg.solve(gram, design.T @ y)
    resid = y - design @ beta
    dof = max(len(series) - 3, 1)
    sigma2 = float(resid @ resid) / dof
    cov_diag = sigma2 * np.diag(np.linalg.inv(gram))
    return FitResult(float(beta[0]), float(beta[1]), float(beta[2]),
                     float(np.sqrt(np.mean(resid**2))),
                     tuple(float(v) for v in cov_diag))


# -- CSV interchange (as written by the count/table commands) --------------------

def series_to_csv(series: ScalingSeries) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["Q", "n_pauli", "y"])
    for q, n, y in zip(series.qs, series.n_pauli, series.y):
        writer.writerow([q, n, f"{y:.12g}"])
    return buf.getvalue()


def series_from_csv(text: str) -> ScalingSeries:
    """Read the Q and n_pauli columns; a bad cell is named by its CSV line and column."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ValueError("empty CSV")
    cols = {name.lower().strip(): name for name in reader.fieldnames}
    if "q" not in cols or "n_pauli" not in cols:
        raise ValueError(f"need columns Q and n_pauli, got {reader.fieldnames}")

    def cell(row, column) -> int:
        where, text = f"line {reader.line_num}, column {column}", row[column]
        if text is None:
            raise ValueError(f"{where}: missing cell")
        try:
            value = int(text)
            float(value)  # the fit works in floats
        except ValueError:
            raise ValueError(f"{where}: {text!r} is not an integer") from None
        except OverflowError:
            raise ValueError(f"{where}: {text!r} is past the float range") from None
        return value

    qs, ns = [], []
    for row in reader:
        qs.append(cell(row, cols["q"]))
        ns.append(cell(row, cols["n_pauli"]))
    return ScalingSeries(tuple(qs), tuple(ns))
