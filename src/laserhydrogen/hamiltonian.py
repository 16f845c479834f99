"""Assembly of the rotating-frame pseudo-Hamiltonian matrix.

In the i^l-phased truncated bound basis the matrix is real symmetric:

    diagonal:      E_n + mu*omega + A^2/2
    off-diagonal:  A * <a|p_x|b>   (only for |dl| = 1 and |dmu| = 1)

The p_x elements depend only on the basis, so their positions and values
are built once per n0 (`coupling_arrays`) and each field point costs one
diagonal fill plus one scaled scatter of those values.  Every nonzero
element joins states of equal z-reflection parity (l + mu) mod 2, so the
matrix is block diagonal in the two parity classes, and `assemble` can
build one class alone: its block, in Fortran order, from the couplings of
that class, with no matrix over the whole basis.  A scan follows one
initial state, so it assembles only that state's class.

All quantities in atomic units.  The dipole (k*a0 << 1) coupling is used;
the A^2/2 ponderomotive-type constant is kept on the diagonal by default
because it drives the intensity dependence of the pseudo-energies, and can
be dropped for sensitivity studies.
"""

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (
    BasisSet,
    angular_x,
    bound_energy,
    radial_length_integral,
)
from .errors import ConfigurationError


@dataclass(frozen=True)
class LaserField:
    """Circularly polarized laser: amplitude A and frequency omega (a.u.)."""

    amplitude_A: float
    omega: float

    def __post_init__(self):
        for name in ("amplitude_A", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)!r}"
                )
        if self.amplitude_A < 0:
            raise ConfigurationError("amplitude_A must be >= 0")
        if self.omega <= 0:
            raise ConfigurationError("omega must be > 0")


@dataclass(frozen=True)
class PseudoHamiltonianMatrix:
    """H restricted to the basis positions `positions` (rows and columns).

    `assemble` sets positions, to the whole basis or to one parity class,
    and builds the matrix symmetric and without entries between the
    classes.  A matrix made elsewhere leaves positions None: it spans the
    whole basis, and `diagonalize` checks it.  include_a2 records whether
    the A^2/2 constant is on the diagonal.  The dimension is read from
    entries, so the two cannot disagree.
    """

    entries: np.ndarray
    basis: BasisSet
    laser: LaserField
    positions: np.ndarray = None
    include_a2: bool = True

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def dump(self, path):
        """Binary dump: int64 LE dimension, then the row-major lower
        triangle (diagonal included) as little-endian float64."""
        lower = self.entries[np.tril_indices(self.dimension)]
        with open(path, "wb") as fh:
            fh.write(struct.pack("<q", self.dimension))
            fh.write(lower.astype("<f8").tobytes())


def load_matrix_entries(path) -> np.ndarray:
    """Read back a matrix written by PseudoHamiltonianMatrix.dump."""
    with open(path, "rb") as fh:
        (dim,) = struct.unpack("<q", fh.read(8))
        lower = np.frombuffer(fh.read(), dtype="<f8")
    out = np.zeros((dim, dim))
    out[np.tril_indices(dim)] = lower
    return out + np.tril(out, -1).T


def assemble(
    basis: BasisSet, laser: LaserField, include_a2: bool = True, parity: int = None
) -> PseudoHamiltonianMatrix:
    """Build the real symmetric pseudo-Hamiltonian in the given basis.

    With parity 0 or 1 only the states with (l + mu) % 2 == parity are
    built: the matrix is that class's diagonal block of the whole-basis H,
    entry for entry, and its positions are the class's basis positions.
    """
    if len(basis) == 0:
        raise ConfigurationError("basis must be nonempty")
    if parity not in (None, 0, 1):
        raise ConfigurationError(f"parity must be 0, 1 or None, got {parity!r}")
    state_parity, energy, mu = _state_arrays(basis.n0)
    if parity is None:
        positions = np.arange(len(basis))
    else:
        positions = np.flatnonzero(state_parity == parity)
        if len(positions) == 0:  # n0 = 1 has no odd state
            raise ConfigurationError(
                f"no state of the n0={basis.n0} basis has parity {parity}"
            )
    dim = len(positions)
    h = np.zeros((dim, dim), order="F")
    a2_shift = 0.5 * laser.amplitude_A**2 if include_a2 else 0.0
    np.fill_diagonal(h, energy[positions] + mu[positions] * laser.omega + a2_shift)
    if laser.amplitude_A != 0.0:
        rows, cols, values = coupling_arrays(basis.n0)
        if parity is not None:
            keep = state_parity[rows] == parity  # a coupling never crosses classes
            local = np.empty(len(basis), dtype=np.intp)
            local[positions] = np.arange(dim)
            rows, cols, values = local[rows[keep]], local[cols[keep]], values[keep]
        scaled = laser.amplitude_A * values
        h[rows, cols] = scaled
        h[cols, rows] = scaled
    return PseudoHamiltonianMatrix(
        entries=h,
        basis=basis,
        laser=laser,
        positions=positions,
        include_a2=include_a2,
    )


def _position(n, l, mu):
    """Index of (n, l, mu) in the enumerate_basis order."""
    return (n - 1) * n * (2 * n - 1) // 6 + l * l + l + mu


@lru_cache(maxsize=1)
def _state_arrays(n0: int):
    """Parity (l + mu) % 2, bound energy and mu of each state of the n0
    basis, in basis order (read-only)."""
    n, l, mu = np.array([
        (n, l, mu)
        for n in range(1, n0 + 1)
        for l in range(n)
        for mu in range(-l, l + 1)
    ]).T
    out = ((l + mu) % 2, np.array([bound_energy(k) for k in n.tolist()]), mu)
    for arr in out:
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=1)
def coupling_arrays(n0: int):
    """Nonzero <a|p_x|b> of the n0 basis with l_b = l_a + 1.

    Returns read-only (rows, cols, values) with values[k] ==
    px_matrix_element(states[rows[k]], states[cols[k]]); the matrix is
    symmetric, so the mirrored entries carry the same values.  Only the
    latest basis is kept: a sweep stays on one basis, and an n0 ladder
    never returns to an earlier one.
    """
    rows, cols, values = [], [], []
    for l1 in range(n0 - 1):
        l2 = l1 + 1
        mu1 = np.repeat(np.arange(-l1, l1 + 1), 2)
        mu2 = mu1 + np.tile([-1, 1], 2 * l1 + 1)
        angular = np.array([
            angular_x(l1, m1, l2, m2)
            for m1, m2 in zip(mu1.tolist(), mu2.tolist())
        ])
        pairs = [
            (n1, n2)
            for n1 in range(l1 + 1, n0 + 1)
            for n2 in range(l2 + 1, n0 + 1)
            if n1 != n2
        ]
        radial = np.array([radial_length_integral(a, l1, b, l2) for a, b in pairs])
        de = np.array([bound_energy(b) - bound_energy(a) for a, b in pairs])
        n1, n2 = np.array(pairs).T
        rows.append(_position(n1[:, None], l1, mu1).ravel())
        cols.append(_position(n2[:, None], l2, mu2).ravel())
        # px(a, b) = (E_b - E_a) * X(a, b) with X = angular * radial, the
        # same arithmetic as basis.px_matrix_element
        values.append((de[:, None] * (angular * radial[:, None])).ravel())
    out = tuple(
        np.concatenate(part) if part else np.zeros(0, dtype=dtype)
        for part, dtype in ((rows, np.intp), (cols, np.intp), (values, float))
    )
    for arr in out:
        arr.flags.writeable = False
    return out
