"""Assembly of the rotating-frame pseudo-Hamiltonian, one parity class.

In the i^l-phased truncated bound basis the matrix is real symmetric:

    diagonal:      E_n + mu*omega + A^2/2
    off-diagonal:  A * <a|p_x|b>   (only for |dl| = 1 and |dmu| = 1)

The p_x elements depend only on the basis, so their positions and values
are built once per n0 (`basis.coupling_arrays`) and each field point costs
one diagonal fill plus one scaled scatter of those values.  Every nonzero
element joins states of equal z-reflection parity (l + mu) mod 2, so H is
block diagonal in the two parity classes, and `assemble` builds one class:
its block, in Fortran order, from the couplings of that class.  No matrix
over the whole basis is ever built; a scan follows one initial state and
assembles only that state's class.

All quantities in atomic units.  The dipole (k*a0 << 1) coupling is used;
the A^2/2 ponderomotive-type constant is kept on the diagonal by default
because it drives the intensity dependence of the pseudo-energies, and can
be dropped for sensitivity studies.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, coupling_arrays
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
    """H restricted to the states of one parity class (rows and columns in
    the order of `basis.class_positions(parity)`).

    `assemble` builds entries symmetric and read-only, and `diagonalize`
    refuses entries that are writeable or not of the class's size.
    include_a2 records whether the A^2/2 constant is on the diagonal.  The
    dimension is read from entries, so the two cannot disagree.
    """

    entries: np.ndarray
    basis: BasisSet
    laser: LaserField
    parity: int
    include_a2: bool = True

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


def assemble(
    basis: BasisSet, laser: LaserField, include_a2: bool = True, parity: int = 0
) -> PseudoHamiltonianMatrix:
    """Build the real symmetric pseudo-Hamiltonian of one parity class.

    The matrix is the diagonal block of the class `parity` (0 or 1) in the
    whole-basis H, entry for entry.  Class 0 holds the 1s state.
    """
    if parity not in (0, 1):
        raise ConfigurationError(f"parity must be 0 or 1, got {parity!r}")
    positions = basis.class_positions(parity)
    if len(positions) == 0:  # n0 = 1 has no odd state
        raise ConfigurationError(
            f"no state of the n0={basis.n0} basis has parity {parity}"
        )
    dim = len(positions)
    h = np.zeros((dim, dim), order="F")
    a2_shift = 0.5 * laser.amplitude_A**2 if include_a2 else 0.0
    np.fill_diagonal(
        h, basis.energy[positions] + basis.mu[positions] * laser.omega + a2_shift
    )
    if laser.amplitude_A != 0.0:
        rows, cols, values = coupling_arrays(basis.n0)
        keep = basis.parity[rows] == parity  # a coupling never crosses classes
        local = np.empty(len(basis), dtype=np.intp)
        local[positions] = np.arange(dim)
        rows, cols = local[rows[keep]], local[cols[keep]]
        scaled = laser.amplitude_A * values[keep]
        h[rows, cols] = scaled
        h[cols, rows] = scaled
    h.flags.writeable = False
    return PseudoHamiltonianMatrix(h, basis, laser, parity, include_a2)
