"""Assembly of the rotating-frame pseudo-Hamiltonian, one parity class.

In the i^l-phased truncated bound basis the matrix is real symmetric:

    diagonal:      E_n + mu*omega + A^2/2
    off-diagonal:  A * <a|p_x|b>   (only for |dl| = 1 and |dmu| = 1)

The p_x elements depend only on the basis, so their positions and values
are built once per n0 (`basis.coupling_arrays`) and each field point costs
one diagonal fill plus one scaled scatter of those values.  Every nonzero
element joins states of equal z-reflection parity (l + mu) mod 2, so H is
block diagonal in the two parity classes.  `class_terms` gives the pieces
of one class, its diagonal (`class_diagonal`) and its scaled couplings;
`assemble` scatters them into that class's block, in Fortran order.  The
folded solve of the eigensolver reads the positions and p_x values of the
couplings from `class_terms` once per basis and class, and per field point
only the diagonal and the scaled scatter into the block between the
class's two mu halves.  No matrix over the whole basis is ever built; a
scan follows one initial state and solves only in that state's class.

All quantities in atomic units.  The dipole (k*a0 << 1) coupling is used.
The A^2/2 ponderomotive-type constant is always on the diagonal: it drives
the intensity dependence of the pseudo-energies, and as a multiple of the
identity it shifts every level alike and changes no dressed state, so a
study without it shifts E_i afterwards (`--drop-a2`, read by the
ionization scan alone) instead of solving another matrix.  A matrix keeps
only its entries, basis and parity class; the caller that assembled it
holds the field.
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
    refuses entries that are writeable or not of the class's size.  The
    dimension is read from entries, so the two cannot disagree.
    """

    entries: np.ndarray
    basis: BasisSet
    parity: int

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


def class_diagonal(basis: BasisSet, laser: LaserField, parity: int) -> np.ndarray:
    """E_n + mu*omega + A^2/2 of each state of the class `parity` (0 or 1),
    in the order of `basis.class_positions(parity)`.

    Raises ConfigurationError for a parity other than 0 or 1 and for an
    empty class.
    """
    if parity not in (0, 1):
        raise ConfigurationError(f"parity must be 0 or 1, got {parity!r}")
    positions = basis.class_positions(parity)
    if len(positions) == 0:  # n0 = 1 has no odd state
        raise ConfigurationError(
            f"no state of the n0={basis.n0} basis has parity {parity}"
        )
    return (basis.energy[positions] + basis.mu[positions] * laser.omega
            + 0.5 * laser.amplitude_A**2)


def class_terms(basis: BasisSet, laser: LaserField, parity: int):
    """The pieces of the class `parity` (0 or 1) of H: its diagonal and its
    couplings (rows, cols, A * p_x) with rows and cols indices into
    `basis.class_positions(parity)`, each coupling listed once.

    `assemble` scatters them into the class matrix; the folded solve of
    `eigensolver.solve_tracked` keeps their pattern, once per basis and
    class.  Raises ConfigurationError for a parity other than 0 or 1 and
    for an empty class.
    """
    diagonal = class_diagonal(basis, laser, parity)
    if laser.amplitude_A == 0.0:
        none = np.zeros(0, dtype=np.intp)
        return diagonal, none, none, np.zeros(0)
    positions = basis.class_positions(parity)
    rows, cols, values = coupling_arrays(basis.n0)
    keep = basis.parity[rows] == parity  # a coupling never crosses classes
    local = np.empty(len(basis), dtype=np.intp)
    local[positions] = np.arange(len(positions))
    return (
        diagonal, local[rows[keep]], local[cols[keep]],
        laser.amplitude_A * values[keep],
    )


def assemble(
    basis: BasisSet, laser: LaserField, *, parity: int = 0
) -> PseudoHamiltonianMatrix:
    """Build the real symmetric pseudo-Hamiltonian of one parity class.

    The matrix is the diagonal block of the class `parity` (0 or 1) in the
    whole-basis H, entry for entry.  Class 0 holds the 1s state.
    """
    diagonal, rows, cols, scaled = class_terms(basis, laser, parity)
    dim = len(diagonal)
    h = np.zeros((dim, dim), order="F")
    np.fill_diagonal(h, diagonal)
    h[rows, cols] = scaled
    h[cols, rows] = scaled
    h.flags.writeable = False
    return PseudoHamiltonianMatrix(h, basis, parity)
