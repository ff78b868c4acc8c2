"""Momentum-lattice modes and the truncated multi-mode bosonic Fock space.

Continuum momentum integrals are discretized on a periodic box of side L:
allowed momenta are p = (2 pi hbar / L) n for nonzero integer 3-vectors n,
and a mode is one (helicity, n) pair, a ModeKey of Python ints (mode_key
refuses float and bool labels).  FockBasis keeps the mode table as stacked
arrays, row j = mode j: n, p, omega, k, eps, k x eps, spin and the vacuum
<E^2> term, computed in one pass with row norms sqrt(vecdot(v, v))
(polarization.row_norms, equal bit for bit to np.linalg.norm of one row;
np.linalg.norm(v, axis=1) is not).  The dictionary used throughout:

    integral d^3p        ->  sum_n Delta3p,   Delta3p = (2 pi hbar / L)^3
    a_s(p)               ->  a_mode / sqrt(Delta3p)
    delta^3(p - p')      ->  delta_{n,n'} / Delta3p

dispersion says the lattice kinematics once: p, omega, Delta3p and each
momentum's vacuum <E^2> term Delta3p omega / (2 pi hbar)^2.  fields._amplitudes
and the commutator closed forms keep their own factors: verify compares the
two, and a shared scale would hide a wrong dictionary.

Each mode carries at most n_max quanta; the creation operator annihilates
top-occupancy states, so operator identities are stated on "safe"
subspaces whose occupancies stay below the cap.

Operators are coefficient arrays over the ladder operators L = (a_1..a_n,
a-dagger_1..a-dagger_n): linear forms sum_k w_k L_k (ladder_sum) and
quadratic forms sum_kl w_kl L_k L_l (ladder_products), each assembled in one
pass.  The basis stores nothing per state: a state's index is a number in
base n_max + 1 whose digits are its occupancies (FockBasis._digits), and
_ladder_rows, the one place that says how the ladder operators act, derives
what a call reads from the strides: L_k |s> = amplitude |target>, so a_j |s>
= sqrt(occ_j) |s - strides[j]> and a-dagger_j |s> = sqrt(occ_j + 1) |s +
strides[j]>, with amplitude 0 and target s where L_k annihilates s.  The CSR
pattern of a linear form depends only on which weights are nonzero, its
live ladder operators: _linear_pattern derives their rows once per live set,
keeps the live entries (those of positive amplitude) on the basis, and each
form's data is one gather of its weights times the stored amplitudes.
Quadratic forms derive the rows of their nonzero pairs: an annihilated
state gives a zero entry, which is not stored.  <a_m> of a state vector
(lowering_expectations) reads the vector reshaped to (-1, n_max + 1,
strides[m]) and sums only the live terms (the same count for every mode),
since zeros in its sums would change how numpy groups them.

SparseOperator holds the three arrays (data, indices, indptr) of a complex
CSR matrix, and its constructor takes those arrays.
Linear forms (on their cached pattern) and diagonal_operator (identity, the
number operators, safe_projector) write their CSR arrays directly; zero
entries are not stored: row t of L_k is row t of the ladder row of its
transpose (a_j and a-dagger_j are transposes of each other), and in the
order a-dagger_1..a-dagger_n, a_n..a_1 the columns of every row increase.
Only quadratic forms, whose entries really add up, go through a coordinate
list.  A commutator with a diagonal operator needs no product: [X,
diag(d)]_ij = (d_j - d_i) X_ij is written on X's own arrays
(diagonal_commutator), as verify does for [field, N].  Commutator residuals
are read from a table (commutator_residuals): every [L_k, R_l] of two lists
of small operators comes from two products of stacked operators, vstack(L)
@ hstack(R) and vstack(R) @ hstack(L), whose blocks are the products L_k
R_l and R_l L_k entry by entry; large operators are multiplied pair by
pair.  A safe subspace enters a residual as a mask of basis states
(safe_states), not as a projector product: P X P for the 0/1 diagonal P
keeps exactly the X_ij with i and j both kept.  Differences are read from a
table too (difference_residuals): every L_k - R_k of two equally long lists
comes from one subtraction of stacked operators, vstack(L) - vstack(R).
One function, _block_maxima, turns a sparse residual into maxima, for both
tables and for SparseOperator.max_abs alike: an operator with no stored
entry reads 0.0, and a NaN entry makes its maximum NaN, which verify fails.

The sparse algebra (products, sums and differences, coordinate lists, the
adjoint, stacking and matrix-vector products) is scipy's: a few array
helpers (_product, _combined, _from_coordinates, _adjoint, _hstack, and
SparseOperator.apply) call scipy's compiled CSR kernels
(scipy.sparse._sparsetools), the ones its csr methods call, in the same
order, on the operators' own arrays, and return arrays.  Every result has
the bits scipy's public API gives, but no scipy matrix object is built,
which costs more than the kernel at these sizes.  vstack is a concatenation.
SparseOperator.matrix, the scipy CSR over an operator's arrays, is built on
first read; it is for tests, users and tracing, and nothing in the library
reads it.  The kernels check the types of their arrays but not their
lengths or index values: SparseOperator's constructor checks an operator's
arrays, as scipy's check_format(full_check=True) does, and each array
helper checks what it hands its kernel (_unreadable and _outside for the
arrays read, _room for those written), so that a wrong size or offset in a
helper raises a RuntimeError (_refuse) instead of ending the process in a
signal.  A kernel call that reads only arrays its helper has just checked,
or a checked call has just written, gets no second check: csr_matmat after
csr_matmat_maxnnz, and the passes after coo_tocsr.

Text exports use float_reprs: shortest round-trip reprs, computed once per
distinct bit pattern of a column.  export_operator reads the CSR arrays:
in canonical format (strictly increasing columns in each row, which it
checks in numpy) their storage order is row-major; any other operator is
sorted row by row.  It works EXPORT_CHUNK entries at a time: the
canonical check, the row of each entry (from the indptr of the rows the
chunk spans), the label lookups in one str table per call, float_reprs of
re and im, and the joined lines.  So it holds no whole-operator column;
only a non-canonical operator is sorted whole first.

scipy is loaded only where the kernels are called or
SparseOperator.matrix is read, so importing this module, the mode table
and the Fock basis never load it, nor do ladder_sum, diagonal_operator and
diagonal_commutator, which write arrays.  expect, vacuum-scan and
dump-operator run without scipy: the first two build no operator, and every
operator dump-operator names is written as arrays (ladder_sum or
diagonal_operator) and exported from them.
verify, which multiplies operators, is the one command that loads scipy,
and it loads only the kernels' own extension file (_sparsetools), once per
process, without importing a scipy package.  The scipy.sparse package is
imported only where SparseOperator.matrix is read.  If it is already
imported, its own kernel module is used.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache
from typing import IO, Sequence

import numpy as np

from .polarization import row_norms, triads

IntVec = tuple[int, int, int]
Csr = tuple[np.ndarray, np.ndarray, np.ndarray]  # (data, indices, indptr) of a complex CSR matrix
ModeKey = tuple[int, IntVec]  # (helicity, integer momentum)

DIM_GUARD = 65536
NNZ_BUDGET = 200000
# commutator_residuals stacks operators whose products hold at most this
# many entries (estimated as nnz(L) nnz(R) / dim).
STACK_LIMIT = 1 << 14
# Largest |component| of a mode momentum n.  Every integer up to 2**53 is
# exact as a float as well as an int64, so n stays an exact int64 array and
# p = (2 pi hbar / L) n rounds once.  Past 2**63 the momenta would make an
# object array, on which numpy's ufuncs fail.
MODE_COMPONENT_MAX = 2**53
# export_operator reads, formats and writes this many entries at a time.
EXPORT_CHUNK = 4096


class LatticeSizeError(ValueError):
    """Requested basis exceeds a size guard (DIM_GUARD or NNZ_BUDGET)."""


class BasisMismatchError(ValueError):
    """Operators or states built on different bases were combined."""


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"mode labels, occupancies and n_max must be integers, got {value!r}")
    return int(value)


def mode_key(mode) -> ModeKey:
    """(helicity, n) as Python ints; a float or bool label is refused, not truncated."""
    s, n = mode
    return _integer(s), tuple(_integer(v) for v in n)


@dataclass(frozen=True)
class LatticeConfig:
    """Periodic-box mode lattice and truncation parameters.

    modes lists (helicity, n) pairs with n a nonzero integer 3-vector;
    n_max is the per-mode occupancy cap.  gauge_reference optionally
    overrides the transverse gauge axis used for every polarization triad
    (observables must not depend on it).
    """

    length: float
    n_max: int
    modes: tuple[ModeKey, ...]
    hbar: float = 1.0
    c: float = 1.0
    gauge_reference: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.length <= 0 or self.hbar <= 0 or self.c <= 0:
            raise ValueError("length, hbar and c must be positive")
        n_max = _integer(self.n_max)
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        norm_modes = tuple(mode_key(m) for m in self.modes)
        for s, n in norm_modes:
            if s not in (1, -1):
                raise ValueError(f"helicity must be +1 or -1, got {s}")
            if len(n) != 3:
                raise ValueError(f"lattice momentum must be a 3-vector, got {n}")
            if any(abs(v) > MODE_COMPONENT_MAX for v in n):
                raise ValueError(f"lattice momentum components must lie in -2**53..2**53, got {n}")
            if n == (0, 0, 0):
                raise ValueError("zero-momentum mode is excluded (omega = 0)")
        if len(set(norm_modes)) != len(norm_modes):
            raise ValueError("duplicate modes in lattice configuration")
        if not norm_modes:
            raise ValueError("at least one mode is required")
        # Every field coefficient carries sqrt(Delta3p), and a mode's vacuum
        # <E^2> term is the square of its E-field scale: where either
        # underflows (or overflows), the fields are 0 (or inf), and checks vacuous.
        with np.errstate(all="ignore"):
            try:
                _, _, delta3p, terms = dispersion(np.array([n for _, n in norm_modes]), self.length, self.hbar, self.c)
            except OverflowError:
                delta3p = np.inf
        if not np.finfo(float).tiny <= delta3p < np.inf:
            raise ValueError(f"the momentum cell (2 pi hbar / L)^3 = {delta3p!r} is not a positive normal float")
        bad = np.flatnonzero(~((np.finfo(float).tiny <= terms) & (terms < np.inf)))
        if len(bad):
            raise ValueError(
                f"the vacuum <E^2> term Delta3p omega / (2 pi hbar)^2 = {float(terms[bad[0]])!r} "
                f"of mode {norm_modes[bad[0]]} is not a positive normal float"
            )
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "modes", norm_modes)


def dispersion(n, length: float, hbar: float, c: float) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """(p, omega, Delta3p, E2) of integer momenta n, the rows of an (N, 3) array.

    p = (2 pi hbar / L) n and omega = c |p| / hbar per row; Delta3p =
    (2 pi hbar / L)^3 is the cell of the momentum sum, and E2 = Delta3p
    omega / (2 pi hbar)^2 is each row's term of the vacuum <E^2>.
    """
    step = 2.0 * np.pi * hbar / length
    p = np.multiply(step, n, dtype=float)
    omega, delta3p = c * row_norms(p) / hbar, step**3
    # Dividing first keeps a term finite wherever its value is.
    return p, omega, delta3p, delta3p * (omega / np.square(2.0 * np.pi * hbar))


class ModeTable:
    """Kinematics and polarization of the configured modes, row j = mode j.

    Everything a field's coefficient array needs, and each mode's vacuum
    <E^2> term (vacuum_e2); there is no Fock space, so no size guard.
    """

    def __init__(self, config: LatticeConfig):
        self.config = config
        self.modes = config.modes
        self.n_modes = len(self.modes)
        helicity = np.array([s for s, _ in self.modes])
        self.n = np.array([n for _, n in self.modes])
        nv = self.n.astype(float)
        self.p, self.omega, self.delta3p, self.vacuum_e2 = dispersion(nv, config.length, config.hbar, config.c)
        self.k = nv / row_norms(nv)[:, None]
        _, _, eps_plus, eps_minus = triads(self.k, reference=config.gauge_reference)
        self.eps = np.where(helicity[:, None] == 1, eps_plus, eps_minus)
        self.k_cross_eps = np.cross(self.k, self.eps)
        self.spin = (helicity * config.hbar)[:, None] * self.k
        self._first_modes = np.sort(np.unique(self.n, axis=0, return_index=True)[1])
        arrays = (self.n, self.omega, self.vacuum_e2, self.p, self.k, self.eps, self.k_cross_eps, self.spin)
        for arr in (*arrays, self._first_modes):
            arr.setflags(write=False)

    def mode_index(self, mode: ModeKey) -> int:
        key = mode_key(mode)
        if key not in self.modes:
            raise KeyError(f"mode {key} is not on the lattice")
        return self.modes.index(key)

    def momentum_modes(self) -> np.ndarray:
        """Index of the first mode of each distinct lattice momentum, in mode order."""
        return self._first_modes

    def momenta(self) -> tuple[IntVec, ...]:
        """Distinct lattice momenta, in first-appearance order."""
        return tuple(self.modes[j][1] for j in self.momentum_modes())

    def helicities_complete(self) -> bool:
        """True when every lattice momentum carries both helicities."""
        return 2 * len(self.momentum_modes()) == self.n_modes

    def momentum_symmetric(self) -> bool:
        """True when the momentum set is closed under n -> -n."""
        ns = set(self.momenta())
        return all(tuple(-v for v in n) in ns for n in ns)


class FockBasis(ModeTable):
    """Occupation-number basis over the configured modes: a mode table with its Fock space.

    Basis states are ordered lexicographically in the occupancy tuple with
    the first mode most significant: for two modes with n_max = 1 the
    order is (0,0), (0,1), (1,0), (1,1).  This ordering is part of the
    on-disk operator export contract.  The basis keeps n_max, dim and the
    strides of that ordering, and no table per state: occupancies and
    ladder rows are derived from the strides where they are read.
    """

    def __init__(self, config: LatticeConfig):
        n_modes = len(config.modes)
        local = config.n_max + 1
        dim = local**n_modes
        if dim > DIM_GUARD:
            raise LatticeSizeError(
                f"basis dimension {local}^{n_modes} = {dim} exceeds the guard "
                f"{DIM_GUARD}; reduce the mode count or n_max"
            )
        # A linear form sum_k w_k L_k, a field operator for one, stores at
        # most 2 n_modes entries per basis state: the budget bounds the
        # operators, as nothing per state is kept on the basis.
        entries = 2 * n_modes * dim
        if entries > NNZ_BUDGET:
            raise LatticeSizeError(
                f"operators of up to 2 x {n_modes} modes x dim {dim} = {entries} entries "
                f"exceed the budget {NNZ_BUDGET}; reduce the mode count or n_max"
            )
        super().__init__(config)
        self.n_max = config.n_max
        self.dim = dim
        # strides[j] = local^(n_modes - 1 - j): index increment for one
        # quantum in mode j under the lexicographic ordering.
        self.strides = tuple(local ** (self.n_modes - 1 - j) for j in range(self.n_modes))
        # CSR pattern of sum_k w_k L_k for each set of live ladder operators (_linear_pattern).
        self._linear_patterns: dict[bytes, tuple[np.ndarray, ...]] = {}

    # -- index bookkeeping -------------------------------------------------

    def occupancy_table(self, dtype=np.int64) -> np.ndarray:
        """(dim, n_modes) C-ordered array of occupancies, row i = basis state i, derived on each call (_digits)."""
        return np.ascontiguousarray(self._digits().T, dtype=dtype)

    def _digits(self, modes=None) -> np.ndarray:
        """int32 occupancies, row i = mode modes[i] (every mode by default) in every basis state.

        The occupancies of state s are its digits in base n_max + 1: n_j =
        (s // strides[j]) mod (n_max + 1).
        """
        strides = np.asarray(self.strides, dtype=np.int32)
        if modes is not None:
            strides = strides[modes]
        return np.arange(self.dim, dtype=np.int32) // strides[:, None] % np.int32(self.n_max + 1)

    def index(self, occupancies: Sequence[int]) -> int:
        occ = tuple(_integer(v) for v in occupancies)
        if len(occ) != self.n_modes:
            raise ValueError(f"expected {self.n_modes} occupancies, got {len(occ)}")
        if any(v < 0 or v > self.n_max for v in occ):
            raise ValueError(f"occupancies must lie in 0..{self.n_max}, got {occ}")
        return sum(v * s for v, s in zip(occ, self.strides))


class SparseOperator:
    """Complex sparse matrix on a FockBasis, held as its CSR arrays data, indices and indptr.

    The constructor takes the three arrays.  It refuses, with a
    ValueError, what the kernels could not read safely and scipy's own
    check_format(full_check=True) refuses: data that is not complex, indices
    or indptr that are not int32, arrays that are not 1-D, an indptr that
    does not fit the basis, does not start at 0 or decreases, an indptr[-1]
    beyond the stored entries, and a column index outside 0..dim-1.  Entries
    past indptr[-1] are dropped.  The arrays are not changed after construction.
    matrix is the scipy CSR over those same arrays, built on first read.
    """

    def __init__(self, arrays: Csr, basis: FockBasis):
        data, indices, indptr = (np.asarray(arr) for arr in arrays)
        if not (data.dtype == complex and indices.dtype == np.int32 and indptr.dtype == np.int32):
            dtypes = f"{data.dtype}, {indices.dtype}, {indptr.dtype}"
            raise ValueError(f"expected complex data with int32 indices and indptr, got {dtypes}")
        if not data.ndim == indices.ndim == indptr.ndim == 1:
            raise ValueError("data, indices and indptr must be 1-D")
        if len(indptr) != basis.dim + 1:
            raise ValueError(f"indptr of length {len(indptr)} does not match basis dim {basis.dim}")
        nnz = indptr[-1]
        if not (indptr[0] == 0 and len(indices) == len(data) >= nnz >= 0):
            raise ValueError(
                f"indptr runs from {indptr[0]} to {nnz} over {len(data)} values and {len(indices)} indices"
            )
        if len(data) > nnz:
            data, indices = data[:nnz], indices[:nnz]
        # The rest of scipy's full check: the kernels index rows by indptr and
        # columns by indices without bounds.  As uint32, a negative index reads
        # at least 2**31, so one maximum bounds both ends.
        if nnz and indices.view(np.uint32).max() >= basis.dim:
            raise ValueError(f"column indices must lie in 0..{basis.dim - 1}")
        if (indptr[1:] < indptr[:-1]).any():
            raise ValueError("indptr must not decrease")
        self.data, self.indices, self.indptr, self.basis = data, indices, indptr, basis
        self._matrix = None

    @property
    def matrix(self):
        """The scipy.sparse csr_matrix over data, indices and indptr, which it shares without a copy."""
        if self._matrix is None:
            import scipy.sparse as sp

            shape = (self.basis.dim, self.basis.dim)
            self._matrix = sp.csr_matrix(self.arrays, shape=shape, copy=False)
        return self._matrix

    @property
    def arrays(self) -> Csr:
        """(data, indices, indptr)."""
        return self.data, self.indices, self.indptr

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    # -- algebra -------------------------------------------------------------

    def _same_basis(self, other: "SparseOperator") -> None:
        if self.basis is not other.basis:
            raise BasisMismatchError("operators act on different bases")

    def _entrywise(self, other: "SparseOperator", kernel: str) -> "SparseOperator":
        self._same_basis(other)
        dim = self.basis.dim
        return SparseOperator(_combined(self.arrays, other.arrays, dim, dim, kernel), self.basis)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        return self._entrywise(other, "csr_plus_csr")

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return self._entrywise(other, "csr_minus_csr")

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        self._same_basis(other)
        dim = self.basis.dim
        return SparseOperator(_product(self.arrays, other.arrays, dim, dim), self.basis)

    def __mul__(self, scalar: complex) -> "SparseOperator":
        return SparseOperator((self.data * scalar, self.indices, self.indptr), self.basis)

    __rmul__ = __mul__

    def dagger(self) -> "SparseOperator":
        return SparseOperator(_adjoint(self.arrays, self.basis.dim), self.basis)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """The operator times a (dim,) vector, as scipy's matrix @ vector forms it."""
        dim, vector = self.basis.dim, np.asarray(vector)
        if vector.shape != (dim,):
            raise ValueError(f"expected a vector of {dim} entries, got shape {vector.shape}")
        out = np.zeros(dim, dtype=complex)
        # The constructor has checked the operator's arrays and the vector's
        # length is checked above, so csr_matvec gets no check of its own.
        _sparsetools().csr_matvec(dim, dim, self.indptr, self.indices, self.data, vector, out)
        return out

    # -- inspection ------------------------------------------------------------

    def max_abs(self, keep: np.ndarray | None = None) -> float:
        """Largest |X_ij| over the stored entries, 0.0 for none, NaN if one is NaN.

        keep, a (dim,) bool mask of basis states, restricts it to the
        entries with keep[i] and keep[j]: the max_abs of P X P for the
        projector P onto the kept states.
        """
        return float(_block_maxima(self.arrays, self.basis.dim, (1, 1), keep)[0, 0])


def identity(basis: FockBasis) -> SparseOperator:
    return diagonal_operator(basis, np.ones(basis.dim))


def diagonal_operator(basis: FockBasis, values: np.ndarray) -> SparseOperator:
    """diag(values) as a complex CSR; zero values are not stored, as in sp.diags(values).tocsr()."""
    values = np.asarray(values).astype(complex)
    if values.shape != (basis.dim,):
        raise ValueError(f"expected {basis.dim} diagonal values, got shape {values.shape}")
    stored = values != 0
    indptr = np.zeros(basis.dim + 1, dtype=np.int32)
    np.cumsum(stored, out=indptr[1:])
    return SparseOperator((values[stored], np.flatnonzero(stored).astype(np.int32), indptr), basis)


def build_basis(config: LatticeConfig) -> FockBasis:
    return FockBasis(config)


def _assemble(basis: FockBasis, rows, cols, data) -> SparseOperator:
    """One CSR from coordinate entries; duplicates add, zeros are not stored.

    Adding 0.0 turns -0.0 parts into 0.0: exports never show the sign of a zero.
    """
    keep = data != 0
    return SparseOperator(_from_coordinates(rows[keep], cols[keep], data[keep] + 0.0, basis.dim, basis.dim), basis)


def _ladder_amplitudes(quanta: np.ndarray) -> np.ndarray:
    """sqrt(quanta) as floats: the amplitude of a ladder step that counts this many quanta.

    a takes sqrt(n) from a state with n quanta in its mode, a-dagger sqrt(n
    + 1); 0 quanta is a step that annihilates the state.
    """
    return np.sqrt(quanta, dtype=float)


def _ladder_rows(
    basis: FockBasis, ladder: np.ndarray, states: np.ndarray, occupancy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(target, amplitude) of the ladder operators L_k, k in ladder, on basis states.

    L_k |s> = amplitude[i, t] |target[i, t]> for k = ladder[i] and s =
    states[i, t], in the order L = (a_1..a_n, a-dagger_1..a-dagger_n).
    states is an int32 array of len(ladder) rows and occupancy the quanta n
    in L_k's mode j of each of those states (every basis state in order
    and basis._digits(ladder % n_modes), for instance).  a_j moves s to s -
    strides[j] with amplitude sqrt(n), and a-dagger_j to s + strides[j] with
    sqrt(n + 1); where L_k annihilates s (n = 0 for a_j, n = n_max for
    a-dagger_j), the amplitude is 0 and the target s.  Derived on each
    call; target is int32.
    """
    ladder = np.asarray(ladder, dtype=np.intp)
    modes, raising = ladder % basis.n_modes, (ladder >= basis.n_modes)[:, None]
    quanta = occupancy + raising
    quanta *= quanta <= basis.n_max
    amplitude = _ladder_amplitudes(quanta)
    stride = np.asarray(basis.strides, dtype=np.int32)[modes][:, None]
    target = states + np.where(raising, stride, -stride) * (quanta > 0)
    # The operators hand these targets to scipy's kernels as CSR indices:
    # one outside the basis is a bug in the index arithmetic, not a bad
    # scenario, so it is no ValueError.
    if _outside(target.ravel(), basis.dim):
        raise RuntimeError(f"ladder targets must lie in 0..{basis.dim - 1}; the basis index arithmetic is wrong")
    return target, amplitude


def ladder_sum(basis: FockBasis, weights: np.ndarray) -> SparseOperator:
    """sum_k weights[k] L_k, for weights of shape (2 n_modes,).

    L = (a_1..a_n, a-dagger_1..a-dagger_n); weights = (c, d) gives
    sum_j (c_j a_j + d_j a-dagger_j).  The pattern depends only on which
    weights are nonzero (_linear_pattern), and the data is one gather,
    weights[ladder] * amplitude + 0.0: every stored amplitude is sqrt(k) >= 1,
    so a nonzero weight gives no zero entry.  As in _assemble, adding 0.0
    turns -0.0 parts into 0.0.
    """
    weights = np.asarray(weights, dtype=complex)
    indices, indptr, ladder, amplitude = _linear_pattern(basis, weights != 0)
    return SparseOperator((weights[ladder] * amplitude + 0.0, indices, indptr), basis)


def _linear_pattern(basis: FockBasis, live: np.ndarray) -> tuple[np.ndarray, ...]:
    """(indices, indptr, ladder, amplitude) of sum_k w_k L_k for the weights nonzero where live is.

    Row t of L_k holds amplitude[k', t] in column target[k', t] of the
    _ladder_rows of k', the transpose of L_k, wherever that amplitude is
    positive; stored entry e belongs to L_ladder[e] and has amplitude[e].
    Only the live operators' rows are derived, once per live set, and the
    pattern is kept on the basis; its arrays are read-only and shared by
    every operator built on them.
    """
    key = live.tobytes()
    if key not in basis._linear_patterns:
        n = basis.n_modes
        order = np.r_[n : 2 * n, n - 1 : -1 : -1]
        order = order[live[order]]
        ladder, states = (order + n) % (2 * n), np.arange(basis.dim, dtype=np.int32)
        target, amplitude = (rows.T for rows in _ladder_rows(basis, ladder, states, basis._digits()[ladder % n]))
        stored = amplitude > 0
        indptr = np.zeros(basis.dim + 1, dtype=np.int32)
        np.cumsum(stored.sum(axis=1), out=indptr[1:])
        ladder = np.broadcast_to(order.astype(np.min_scalar_type(2 * n)), stored.shape)[stored]
        pattern = (target[stored], indptr, ladder, amplitude[stored])
        for arr in pattern:
            arr.setflags(write=False)
        basis._linear_patterns[key] = pattern
    return basis._linear_patterns[key]


def ladder_products(basis: FockBasis, weights: np.ndarray) -> SparseOperator:
    """sum_{k,l} weights[k, l] L_k L_l, for weights of shape (2 n_modes, 2 n_modes).

    Built without sparse products, from _ladder_rows: for every state s,
    L_l takes s to a state m, and L_k takes m on.  Only the pairs with a
    nonzero weight are derived.  Where L_l or L_k annihilates, the product
    of the two amplitudes is 0.0, and _assemble does not store it.
    """
    k, l = np.nonzero(weights)
    n, states, digits = basis.n_modes, np.arange(basis.dim, dtype=np.int32), basis._digits()
    mid, first = _ladder_rows(basis, l, states, digits[l % n])
    # m has the occupancies of s but in L_l's own mode, where L_l moved one
    # quantum unless it annihilated s (m = s).
    moved = ((k % n == l % n) * np.where(l < n, -1, 1)).astype(np.int32)
    target, second = _ladder_rows(basis, k, mid, digits[k % n] + moved[:, None] * (mid != states))
    data = weights[k, l][:, None] * (second * first)
    src = np.tile(np.arange(basis.dim), len(l))
    return _assemble(basis, target.ravel(), src, data.ravel())


def lowering_expectations(basis: FockBasis, vector: np.ndarray) -> np.ndarray:
    """<v, a_m v> of every mode m for a (dim,) vector v: a complex (n_modes,) array in mode order.

    a_m takes state s, with n_m(s) >= 1, to s - strides[m] with amplitude
    sqrt(n_m(s)), so <a_m> = sum_s conj(v[s - strides[m]]) v[s] sqrt(n_m(s)).
    Reshaped to (-1, n_max + 1, strides[m]), v's axis 1 is mode m's
    occupancy: slices 1: and :-1 of it pair every such s with its target,
    in the order of s, and the terms are summed in that order by one np.sum.
    """
    vector = np.asarray(vector)
    roots = _ladder_amplitudes(np.arange(1, basis.n_max + 1))[:, None]
    out = np.empty(basis.n_modes, dtype=complex)
    for m, stride in enumerate(basis.strides):
        v = vector.reshape(-1, basis.n_max + 1, stride)
        out[m] = np.sum((np.conj(v[:, :-1]) * v[:, 1:] * roots).ravel())
    return out


def annihilation(basis: FockBasis, mode: ModeKey) -> SparseOperator:
    """a for one mode: a|..n..> = sqrt(n)|..n-1..>, a|vacuum> = 0."""
    return ladder_sum(basis, np.eye(2 * basis.n_modes)[basis.mode_index(mode)])


def creation(basis: FockBasis, mode: ModeKey) -> SparseOperator:
    """a-dagger for one mode; annihilates top-occupancy states (truncation)."""
    return ladder_sum(basis, np.eye(2 * basis.n_modes)[basis.n_modes + basis.mode_index(mode)])


def commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    return a @ b - b @ a


def diagonal_commutator(op: SparseOperator, d: np.ndarray) -> SparseOperator:
    """[op, diag(d)] on op's own arrays: entry (i, j) is (d_j - d_i) op_ij.

    No sparse product is formed, and the operator keeps op's indices and
    indptr: an entry with d_i = d_j is stored as a zero, and a NaN entry
    stays NaN.
    """
    d = np.asarray(d)
    if d.shape != (op.basis.dim,):
        raise ValueError(f"expected {op.basis.dim} diagonal values, got shape {d.shape}")
    data = (d[op.indices] - d[_row_indices(op.indptr)]) * op.data
    return SparseOperator((data, op.indices, op.indptr), op.basis)


def _row_indices(indptr: np.ndarray) -> np.ndarray:
    """Row index of every stored entry of a CSR matrix with this indptr, in storage order."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


@cache
def _sparsetools():
    """scipy's compiled CSR kernels, the ones scipy.sparse's own csr methods call.

    A kernel checks the types of its arrays, and refuses to write into a
    read-only one, but trusts indptr and the index values: the array helpers
    that call one check those first (_refuse).

    The module is found once per process.  If scipy.sparse is already
    imported, it is that package's _sparsetools.  Otherwise find_spec gives
    scipy's directory, without importing scipy, and
    scipy/sparse/_sparsetools*.so is loaded by file: scipy's package init
    does not run, the extension's numpy C-API check does.  The loader
    registers the module in sys.modules; the entry is removed, or a later
    import of scipy.sparse would find it there and not bind its own
    _sparsetools.
    """
    package = sys.modules.get("scipy.sparse")
    if package is not None:
        return package._sparsetools
    import importlib.machinery
    import importlib.util
    from pathlib import Path

    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed; fock needs its CSR kernels")
    name, directory = "scipy.sparse._sparsetools", Path(spec.submodule_search_locations[0]) / "sparse"
    paths = [directory / f"_sparsetools{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((str(path) for path in paths if path.is_file()), None)
    if path is None:
        raise ImportError(f"scipy's compiled CSR kernels (_sparsetools) are not in {directory}")
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = loader.create_module(importlib.machinery.ModuleSpec(name, loader, origin=path))
    loader.exec_module(module)
    if sys.modules.get(name) is module:
        del sys.modules[name]
    return module


def _refuse(name: str, problem: str) -> None:
    """Raise the RuntimeError of a problem found with the arrays for the kernel name, if there is one.

    The kernels check the types of their arrays but trust their lengths and
    values: an indptr that does not fit, an index outside the matrix or an
    output without room for every entry makes them read or write outside an
    array, and the process dies of a signal or runs on in corrupted memory.
    Such arrays come from a bug in fock's array helpers, not from a bad
    input, so each helper checks what it hands its kernel and refuses here.
    """
    if problem:
        raise RuntimeError(f"scipy's {name} was handed {problem}; an array helper in fock is wrong")


def _unreadable(csr: Csr, n_rows: int, n_cols: int, blocks: int = 1) -> str:
    """What keeps a kernel from reading CSR arrays of n_rows x n_cols matrices, or "".

    The arrays hold blocks matrices one after another, as csr_hstack reads
    them: indptr is their indptrs concatenated, each of n_rows + 1 entries,
    starting at 0 and not decreasing, and the entries they count, block after
    block, must lie in data and indices, with column indices in 0..n_cols-1.
    """
    data, indices, indptr = csr
    if len(indptr) != blocks * (n_rows + 1):
        return f"an indptr of {len(indptr)} entries for {blocks} x {n_rows} rows"
    rows = indptr.reshape(blocks, n_rows + 1)
    nnz, stored = int(rows[:, -1].sum()), min(len(data), len(indices))
    if rows[:, 0].any() or (rows[:, 1:] < rows[:, :-1]).any():
        return "an indptr that does not start at 0 or decreases"
    if stored < nnz:
        return f"{nnz} entries in arrays of {stored}"
    return _outside(indices[:nnz], n_cols)


def _outside(index: np.ndarray, bound: int) -> str:
    """"an index outside 0..bound-1" if an int32 index is, or ""."""
    # As uint32, a negative index reads at least 2**31, so one maximum bounds both ends.
    if len(index) and index.view(np.uint32).max() >= bound:
        return f"an index outside 0..{bound - 1}"
    return ""


def _room(out: Csr, n_rows: int, entries: int) -> str:
    """What keeps output CSR arrays from taking n_rows rows and entries entries, or ""."""
    data, indices, indptr = out
    room = min(len(indices), len(data))
    if len(indptr) != n_rows + 1 or room < entries:
        return f"an output of {len(indptr)} row pointers and room for {room} entries, for {n_rows} rows and {entries}"
    return ""


def _empty(n_rows: int, nnz: int) -> Csr:
    return np.empty(nnz, dtype=complex), np.empty(nnz, dtype=np.int32), np.empty(n_rows + 1, dtype=np.int32)


def _pruned(csr: Csr) -> Csr:
    """The arrays without the unused space a kernel leaves after indptr[-1]."""
    data, indices, indptr = csr
    return data[: indptr[-1]], indices[: indptr[-1]], indptr


def _product(a: Csr, b: Csr, n_rows: int, n_cols: int) -> Csr:
    """a @ b for a with n_rows rows and b with n_cols columns, as scipy's csr product forms it.

    Exact zeros are not stored, and a row's columns are in the kernel's order, not sorted.
    """
    # a is n_rows x m and b is m x n_cols, m read from b's indptr.
    inner = len(b[2]) - 1
    _refuse("csr_matmat_maxnnz", _unreadable(a, n_rows, inner) or _unreadable(b, inner, n_cols))
    nnz = _sparsetools().csr_matmat_maxnnz(n_rows, n_cols, a[2], a[1], b[2], b[1])
    if nnz > np.iinfo(np.int32).max:
        raise LatticeSizeError(f"a product of {nnz} entries does not fit int32 indices")
    out = _empty(n_rows, nnz)
    # csr_matmat reads the a and b checked above, data included.
    _refuse("csr_matmat", _room(out, n_rows, nnz))
    _sparsetools().csr_matmat(n_rows, n_cols, a[2], a[1], a[0], b[2], b[1], b[0], out[2], out[1], out[0])
    return _pruned(out)


def _combined(a: Csr, b: Csr, n_rows: int, n_cols: int, kernel: str) -> Csr:
    """a + b or a - b (kernel csr_plus_csr or csr_minus_csr), as scipy's csr sum forms it.

    Exact zeros are not stored.
    """
    out = _empty(n_rows, len(a[0]) + len(b[0]))
    problem = _unreadable(a, n_rows, n_cols) or _unreadable(b, n_rows, n_cols)
    _refuse(kernel, problem or _room(out, n_rows, int(a[2][-1]) + int(b[2][-1])))
    getattr(_sparsetools(), kernel)(n_rows, n_cols, a[2], a[1], a[0], b[2], b[1], b[0], out[2], out[1], out[0])
    return _pruned(out)


def _from_coordinates(rows, cols, values, n_rows: int, n_cols: int) -> Csr:
    """The canonical CSR of coordinate entries: duplicates add and zeros are not stored.

    The steps of scipy's csr_matrix((values, (rows, cols))) then
    eliminate_zeros(): entries are counted into rows in input order, a row is
    sorted only when its columns are not already in order (the sort is not
    stable), and repeated coordinates are summed in that order.
    """
    out = data, indices, indptr = _empty(n_rows, len(values))
    rows, cols, nnz = rows.astype(np.int32), cols.astype(np.int32), len(values)
    problem = _outside(rows[:nnz], n_rows) or _outside(cols[:nnz], n_cols) or _room(out, n_rows, nnz)
    if min(len(rows), len(cols)) < nnz:
        problem = f"a coordinate list of {nnz} entries in arrays of {min(len(rows), len(cols))}"
    _refuse("coo_tocsr", problem)
    _sparsetools().coo_tocsr(n_rows, n_cols, nnz, rows, cols, values, indptr, indices, data)
    # The passes below read only the CSR that coo_tocsr has just written.
    if not _sparsetools().csr_has_sorted_indices(n_rows, indptr, indices):
        _sparsetools().csr_sort_indices(n_rows, indptr, indices, data)
    _sparsetools().csr_sum_duplicates(n_rows, n_cols, indptr, indices, data)
    _sparsetools().csr_eliminate_zeros(n_rows, n_cols, indptr, indices, data)
    return _pruned(out)


def _adjoint(a: Csr, dim: int) -> Csr:
    """The conjugate transpose of a dim x dim CSR, as scipy's matrix.conj().T.tocsr() forms it."""
    a = a[0].conj(), a[1], a[2]
    out = _empty(dim, len(a[0]))
    _refuse("csr_tocsc", _unreadable(a, dim, dim) or _room(out, dim, int(a[2][-1])))
    _sparsetools().csr_tocsc(dim, dim, a[2], a[1], a[0], out[2], out[1], out[0])
    return out


def _vstack(parts: list[Csr]) -> Csr:
    """The CSR of the parts stacked top to bottom: their arrays concatenated, indptr shifted."""
    if len(parts) == 1:
        return parts[0]
    starts = np.cumsum([0] + [len(data) for data, _, _ in parts], dtype=np.int32)
    indptr = np.concatenate([part[2][:-1] + start for part, start in zip(parts, starts)] + [starts[-1:]])
    return np.concatenate([part[0] for part in parts]), np.concatenate([part[1] for part in parts]), indptr


def _hstack(parts: list[Csr], dim: int) -> Csr:
    """The CSR of dim-column parts side by side, as scipy's hstack forms it."""
    if len(parts) == 1:
        return parts[0]
    stacked = data, indices, indptrs = tuple(np.concatenate([part[i] for part in parts]) for i in range(3))
    out = _empty(dim, len(data))
    widths = np.full(len(parts), dim, dtype=np.int32)
    _refuse("csr_hstack", _unreadable(stacked, dim, dim, len(parts)) or _room(out, dim, len(data)))
    _sparsetools().csr_hstack(len(parts), dim, widths, indptrs, indices, data, out[2], out[1], out[0])
    return out


def _block_maxima(csr: Csr, dim: int, blocks: tuple[int, int], keep) -> np.ndarray:
    """max |X_ij| in each dim x dim block of a CSR matrix over entries with keep[i] and keep[j], 0.0 for none.

    i and j are the row and column inside the block.  keep of shape (..., dim)
    gives maxima of shape (..., *blocks); None keeps every state.  A NaN
    entry makes its block's maximum NaN, without a warning.
    """
    data, indices, indptr = csr
    keep = np.ones(dim, dtype=bool) if keep is None else np.asarray(keep, dtype=bool)
    if keep.shape[-1:] != (dim,):
        raise ValueError(f"keep must hold one flag per basis state ({dim}), got shape {keep.shape}")
    block = np.repeat(np.arange(blocks[0]) * blocks[1], np.diff(indptr[::dim])) + indices // dim
    magnitude = np.abs(data)
    i = _row_indices(indptr) % dim
    j = indices % dim
    masks = keep.reshape(-1, dim)
    out = np.zeros((len(masks), blocks[0] * blocks[1]))
    with np.errstate(invalid="ignore"):
        for mask, row in zip(masks, out):
            inside = mask[i] & mask[j]
            np.maximum.at(row, block[inside], magnitude[inside])
    return out.reshape(keep.shape[:-1] + blocks)


def _placed(blocks: dict[tuple[int, int], SparseOperator], shape: tuple[int, int], dim: int) -> Csr:
    """The CSR of the given shape with blocks[k, l] in dim x dim block (k, l), zero elsewhere."""
    if shape == (dim, dim):
        return blocks[0, 0].arrays
    parts = [(k * dim + _row_indices(op.indptr), l * dim + op.indices, op.data)
             for (k, l), op in blocks.items()]
    rows, cols, data = (np.concatenate(part) for part in zip(*parts))
    return _from_coordinates(rows, cols, data, *shape)


def _stacked_residuals(left, right, targets, dim: int, keep) -> np.ndarray:
    """commutator_residuals of all pairs at once, from two products of stacked operators."""
    left, right = [op.arrays for op in left], [op.arrays for op in right]
    shape = (len(left) * dim, len(right) * dim)
    forward = _product(_vstack(left), _hstack(right, dim), *shape)
    backward = _product(_vstack(right), _hstack(left, dim), *shape[::-1])
    if len(left) * len(right) > 1:
        # Block (l, k) of backward is R_l L_k: entry (l dim + i, k dim + j) moves to (k dim + i, l dim + j).
        rows, cols = _row_indices(backward[2]), backward[1]
        moved = (cols // dim * dim + rows % dim, rows // dim * dim + cols % dim)
        backward = _from_coordinates(*moved, backward[0], *shape)
    table = _combined(forward, backward, *shape, "csr_minus_csr")
    if targets:
        table = _combined(table, _placed(targets, shape, dim), *shape, "csr_minus_csr")
    return _block_maxima(table, dim, (len(left), len(right)), keep)


def commutator_residuals(
    left: Sequence[SparseOperator],
    right: Sequence[SparseOperator],
    targets: dict[tuple[int, int], SparseOperator] | None = None,
    keep: np.ndarray | None = None,
) -> np.ndarray:
    """max |[L_k, R_l] - T_kl| for every k, l: shape (len(left), len(right)).

    targets maps (k, l) to T_kl; a pair without one is compared with 0.
    keep, a bool array of shape (..., dim), restricts each maximum to the
    entries X_ij with keep[i] and keep[j] (the residual of P X P for the
    projector P onto the kept states); each (dim,) row gives one table, so
    the result has shape (..., len(left), len(right)).

    Small operators are stacked, and the whole table comes from two sparse
    products: vstack(L) @ hstack(R) holds L_k R_l in block (k, l), and
    vstack(R) @ hstack(L) holds R_l L_k in block (l, k), which is moved to
    block (k, l) by coordinate arithmetic.  Operators with a product of
    more than STACK_LIMIT estimated entries are multiplied pair by pair:
    there stacking saves no call overhead and only adds passes over the
    data.  The product kernel forms each entry of a block as the same sum
    of products, in the same order, as the product of the two operators
    alone, and the differences are taken as in commutator, so every
    residual equals
    (commutator(L_k, R_l) - T_kl).max_abs(keep) bit for bit.
    """
    targets = targets or {}
    ops = [*left, *right, *targets.values()]
    for op in ops[1:]:
        ops[0]._same_basis(op)
    dim = ops[0].basis.dim
    shape = (len(left), len(right))
    largest = max(op.nnz for op in left) * max(op.nnz for op in right) / dim
    if largest <= STACK_LIMIT:
        return _stacked_residuals(left, right, targets, dim, keep)
    out = np.zeros((() if keep is None else np.shape(keep)[:-1]) + shape)
    for k, l in np.ndindex(shape):
        pair = {(0, 0): targets[k, l]} if (k, l) in targets else {}
        out[..., k, l] = _stacked_residuals(left[k : k + 1], right[l : l + 1], pair, dim, keep)[..., 0, 0]
    return out


def difference_residuals(
    left: Sequence[SparseOperator], right: Sequence[SparseOperator], keep: np.ndarray | None = None
) -> np.ndarray:
    """max |L_k - R_k| for every k: shape (..., len(left)), with keep as in commutator_residuals.

    The table comes from one subtraction, vstack(L) - vstack(R), whose block
    k holds L_k - R_k entry by entry, so every residual equals
    (L_k - R_k).max_abs(keep) bit for bit.
    """
    if len(left) != len(right):
        raise ValueError(f"cannot pair {len(left)} left operators with {len(right)} right operators")
    for op in [*left[1:], *right]:
        left[0]._same_basis(op)
    dim = left[0].basis.dim
    stacks = (_vstack([op.arrays for op in ops]) for ops in (left, right))
    table = _combined(*stacks, len(left) * dim, dim, "csr_minus_csr")
    return _block_maxima(table, dim, (len(left), 1), keep)[..., 0]


def number_operator(basis: FockBasis, mode: ModeKey) -> SparseOperator:
    j = basis.mode_index(mode)
    return diagonal_operator(basis, basis._digits([j])[0].astype(float))


def total_number(basis: FockBasis) -> SparseOperator:
    return diagonal_operator(basis, basis._digits().sum(axis=0).astype(float))


def safe_states(basis: FockBasis, margin: int) -> np.ndarray:
    """(dim,) bool mask of the states with every occupancy <= n_max - margin.

    On the margin-1 subspace the ladder algebra is exact:
    [a, a-dagger] = 1 there, while deviations from truncation live only on
    top-occupancy states.
    """
    if margin < 0 or margin > basis.n_max:
        raise ValueError(f"margin must lie in 0..{basis.n_max}, got {margin}")
    return (basis._digits() <= basis.n_max - margin).all(axis=0)


def safe_projector(basis: FockBasis, margin: int) -> SparseOperator:
    """Projector onto the safe_states of the given margin."""
    return diagonal_operator(basis, safe_states(basis, margin).astype(float))


def float_reprs(values) -> list[str]:
    """repr(float(v)) of each value, each distinct bit pattern formatted once.

    Values are told apart by their int64 view, so -0.0 and 0.0 keep their
    own text.
    """
    values = np.ascontiguousarray(values, dtype=float)
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([repr(v) for v in distinct.view(float).tolist()], dtype=object)
    return texts[inverse].tolist()


def export_operator(op: SparseOperator, stream: IO[str]) -> None:
    """Write the coordinate-list text form of an operator.

    Header line: `dim n_modes n_max`; then one `row col re im` line per
    stored nonzero, sorted row-major.  Floats use shortest round-trip
    decimal formatting, so the output is bit-exact across runs.
    """
    basis, indptr, cols, data = op.basis, op.indptr, op.indices, op.data
    if not _canonical(indptr, cols):
        # A row's columns do not strictly increase: sort each row by column,
        # keeping repeated coordinates in storage order.  Every entry stays
        # in its row, so indptr still holds.
        order = np.lexsort((cols, _row_indices(indptr)))
        cols, data = cols[order], data[order]
    labels = np.array(list(map(str, range(basis.dim))), dtype=object)
    stream.write(f"{basis.dim} {basis.n_modes} {basis.n_max}\n")
    for start in range(0, len(cols), EXPORT_CHUNK):
        stop = start + EXPORT_CHUNK
        rows, part = _chunk_rows(indptr, start, stop), data[start:stop]
        columns = (labels[rows].tolist(), labels[cols[start:stop]].tolist(), float_reprs(part.real), float_reprs(part.imag))
        stream.write("\n".join(map(" ".join, zip(*columns))) + "\n")


def _chunk_rows(indptr: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Row of each stored entry from start up to stop (or the last entry), read from the rows they span."""
    first, last = np.searchsorted(indptr, [start, min(stop, indptr[-1]) - 1], side="right") - 1
    return first + _row_indices(np.clip(indptr[first : last + 2], start, stop))


def _canonical(indptr: np.ndarray, cols: np.ndarray) -> bool:
    """True when the columns strictly increase inside each row, read EXPORT_CHUNK entries at a time."""
    # starts[e]: a row starts at entry e, where its column may be the smaller.
    starts = np.zeros(len(cols) + 1, dtype=bool)
    starts[indptr] = True
    for start in range(1, len(cols), EXPORT_CHUNK):
        # Entry start is compared with the entry before it, the last of the previous chunk.
        stop = min(start + EXPORT_CHUNK, len(cols))
        if np.any((np.diff(cols[start - 1 : stop]) <= 0) & ~starts[start:stop]):
            return False
    return True
