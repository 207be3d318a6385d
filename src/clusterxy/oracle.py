"""Brute-force reference solver: dense exact diagonalization of the two
fermion-parity blocks of the spin basis, plus a gradient search for the best
product-state overlap of any state vector, on tensor contractions.

Nothing here reads the free-fermion solver, which it checks at small sizes:
the vacuum is rebuilt from the Bogoliubov angles it is given.  Basis convention:
site 0 is the most significant qubit and spin-up maps to bit 0, so the
all-up state is basis index 0 (the Jordan-Wigner fermion vacuum).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
from scipy.optimize import minimize

from .model import ModelSpec, PauliString, to_pauli_strings
from .entanglement import entanglement_result

#: Dense diagonalization is capped here; two 2^13 x 2^13 parity blocks are
#: the largest worth building at desk scale.
MAX_DENSE_SITES = 14


def _popcount_sign(bits: np.ndarray) -> np.ndarray:
    """(-1)^popcount of each non-negative entry, as integers +-1: XOR-folding
    the bits leaves their parity in the lowest one."""
    bits = np.asarray(bits, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        bits = bits ^ (bits >> shift)
    return 1 - 2 * (bits & 1)


def parity_sectors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices of the even and of the odd fermion-parity sector, both
    ascending.  Basis states 2m and 2m + 1 differ in one bit, so exactly one
    of them lies in each sector, at position m = b >> 1 there."""
    pair = 2 * np.arange(2 ** (n - 1))
    parity = (1 - _popcount_sign(pair)) // 2
    return pair | parity, pair | (1 - parity)


@dataclass(frozen=True)
class DenseOperator:
    """A Hermitian operator on the 2^N-dimensional spin space that commutes
    with the fermion parity prod_j Z_j, held as its two parity blocks.

    ``blocks`` is (even block, odd block); the basis state at position m of
    a block is ``parity_sectors(N)[block][m]``.  Each block is checked
    Hermitian and diagonalized on its own.
    """

    dimension: int
    blocks: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        half = self.dimension // 2
        if (self.dimension < 2 or self.dimension & (self.dimension - 1)
                or len(self.blocks) != 2
                or any(block.shape != (half, half) for block in self.blocks)):
            raise ValueError(f"a {self.dimension}-dimensional operator needs two {half}x{half} parity blocks")
        # |h - h^dagger| of each block in turn, in one block-sized buffer
        diff = np.empty((half, half), dtype=np.result_type(*self.blocks))
        for block in self.blocks:
            np.conjugate(block.T, out=diff)
            diff -= block
            if not np.abs(diff, out=diff).real.max() <= 1e-12:
                raise ValueError("operator is not Hermitian within 1e-12")

    @cached_property
    def eigensystem(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(ascending eigenvalues, eigenvectors) of the even then the odd
        parity block.  Computed once per operator."""
        return [np.linalg.eigh(block) for block in self.blocks]


def _mask(letters: str, chosen: str) -> int:
    """Bit mask of the sites whose letter is in ``chosen``."""
    return int("".join("1" if ch in chosen else "0" for ch in letters), 2)


def dense_hamiltonian(strings: list[PauliString]) -> DenseOperator:
    """Sum of Pauli strings as its two dense parity blocks, filled from
    basis-index bits.

    A string maps basis state b to i^{n_Y} (-1)^{popcount(b & YZ)} |b ^ XY>,
    where XY (YZ) masks the sites carrying X or Y (Y or Z): X and Y flip
    their bit, Y and Z read it as a sign.  Flipping an even number of bits
    keeps b in its parity sector, where it sits at position b >> 1; a string
    flipping an odd number is rejected.  The blocks are real when every
    string has an even number of Y letters.
    """
    if not strings:
        raise ValueError("no Pauli strings given")
    n = len(strings[0].letters)
    if n > MAX_DENSE_SITES:
        raise ValueError(f"dense construction capped at {MAX_DENSE_SITES} sites, got {n}")
    if any(len(ps.letters) != n for ps in strings):
        raise ValueError("inconsistent string lengths")
    for ps in strings:
        if (ps.letters.count("X") + ps.letters.count("Y")) % 2:
            raise ValueError(
                f"Pauli string {ps.letters!r} flips an odd number of sites, "
                "so it does not commute with the fermion parity"
            )
    half = 2 ** (n - 1)
    sectors = parity_sectors(n)
    n_y = [ps.letters.count("Y") for ps in strings]
    dtype = complex if any(k % 2 for k in n_y) else float
    blocks = (np.zeros((half, half), dtype=dtype), np.zeros((half, half), dtype=dtype))
    columns = np.arange(half)
    for ps, k in zip(strings, n_y):
        flip = _mask(ps.letters, "XY")
        sign_mask = _mask(ps.letters, "YZ")
        value = ps.coefficient * (1, 1j, -1, -1j)[k % 4]
        for block, basis in zip(blocks, sectors):
            block[(basis ^ flip) >> 1, columns] += value * _popcount_sign(basis & sign_mask)
    return DenseOperator(2**n, blocks)


def model_hamiltonian(spec: ModelSpec) -> DenseOperator:
    """Dense Hamiltonian of a model (expansion + assembly in one step)."""
    return dense_hamiltonian(to_pauli_strings(spec))


def exact_spectrum(op: DenseOperator, count: int) -> list[float]:
    """The ``count`` smallest eigenvalues, ascending."""
    if count > op.dimension:
        raise ValueError("count exceeds the operator dimension")
    vals = np.sort(np.concatenate([vals for vals, _ in op.eigensystem]))
    return [float(v) for v in vals[:count]]


def exact_ground_state(op: DenseOperator) -> np.ndarray:
    """Normalized ground eigenvector.

    On numerical degeneracy the even-fermion-parity representative is
    returned when the even block attains the ground level, matching the
    even-vacuum convention of the analytic solver.  The global phase is
    fixed by making the largest-magnitude amplitude real and positive.
    """
    blocks = op.eigensystem
    ground = min(vals[0] for vals, _ in blocks)
    tol = 1e-10 * max(1.0, abs(ground))
    sector = next(i for i, (vals, _) in enumerate(blocks) if vals[0] <= ground + tol)
    vec = np.zeros(op.dimension, dtype=complex)
    vec[parity_sectors(op.dimension.bit_length() - 1)[sector]] = blocks[sector][1][:, 0]
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    vec = vec / phase
    return vec / np.linalg.norm(vec)


# --- even-vacuum reconstruction in the spin basis ---------------------------

def reconstruct_even_vacuum(angles: np.ndarray) -> np.ndarray:
    """Even-sector Bogoliubov vacuum of N = 2 len(angles) sites, in the spin basis.

    Applies prod_{k < N/2} [cos(theta_k) + i sin(theta_k) c+_k c+_{N-k-1}]
    to the all-up state, theta_k = angles[k], with momentum operators built
    from the Jordan-Wigner images c+_j = (prod_{l<j} Z_l) |down><up|_j: a bit
    flip with the sign of the popcount of the sites before j.
    """
    theta = np.asarray(angles, dtype=float)
    n = 2 * len(theta)
    if n > MAX_DENSE_SITES:
        raise ValueError(f"reconstruction capped at {MAX_DENSE_SITES} sites")
    dim = 2**n
    basis = np.arange(dim)
    raising = []  # per site j: (states with j up, the same with j down, JW sign)
    for j in range(n):
        bit = 1 << (n - 1 - j)
        up = basis[(basis & bit) == 0]
        raising.append((up, up | bit, _popcount_sign(up & (dim - 2 * bit))))
    sites = np.arange(n)
    state = np.zeros(dim, dtype=complex)
    state[0] = 1.0
    for k in range(n // 2):
        def create(mode: int, vec: np.ndarray) -> np.ndarray:
            phases = np.exp(1j * 2.0 * np.pi * sites * (mode + 0.5) / n) / np.sqrt(n)
            out = np.zeros_like(vec)
            for j, (up, down, sign) in enumerate(raising):
                out[down] += phases[j] * (sign * vec[up])
            return out

        pair = create(k, create(n - 1 - k, state))
        state = np.cos(theta[k]) * state + 1j * np.sin(theta[k]) * pair
    return state


# --- product ansatz states and overlaps -------------------------------------

def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two vectors, the same products without its reshaping."""
    return np.multiply.outer(a, b).ravel()


def direct_overlap(state: np.ndarray, ansatz) -> float:
    """|<product ansatz | state>| by full-basis expansion of v^{tensor L}.

    ``ansatz`` is a SiteAnsatz, a BlockAnsatz, or a raw amplitude array of
    length 2 (one leg per site) or 4 (one leg per two-site block).
    """
    amps = np.asarray(getattr(ansatz, "amplitudes", ansatz), dtype=complex)
    dim = state.shape[0]
    n = int(round(np.log2(dim)))
    if 2**n != dim:
        raise ValueError("state length is not a power of two")
    if amps.shape not in ((2,), (4,)):
        raise ValueError("ansatz must carry 2 or 4 amplitudes")
    if amps.shape == (4,) and n % 2:
        raise ValueError("block ansatz requires even sites")
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise ValueError("ansatz amplitudes are all zero")
    legs = n if amps.shape == (2,) else n // 2
    return float(abs(np.vdot(reduce(_kron, [amps] * legs), state)) / norm**legs)


def _product_contraction(state: np.ndarray, v: np.ndarray) -> tuple[complex, np.ndarray]:
    """<v^{tensor L}|state> on L legs of width len(v), 2 (site) or 4 (block),
    and its derivative G in conj(v): the state contracted with conj(v) on
    every leg but one, summed over the open leg, since a degenerate ground
    vector need not be translation invariant.  Contracts the leading leg
    until none is left, carrying the derivative of what remains."""
    bra = np.conj(v)
    value, grad = state, np.zeros((len(v), len(state)), dtype=complex)
    while value.size > 1:
        value, grad = value.reshape(len(v), -1), grad.reshape(len(v), len(v), -1)
        value, grad = bra @ value, value + bra @ grad
    return complex(value[0]), grad[:, 0]


def brute_max_overlap(state: np.ndarray, kind: str, complex_amplitudes: bool = True):
    """Maximize |<product|state>| over an ansatz family: L-BFGS-B from fixed
    starts ascends log|o|^2 - L sum_parts log|part|^2, scale invariant, with
    the gradient of the contraction above.  The state's length alone bounds
    the work; lambda is ``direct_overlap`` at the normalized winner.

    kind: 'site' (one state on every site), 'block' (one two-site state on
    every block), or 'af_site' (a two-site product a (x) b of two independent
    one-site states, period-2 translation invariance).  Amplitudes may be
    complex (the default; used to probe whether real optima are globally
    optimal) or restricted to real.
    """
    parts = {"site": (1, 2, "per_site"), "block": (1, 4, "per_block"),
             "af_site": (2, 2, "per_site_af")}
    if kind not in parts:
        raise ValueError(f"kind must be 'site', 'block' or 'af_site', got {kind!r}")
    n = len(state).bit_length() - 1
    if n < 1 or len(state) != 2**n:
        raise ValueError("state length is not a power of two")
    if kind != "site" and n % 2:
        raise ValueError(f"the {kind} ansatz requires even sites, got {n}")
    count, width, mode = parts[kind]
    legs = n if kind == "site" else n // 2
    shape = (count, 1 + complex_amplitudes, width)  # per part: real, then imaginary amplitudes

    def amplitudes(x: np.ndarray) -> np.ndarray:
        p = x.reshape(shape)
        return p[:, 0] + 1j * p[:, 1] if complex_amplitudes else p[:, 0].astype(complex)

    def negative_log_overlap(x: np.ndarray) -> tuple[float, np.ndarray]:
        amps = amplitudes(x)
        value, grad = _product_contraction(state, reduce(_kron, amps))
        if value == 0:
            return np.inf, np.zeros_like(x)  # a vanishing overlap is the worst start
        if count == 2:  # chain G through v = a (x) b
            grad = grad.reshape(2, 2)
            grad = np.array([grad @ np.conj(amps[1]), np.conj(amps[0]) @ grad])
        norms = np.sum(abs(amps) ** 2, axis=1)
        slope = grad.reshape(amps.shape) / value - legs * amps / norms[:, None]
        slope = np.stack([slope.real, slope.imag], axis=1)[:, : shape[1]]
        return legs * np.sum(np.log(norms)) - 2.0 * np.log(abs(value)), -2.0 * slope.ravel()

    size = count * shape[1] * width
    draws = np.random.default_rng(20240829).normal(size=(16 + 2 * size, size))
    # a unit vector would leave a part of a (x) b zero: af_site starts from e_i (x) e_j
    units = np.eye(size) if count == 1 else [np.r_[a, b] for a in np.eye(2, size // 2) for b in np.eye(2, size // 2)]
    best = min((minimize(negative_log_overlap, x0, jac=True, method="L-BFGS-B",
                         options={"ftol": 1e-15, "gtol": 1e-10}) for x0 in [*units, *draws]),
               key=lambda res: res.fun)
    amps = reduce(_kron, amplitudes(best.x))
    amps = amps / np.linalg.norm(amps)
    return entanglement_result(np.log(max(direct_overlap(state, amps), 1e-300)), n, amps, mode)
