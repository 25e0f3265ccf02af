"""Qubit-chain layouts and their blockade basis, the Pauli-sum assembler that
builds every operator, partial trace, and canonical initial states.

Conventions, fixed package-wide:

* site 0 is the most significant bit of a computational-basis index,
* |0> is the sigma^z = +1 eigenstate,
* bath sites are the last ``n_b`` sites of the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class ChainLayout:
    """System/bath split of a chain: ``n_s`` system qubits followed by
    ``n_b`` bath qubits, on the Rydberg-blockade subspace when
    ``constrained`` (see :meth:`states`)."""

    n_s: int
    n_b: int
    constrained: bool = False

    def __post_init__(self):
        if self.n_s < 1 or self.n_b < 1:
            raise ValueError(f"layout needs n_s >= 1 and n_b >= 1, got ({self.n_s}, {self.n_b})")

    @property
    def n_h(self) -> int:
        return self.n_s + self.n_b

    def states(self, n_sites: int) -> np.ndarray:
        """Sorted basis states of an ``n_sites``-site block: every bit string,
        or the :class:`ConstrainedBasis` ones when ``constrained``; a new
        array per call."""
        if self.constrained:
            return np.array(ConstrainedBasis(n_sites).states)
        return np.arange(2 ** n_sites)

    @property
    def dim_s(self) -> int:
        return len(self.states(self.n_s))

    @property
    def dim_b(self) -> int:
        return len(self.states(self.n_b))

    @property
    def dim_joint(self) -> int:
        return len(self.states(self.n_h))


class ConstrainedBasis:
    """Rydberg-blockade subspace of an ``n``-site chain: bit-strings with no
    two adjacent 1s, as a sorted list of ints, picked by one mask over all
    2^n of them; dimension is the Fibonacci number F(n+2)."""

    def __init__(self, n_sites: int):
        if n_sites < 1:
            raise ValueError("need at least one site")
        self.n_sites = n_sites
        bits = np.arange(1 << n_sites)
        self.states: list[int] = bits[(bits & (bits >> 1)) == 0].tolist()

    @property
    def dim(self) -> int:
        return len(self.states)

    def embed_vector(self, amplitudes: np.ndarray) -> np.ndarray:
        """Scatter constrained amplitudes, a (dim,) vector or the columns of a
        (dim, k) block, into the full 2^n qubit space."""
        full = np.zeros((2 ** self.n_sites, *np.shape(amplitudes)[1:]), dtype=complex)
        full[self.states] = amplitudes
        return full


def site_signs(states, n_sites: int) -> np.ndarray:
    """sigma^z eigenvalues, +1 for |0> and -1 for |1>: row m holds site m's
    sign on each basis state. Site 0 is the most significant bit."""
    states = np.asarray(states)
    shifts = np.arange(n_sites - 1, -1, -1)
    return 1 - 2 * ((states[None, :] >> shifts[:, None]) & 1)


@dataclass(frozen=True)
class _PauliStructure:
    """What a list of Pauli strings fixes on a basis, whatever their
    coefficients: per term its flip mask, phase i^{n_y} and sign array, and
    per flip mask the flat positions and source columns of its scatter."""

    dim: int
    terms: tuple[tuple[int, complex, np.ndarray], ...]
    scatter: dict[int, tuple[np.ndarray, np.ndarray]]


@lru_cache(maxsize=64)
def _pauli_structure(n_sites: int, states: tuple[int, ...] | None,
                     strings: tuple[tuple[str, tuple[int, ...]], ...]) -> _PauliStructure:
    states = np.arange(2 ** n_sites) if states is None else np.asarray(states, dtype=int)
    signs = site_signs(states, n_sites)
    dim = len(states)
    terms = []
    for axes, sites in strings:
        flip, n_y, sign = 0, 0, np.ones(dim, dtype=int)
        for axis, site in zip(axes, sites, strict=True):
            if axis not in ("x", "y", "z"):
                raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
            if not 0 <= site < n_sites:
                raise ValueError(f"site {site} out of range for {n_sites} sites")
            if axis != "z":
                flip ^= 1 << (n_sites - 1 - site)
            if axis != "x":
                sign = sign * signs[site]
            n_y += axis == "y"
        sign.flags.writeable = False
        # Y|b> = i (-1)^b |1-b>, Z|b> = (-1)^b |b>
        terms.append((flip, 1j ** n_y, sign))
    scatter = {}
    for flip in dict.fromkeys(flip for flip, _, _ in terms):
        targets = states ^ flip
        rows = np.minimum(np.searchsorted(states, targets), dim - 1)
        cols = np.flatnonzero(states[rows] == targets)
        flat = rows[cols] * dim + cols
        flat.flags.writeable = cols.flags.writeable = False
        scatter[flip] = (flat, cols)
    return _PauliStructure(dim, tuple(terms), scatter)


def pauli_sum(terms, n_sites: int, states=None) -> np.ndarray:
    """Dense matrix of sum_k c_k P_k on a sorted list of basis states
    (default: all ``2**n_sites`` qubit states).

    Each term is ``(c, axes, sites)``, e.g. ``(0.5, "xx", (2, 3))``. Terms
    are accumulated in the given order. On a subspace, matrix elements that
    leave ``states`` are dropped, so the result is the restriction. The
    structure the Pauli strings fix (flip masks, phases, signs, scatter
    positions) is cached, so a call with new coefficients does only the
    accumulation and the scatter.
    """
    terms = list(terms)
    structure = _pauli_structure(
        n_sites, None if states is None else tuple(np.asarray(states).tolist()),
        tuple((axes, tuple(sites)) for _, axes, sites in terms))
    dim = structure.dim
    by_flip = {flip: np.zeros(dim, dtype=complex) for flip in structure.scatter}
    for (coeff, _, _), (flip, phase, sign) in zip(terms, structure.terms):
        by_flip[flip] += coeff * phase * sign
    h = np.zeros((dim, dim), dtype=complex)
    flat_h = h.reshape(-1)
    for flip, (flat, cols) in structure.scatter.items():
        flat_h[flat] = by_flip[flip][cols]
    return h


def product_state(bits: str) -> np.ndarray:
    """Computational basis state from a bit-string, site 0 first."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"bits must be a non-empty string over 0/1, got {bits!r}")
    n = len(bits)
    vec = np.zeros(2 ** n, dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def ghz_state(n_sites: int) -> np.ndarray:
    """(|00...0> + |11...1>)/sqrt(2)."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    vec = np.zeros(2 ** n_sites, dtype=complex)
    vec[0] = vec[-1] = 1 / np.sqrt(2)
    return vec


def neel_state(n_sites: int) -> np.ndarray:
    """Alternating |0101...>."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    return product_state("".join("01"[m % 2] for m in range(n_sites)))


def partial_trace(op: np.ndarray, keep: list[int] | tuple[int, ...], n_sites: int) -> np.ndarray:
    """Trace out all qubits not in ``keep`` of an operator on ``n_sites``
    qubits; preserves the total trace."""
    op = np.asarray(op, dtype=complex)
    dim = 2 ** n_sites
    if op.shape != (dim, dim):
        raise ValueError(f"operator shape {op.shape} is not ({dim}, {dim}) of {n_sites} qubits")
    keep = sorted(keep)
    if any(not 0 <= s < n_sites for s in keep):
        raise ValueError(f"keep sites {keep} out of range for {n_sites} sites")
    traced = [s for s in range(n_sites) if s not in keep]
    tensor = op.reshape([2] * (2 * n_sites))
    for offset, s in enumerate(traced):
        ax = s - offset  # axes shift as earlier sites are traced out
        tensor = np.trace(tensor, axis1=ax, axis2=ax + n_sites - offset)
    dk = 2 ** len(keep)
    return tensor.reshape(dk, dk)
