"""Brute-force two-spinor dyad calculus over index values {0, 1}.

Spinors are stored with all indices down; raising is explicit
multiplication by the antisymmetric ε with ε_01 = ε^01 = 1.  The basis
dyad is o_A = (1, 0), ι_A = (0, 1), normalized to o_A ι^A = 1.  Fully
symmetric spinors store only their distinct components, indexed by how
many slots take the ι direction.

The curvature identity checks at the bottom evaluate their defining
expressions by literal summation over all index values, so a zero
residual is an arithmetic fact about the component data, independent of
the tensor pipeline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .conventions import CURVATURE_SPINOR_R_FACTOR, FAMILIES

EPS_DN = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
EPS_UP = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


@dataclass(eq=False)
class GeneralSpinor:
    """Full component array; unprimed slots first, then primed slots."""

    components: np.ndarray
    unprimed: int
    primed: int

    def __post_init__(self):
        expected = (2,) * (self.unprimed + self.primed)
        if tuple(self.components.shape) != expected:
            raise ValueError(f"component array has shape "
                             f"{self.components.shape}, expected {expected}")
        self.components = np.asarray(self.components, dtype=complex)


def raise_slot(arr: np.ndarray, slot: int) -> np.ndarray:
    """ξ^A = ε^{AB} ξ_B applied to one axis of a raw component array."""
    return np.moveaxis(np.tensordot(EPS_UP, arr, axes=(1, slot)), 0, slot)


def _symmetrized(arr: np.ndarray, slots) -> np.ndarray:
    slots = tuple(slots)
    total = np.zeros_like(arr)
    count = 0
    for perm in itertools.permutations(slots):
        axes = list(range(arr.ndim))
        for dest, src in zip(slots, perm):
            axes[dest] = src
        total += np.transpose(arr, axes)
        count += 1
    return total / count


@dataclass(eq=False)
class SymSpinor:
    """Totally symmetric spinor; entry [i, j] is the component of any
    index pattern with i ι-valued unprimed slots and j ῑ-valued primed
    slots (the (p+1)(q+1) distinct values)."""

    components: np.ndarray
    unprimed: int
    primed: int

    def __post_init__(self):
        expected = (self.unprimed + 1, self.primed + 1)
        self.components = np.asarray(self.components, dtype=complex)
        if tuple(self.components.shape) != expected:
            raise ValueError(f"multiplicity array has shape "
                             f"{self.components.shape}, expected {expected}")

    @classmethod
    def from_weyl(cls, psi) -> "SymSpinor":
        """Valence-(4,0) spinor carrying the five Weyl scalars."""
        psi = np.asarray(psi, dtype=complex)
        comps = np.array([(-1.0) ** i * psi[4 - i] for i in range(5)])
        return cls(comps.reshape(5, 1), 4, 0)

    @classmethod
    def from_phi(cls, phi) -> "SymSpinor":
        """Valence-(2,2) spinor carrying the 3x3 trace-free Ricci data."""
        phi = np.asarray(phi, dtype=complex)
        comps = np.empty((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                comps[i, j] = (-1.0) ** (i + j) * phi[2 - i, 2 - j]
        return cls(comps, 2, 2)

    def to_general(self) -> GeneralSpinor:
        p, q = self.unprimed, self.primed
        arr = np.empty((2,) * (p + q), dtype=complex)
        for idx in itertools.product((0, 1), repeat=p + q):
            arr[idx] = self.components[sum(idx[:p]), sum(idx[p:])]
        return GeneralSpinor(arr, p, q)


def make_condition_data(branch: str, amplitude: float):
    """Canonical (Ψ, Φ, R) data of one admissible family of
    ``conventions.FAMILIES`` ('N' radiation, 'D' Coulomb): ``amplitude``
    in its Ψ and Φ slots, and R at its lock."""
    if branch not in FAMILIES:
        raise ValueError(f"unknown condition family {branch!r}")
    psi_slot, phi_slot, lock = FAMILIES[branch]
    psi = np.zeros(5, dtype=complex)
    phi = np.zeros((3, 3), dtype=complex)
    psi[psi_slot] = phi[phi_slot] = amplitude
    scalar = lock * float(amplitude)
    return SymSpinor.from_weyl(psi), SymSpinor.from_phi(phi), scalar


def curvature_spinor(psi: SymSpinor, scalar: float) -> GeneralSpinor:
    """X_ABCD: the Weyl spinor plus the scalar-curvature ε-terms."""
    base = psi.to_general().components
    eps_part = (np.einsum("ac,bd->abcd", EPS_DN, EPS_DN)
                + np.einsum("ad,bc->abcd", EPS_DN, EPS_DN))
    return GeneralSpinor(base + scalar * CURVATURE_SPINOR_R_FACTOR * eps_part,
                         4, 0)


def check_weyl_condition_1(psi: SymSpinor, scalar: float) -> float:
    """max |X_{AB(C}^G Ψ_{DEF)G}|: the full second-derivative commutator
    condition on the Weyl spinor, reduced to algebra."""
    x = curvature_spinor(psi, scalar).components
    p = psi.to_general().components
    t = np.einsum("abcg,defg->abcdef", raise_slot(x, 3), p)
    return float(np.max(np.abs(_symmetrized(t, (2, 3, 4, 5)))))


def check_contracted_condition(psi: SymSpinor, scalar: float) -> float:
    """max |12 Ψ_{(AD}^{BG} Ψ_{EF)BG} - R Ψ_{ADEF}|: the trace of the
    previous condition, which already pins the admissible types."""
    p = psi.to_general().components
    pr = raise_slot(raise_slot(p, 2), 3)
    q = np.einsum("adbg,efbg->adef", pr, p)
    t = 12.0 * _symmetrized(q, (0, 1, 2, 3)) - scalar * p
    return float(np.max(np.abs(t)))


def check_weyl_condition_2(psi: SymSpinor, phi: SymSpinor) -> float:
    """max |Φ_{A'B'(C}^G Ψ_{DEF)G}|: the mixed Weyl-Ricci condition."""
    p = psi.to_general().components
    f = phi.to_general().components          # slots [A, B, A', B']
    t = np.einsum("cgxy,defg->xycdef", raise_slot(f, 1), p)
    return float(np.max(np.abs(_symmetrized(t, (2, 3, 4, 5)))))


def check_ricci_commutator(psi: SymSpinor, phi: SymSpinor,
                           scalar: float) -> float:
    """max residual of the commutator acting on the Ricci spinor:
    X_{ABC}^E Φ_{EDC'D'} + X_{ABD}^E Φ_{CEC'D'}
      + Φ_{ABC'}^{E'} Φ_{CDE'D'} + Φ_{ABD'}^{E'} Φ_{CDC'E'}."""
    x = raise_slot(curvature_spinor(psi, scalar).components, 3)
    f = phi.to_general().components
    fr = raise_slot(f, 3)                    # Φ_{AB A'}^{B'}
    t1 = np.einsum("abce,edxy->abcdxy", x, f)
    t2 = np.einsum("abde,cexy->abcdxy", x, f)
    t3 = np.einsum("abxe,cdey->abcdxy", fr, f)
    t4 = np.einsum("abye,cdxe->abcdxy", fr, f)
    return float(np.max(np.abs(t1 + t2 + t3 + t4)))
