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

O_DN = np.array([1.0, 0.0], dtype=complex)
IOTA_DN = np.array([0.0, 1.0], dtype=complex)


class SpinorSlotError(ValueError):
    """Contraction or symmetrization across mismatched slot kinds."""


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

    @property
    def valence(self) -> tuple:
        return (self.unprimed, self.primed)

    def max_abs(self) -> float:
        if self.components.size == 0:
            return 0.0
        return float(np.max(np.abs(self.components)))

    def is_unprimed_slot(self, slot: int) -> bool:
        return slot < self.unprimed


def vector_spinor(components, primed: bool = False) -> GeneralSpinor:
    arr = np.asarray(components, dtype=complex)
    return GeneralSpinor(arr, 0 if primed else 1, 1 if primed else 0)


def raise_slot(arr: np.ndarray, slot: int) -> np.ndarray:
    """ξ^A = ε^{AB} ξ_B applied to one axis of a raw component array."""
    return np.moveaxis(np.tensordot(EPS_UP, arr, axes=(1, slot)), 0, slot)


def contract(s1: GeneralSpinor, s2: GeneralSpinor, pairs) -> GeneralSpinor:
    """s1_{...A...} s2^{...A...}: each pair (i, j) contracts lower slot i
    of s1 against slot j of s2 raised with ε."""
    pairs = list(pairs)
    if len({i for i, _ in pairs}) != len(pairs) or \
            len({j for _, j in pairs}) != len(pairs):
        raise SpinorSlotError("a slot may appear in only one pair")
    for i, j in pairs:
        if not (0 <= i < s1.unprimed + s1.primed):
            raise SpinorSlotError(f"slot {i} out of range for first factor")
        if not (0 <= j < s2.unprimed + s2.primed):
            raise SpinorSlotError(f"slot {j} out of range for second factor")
        if s1.is_unprimed_slot(i) != s2.is_unprimed_slot(j):
            raise SpinorSlotError(
                f"cannot contract slot {i} with slot {j}: "
                "primed/unprimed mismatch")
    other = s2.components
    for _, j in pairs:
        other = raise_slot(other, j)
    arr = np.tensordot(s1.components, other,
                       axes=([i for i, _ in pairs], [j for _, j in pairs]))
    # tensordot leaves [s1-remaining..., s2-remaining...]; regroup all
    # unprimed slots in front
    up1 = s1.unprimed - sum(1 for i, _ in pairs if s1.is_unprimed_slot(i))
    pr1 = s1.primed - sum(1 for i, _ in pairs if not s1.is_unprimed_slot(i))
    up2 = s2.unprimed - sum(1 for _, j in pairs if s2.is_unprimed_slot(j))
    pr2 = s2.primed - sum(1 for _, j in pairs if not s2.is_unprimed_slot(j))
    if pr1 and up2:
        arr = np.moveaxis(arr, range(up1 + pr1, up1 + pr1 + up2),
                          range(up1, up1 + up2))
    return GeneralSpinor(arr, up1 + up2, pr1 + pr2)


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


def symmetrize(s: GeneralSpinor, slots) -> GeneralSpinor:
    slots = tuple(slots)
    kinds = {s.is_unprimed_slot(i) for i in slots}
    if len(kinds) > 1:
        raise SpinorSlotError("cannot symmetrize unprimed with primed slots")
    return GeneralSpinor(_symmetrized(s.components, slots),
                         s.unprimed, s.primed)


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

    @classmethod
    def from_general(cls, g: GeneralSpinor) -> "SymSpinor":
        p, q = g.unprimed, g.primed
        comps = np.empty((p + 1, q + 1), dtype=complex)
        for i in range(p + 1):
            for j in range(q + 1):
                idx = (1,) * i + (0,) * (p - i) + (1,) * j + (0,) * (q - j)
                comps[i, j] = g.components[idx]
        return cls(comps, p, q)

    def to_general(self) -> GeneralSpinor:
        p, q = self.unprimed, self.primed
        arr = np.empty((2,) * (p + q), dtype=complex)
        for idx in itertools.product((0, 1), repeat=p + q):
            arr[idx] = self.components[sum(idx[:p]), sum(idx[p:])]
        return GeneralSpinor(arr, p, q)

    def weyl_scalars(self) -> np.ndarray:
        if (self.unprimed, self.primed) != (4, 0):
            raise ValueError("not a valence-(4,0) spinor")
        return np.array([(-1.0) ** k * self.components[4 - k, 0]
                         for k in range(5)])

    def phi_matrix(self) -> np.ndarray:
        if (self.unprimed, self.primed) != (2, 2):
            raise ValueError("not a valence-(2,2) spinor")
        phi = np.empty((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                phi[i, j] = (-1.0) ** (i + j) * self.components[2 - i, 2 - j]
        return phi

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.components)))


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
