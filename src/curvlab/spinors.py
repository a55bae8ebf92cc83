"""Brute-force two-spinor dyad calculus over index values {0, 1}.

A spinor is a plain complex component array of shape (2,) * (p + q),
its p unprimed slots first, then its q primed slots, all indices down;
raising is explicit multiplication by the antisymmetric ε with
ε_01 = ε^01 = 1.  The basis dyad is o_A = (1, 0), ι_A = (0, 1),
normalized to o_A ι^A = 1.  The Weyl spinor Ψ_ABCD and the Ricci spinor
Φ_ABA'B' are totally symmetric, so each is expanded once from its NP
scalars: a component depends only on how many unprimed and how many
primed slots take the ι direction.

The curvature identity checks at the bottom evaluate their defining
expressions by literal summation over all index values, so a zero
residual is an arithmetic fact about the component data, independent of
the tensor pipeline.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .conventions import CURVATURE_SPINOR_R_FACTOR, FAMILIES
from .geometry import max_abs

EPS = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)   # ε_AB = ε^AB

# ε_AC ε_BD + ε_AD ε_BC, the shape of the scalar-curvature part of X_ABCD
_EPS_PAIR = (np.einsum("ac,bd->abcd", EPS, EPS)
             + np.einsum("ad,bc->abcd", EPS, EPS))


def raise_slot(arr: np.ndarray, slot: int) -> np.ndarray:
    """ξ^A = ε^{AB} ξ_B applied to one axis of a raw component array."""
    return np.moveaxis(np.tensordot(EPS, arr, axes=(1, slot)), 0, slot)


@functools.lru_cache(maxsize=None)
def _permuted_indices(shape: tuple, slots: tuple) -> np.ndarray:
    """One row per permutation of ``slots``, in ``itertools.permutations``
    order: the flat indices of the array of ``shape`` with those axes so
    permuted."""
    flat = np.arange(math.prod(shape)).reshape(shape)
    rows = []
    for perm in itertools.permutations(slots):
        axes = list(range(len(shape)))
        for dest, src in zip(slots, perm):
            axes[dest] = src
        rows.append(np.transpose(flat, axes).ravel())
    out = np.array(rows)
    out.flags.writeable = False     # one array serves every caller
    return out


def _symmetrized(arr: np.ndarray, slots) -> np.ndarray:
    """The average of ``arr`` over every permutation of the axes ``slots``.

    One gather reads all the permuted copies; the sum over them adds in
    permutation order, so each entry equals that of a loop adding the
    transposes in turn to zeros, up to the sign of a zero."""
    idx = _permuted_indices(arr.shape, tuple(slots))
    total = arr.reshape(-1)[idx].sum(axis=0)
    return (total / len(idx)).reshape(arr.shape)


def _symmetric(value: np.ndarray, p: int, q: int) -> np.ndarray:
    """The totally symmetric valence-(p, q) spinor whose components with
    i ι-valued unprimed and j ῑ-valued primed slots are ``value[i, j]``."""
    arr = np.empty((2,) * (p + q), dtype=complex)
    for idx in itertools.product((0, 1), repeat=p + q):
        arr[idx] = value[sum(idx[:p]), sum(idx[p:])]
    return arr


def weyl_spinor(psi) -> np.ndarray:
    """Ψ_ABCD from the five Weyl scalars Ψ0..Ψ4."""
    psi = np.asarray(psi, dtype=complex)
    return _symmetric(np.array([[(-1.0) ** i * psi[4 - i]]
                                for i in range(5)]), 4, 0)


def ricci_spinor(phi) -> np.ndarray:
    """Φ_ABA'B' from the 3x3 trace-free Ricci data Φ_ij."""
    phi = np.asarray(phi, dtype=complex)
    return _symmetric(np.array([[(-1.0) ** (i + j) * phi[2 - i, 2 - j]
                                 for j in range(3)] for i in range(3)]), 2, 2)


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
    return weyl_spinor(psi), ricci_spinor(phi), scalar


def curvature_spinor(psi: np.ndarray, scalar: float) -> np.ndarray:
    """X_ABCD: the Weyl spinor plus the scalar-curvature ε-terms."""
    return psi + scalar * CURVATURE_SPINOR_R_FACTOR * _EPS_PAIR


def check_weyl_condition_1(psi: np.ndarray, scalar: float) -> float:
    """max |X_{AB(C}^G Ψ_{DEF)G}|: the full second-derivative commutator
    condition on the Weyl spinor, reduced to algebra."""
    x = curvature_spinor(psi, scalar)
    t = np.einsum("abcg,defg->abcdef", raise_slot(x, 3), psi)
    return max_abs(_symmetrized(t, (2, 3, 4, 5)))


def check_contracted_condition(psi: np.ndarray, scalar: float) -> float:
    """max |12 Ψ_{(AD}^{BG} Ψ_{EF)BG} - R Ψ_{ADEF}|: the trace of the
    previous condition, which already pins the admissible types."""
    pr = raise_slot(raise_slot(psi, 2), 3)
    q = np.einsum("adbg,efbg->adef", pr, psi)
    t = 12.0 * _symmetrized(q, (0, 1, 2, 3)) - scalar * psi
    return max_abs(t)


def check_weyl_condition_2(psi: np.ndarray, phi: np.ndarray) -> float:
    """max |Φ_{A'B'(C}^G Ψ_{DEF)G}|: the mixed Weyl-Ricci condition
    (Φ's slots are [A, B, A', B'])."""
    t = np.einsum("cgxy,defg->xycdef", raise_slot(phi, 1), psi)
    return max_abs(_symmetrized(t, (2, 3, 4, 5)))


def check_ricci_commutator(psi: np.ndarray, phi: np.ndarray,
                           scalar: float) -> float:
    """max residual of the commutator acting on the Ricci spinor:
    X_{ABC}^E Φ_{EDC'D'} + X_{ABD}^E Φ_{CEC'D'}
      + Φ_{ABC'}^{E'} Φ_{CDE'D'} + Φ_{ABD'}^{E'} Φ_{CDC'E'}."""
    x = raise_slot(curvature_spinor(psi, scalar), 3)
    fr = raise_slot(phi, 3)                  # Φ_{AB A'}^{B'}
    t1 = np.einsum("abce,edxy->abcdxy", x, phi)
    t2 = np.einsum("abde,cexy->abcdxy", x, phi)
    t3 = np.einsum("abxe,cdey->abcdxy", fr, phi)
    t4 = np.einsum("abye,cdxe->abcdxy", fr, phi)
    return max_abs(t1 + t2 + t3 + t4)
