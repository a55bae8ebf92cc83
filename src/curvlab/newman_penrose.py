"""Null tetrads, curvature scalars, spin coefficients, Petrov types.

A null tetrad (k, l, m, m̄) with k·l = 1, m·m̄ = -1 turns the Weyl tensor
into five complex scalars Ψ0..Ψ4, the trace-free Ricci tensor into a
Hermitian 3x3 matrix Φ_ij, and the connection into twelve complex spin
coefficients.  On top of those this module implements the Petrov
classification (the invariant chain I, J, K, L, N), the adaptation of a
tetrad to the repeated principal null direction of that type (from the
roots of the direction quartic), and the tetrad transformation group
(null rotations about either real direction, boosts and spins).  The
adapted tetrad exists only as numbers at a point: its parameters are
constants there, so lowering, ∇ and ∂ commute with the rotation, and each
quantity of the adapted legs is that of the declared legs, rotated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conventions import FAMILIES, PHI_SIGN, RESIDUAL_TOL, SCALE_FLOOR
from .geometry import (Curvature, MetricField, SymbolicTensor, curvature,
                       max_abs)


class InvalidTetradError(Exception):
    """A tetrad failed its cross-normalization products; carries the report."""

    def __init__(self, check: "TetradCheck", context: str = ""):
        prefix = f"{context}: " if context else ""
        super().__init__(
            f"{prefix}tetrad invalid at {check.point}: worst product "
            f"{check.worst} has residual {check.max_residual:.3e} "
            f"(scale {check.scale:.3e})")
        self.check = check


@dataclass(eq=False)
class NullTetrad:
    """Four declared vector fields; the complex leg is m = m_re + i m_im."""

    k: SymbolicTensor
    l: SymbolicTensor
    m_re: SymbolicTensor
    m_im: SymbolicTensor

    def __post_init__(self):
        for name in ("k", "l", "m_re", "m_im"):
            f = getattr(self, name)
            if not isinstance(f, SymbolicTensor) or f.variance != ("u",):
                raise TypeError(f"tetrad field '{name}' must be a "
                                "contravariant vector field")


@dataclass(eq=False)
class TetradFrame:
    """One quantity of the tetrad legs at one point (see ``leg_field``):
    their contravariant components, or their lowered components, ∇ or ∂,
    with m = m_re + i m_im.  ``checks`` holds the legs' ``TetradCheck``
    by (tol, metric value bytes), see ``validate_tetrad_from_metric_value``."""

    k: np.ndarray
    l: np.ndarray
    m: np.ndarray
    point: tuple
    checks: dict = field(default_factory=dict, repr=False)

    @property
    def mbar(self) -> np.ndarray:
        return np.conj(self.m)


LEG_QUANTITIES = ("value", "lowered", "nabla", "partial")


def leg_field(metric: MetricField, leg: SymbolicTensor,
              quantity: str) -> SymbolicTensor:
    """The field whose value is ``quantity`` of the vector field ``leg``:
    'value' v^a itself, 'lowered' v_a, 'nabla' ∇_a v_b or 'partial'
    ∂_a v_b."""
    if quantity == "value":
        return leg
    dn = metric.lowered_vector_field(leg)
    if quantity == "lowered":
        return dn
    if quantity == "nabla":
        return metric.covector_gradient_field(dn)
    if quantity == "partial":
        return metric.partial_gradient_field(dn)
    raise ValueError(f"unknown leg quantity {quantity!r}")


def tetrad_frame(metric: MetricField, tetrad: NullTetrad, point,
                 quantity: str = "value", transforms=()) -> TetradFrame:
    """``quantity`` of the legs at ``point`` (see ``leg_field``), rotated
    by the (kind, param) pairs ``transforms`` in order; made once per
    point context.  The parameters are constants, so the rotation acts on
    each quantity as on the legs themselves."""
    ctx = metric.at(point)
    transforms = tuple(transforms)

    def make():
        k, l, mre, mim = (
            metric.evaluate_field(leg_field(metric, leg, quantity), point)
            for leg in (tetrad.k, tetrad.l, tetrad.m_re, tetrad.m_im))
        frame = TetradFrame(k, l, mre + 1j * mim, ctx.point)
        for kind, param in transforms:
            frame = null_rotate_frame(frame, param, kind)
        return frame
    return ctx.once(("frame", tetrad, quantity, transforms), make)


@dataclass(eq=False)
class TetradCheck:
    products: dict          # name -> (value, target, residual)
    scale: float
    valid: bool
    worst: str              # name of the largest-residual product
    max_residual: float
    point: tuple


def validate_tetrad(metric: MetricField, tetrad: NullTetrad, point,
                    tol: float = RESIDUAL_TOL) -> TetradCheck:
    """All nine cross products of the legs of ``tetrad`` at ``point``
    against their targets."""
    return validate_tetrad_from_metric_value(
        metric.metric_value(point), tetrad_frame(metric, tetrad, point), tol)


# ---------------------------------------------------------------------------
# curvature scalars
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class NPData:
    psi: np.ndarray       # Ψ0..Ψ4
    phi: np.ndarray       # Φ_ij, 3x3 Hermitian
    scalar: float         # R (the scalar curvature itself, not R/24)

    def weyl_scale(self) -> float:
        return max_abs(self.psi)

    def scale(self) -> float:
        return max(self.weyl_scale(), max_abs(self.phi),
                   abs(self.scalar))

    def misfit(self, family: str) -> tuple:
        """How far the data sit from ``conventions.FAMILIES[family]``: the
        largest scalar outside its Ψ and Φ slots, and |R - lock·Ψ|."""
        keep_psi, keep_phi, lock = FAMILIES[family]
        psi = [abs(z) for i, z in enumerate(self.psi) if i != keep_psi]
        phi = [abs(self.phi[ij]) for ij in np.ndindex(3, 3) if ij != keep_phi]
        return max(psi + phi), abs(self.scalar - lock * self.psi[keep_psi])


def np_scalars(curv: Curvature, frame: TetradFrame,
               tol: float = RESIDUAL_TOL) -> NPData:
    """Project Weyl and trace-free Ricci onto the tetrad."""
    gv = curv.metric
    k, l, m, mb = frame.k, frame.l, frame.m, frame.mbar
    # the nine products must pass before the scalars mean anything
    check = validate_tetrad_from_metric_value(gv, frame, tol)
    if check.max_residual > 10 * tol * check.scale:
        raise InvalidTetradError(check)

    C = curv.weyl

    def c4(a, b, c, d):
        return complex(np.einsum("abcd,a,b,c,d->", C, a, b, c, d))

    psi = np.array([
        c4(k, m, k, m),
        c4(k, l, k, m),
        c4(k, m, mb, l),
        c4(k, l, mb, l),
        c4(l, mb, l, mb),
    ], dtype=complex)

    phi_ab = PHI_SIGN * (curv.ricci - 0.25 * curv.scalar * gv)

    def ph(x, y):
        return complex(x @ phi_ab @ y)

    phi = np.empty((3, 3), dtype=complex)
    phi[0, 0] = ph(k, k)
    phi[0, 1] = ph(k, m)
    phi[0, 2] = ph(m, m)
    phi[1, 0] = ph(k, mb)
    phi[1, 1] = 0.5 * (ph(k, l) + ph(m, mb))
    phi[1, 2] = ph(l, m)
    phi[2, 0] = ph(mb, mb)
    phi[2, 1] = ph(l, mb)
    phi[2, 2] = ph(l, l)
    return NPData(psi, phi, float(curv.scalar))


def validate_tetrad_from_metric_value(gv: np.ndarray, frame: TetradFrame,
                                      tol: float = RESIDUAL_TOL) -> TetradCheck:
    """All nine cross products of the legs of ``frame`` under the numeric
    metric ``gv`` against their targets, computed once per frame, ``tol``
    and metric value and kept in ``frame.checks``.  A caller that rejects
    the check raises on each call: only the products are kept."""
    key = (tol, gv.tobytes())
    if key in frame.checks:
        return frame.checks[key]

    def dot(x, y):
        return complex(x @ gv @ y)

    k, l, m, mb = frame.k, frame.l, frame.m, frame.mbar
    # legs too large for the metric overflow a product to inf or nan
    # (inf - inf); such a product fails the check below, and a nan one
    # is the worst
    with np.errstate(over="ignore", invalid="ignore"):
        targets = {
            "k.k": (dot(k, k), 0.0), "l.l": (dot(l, l), 0.0),
            "m.m": (dot(m, m), 0.0), "k.l": (dot(k, l), 1.0),
            "k.m": (dot(k, m), 0.0), "l.m": (dot(l, m), 0.0),
            "k.mbar": (dot(k, mb), 0.0), "l.mbar": (dot(l, mb), 0.0),
            "m.mbar": (dot(m, mb), -1.0),
        }
    gmax = max_abs(gv)
    vmax = max(max_abs(v) for v in (k, l, m))
    scale = max(gmax * vmax * vmax, SCALE_FLOOR)
    products = {}
    worst, worst_res = "k.k", 0.0
    for name, (value, target) in targets.items():
        res = abs(value - target)
        products[name] = (value, target, res)
        if res > worst_res or math.isnan(res):
            worst, worst_res = name, res
    check = frame.checks[key] = TetradCheck(
        products, scale, worst_res <= tol * scale < math.inf, worst,
        worst_res, frame.point)
    return check


# ---------------------------------------------------------------------------
# spin coefficients
# ---------------------------------------------------------------------------

def spin_coefficients(metric: MetricField, tetrad: NullTetrad, point,
                      tol: float = RESIDUAL_TOL, transforms=()) -> dict:
    """The twelve NP connection scalars by name (kappa, sigma, rho, tau,
    epsilon, beta, alpha, gamma, pi, lambda, mu, nu, in that order), from
    covariant derivatives of the legs of ``tetrad`` rotated by
    ``transforms`` (sign table frozen in the conventions document).

    The tetrad check is computed once per frame and raises on every call
    of a frame that fails it; the contraction runs
    once per (point, tetrad, tol, transforms), and a failed check caches
    nothing.
    """
    transforms = tuple(transforms)
    frame = tetrad_frame(metric, tetrad, point, "value", transforms)
    check = validate_tetrad_from_metric_value(
        metric.metric_value(point), frame, tol)
    if not check.valid:
        raise InvalidTetradError(check)
    return metric.at(point).once(
        ("spin", tetrad, tol, transforms),
        lambda: _spin_coefficients(frame, tetrad_frame(
            metric, tetrad, point, "nabla", transforms)))


def _spin_coefficients(frame: TetradFrame, nabla: TetradFrame) -> dict:
    nk, nl, nm = nabla.k, nabla.l, nabla.m
    k, l, m, mb = frame.k, frame.l, frame.m, frame.mbar

    def d(x, grad, y):
        # x^a y^b ∇_b (·)_a  with grad[b, a] = ∇_b (·)_a
        return complex(np.einsum("a,ba,b->", x, grad, y))

    return {
        "kappa": d(m, nk, k),
        "sigma": d(m, nk, m),
        "rho": d(m, nk, mb),
        "tau": d(m, nk, l),
        "epsilon": 0.5 * (d(l, nk, k) - d(mb, nm, k)),
        "beta": 0.5 * (d(l, nk, m) - d(mb, nm, m)),
        "alpha": 0.5 * (d(l, nk, mb) - d(mb, nm, mb)),
        "gamma": 0.5 * (d(l, nk, l) - d(mb, nm, l)),
        "pi": -d(mb, nl, k),
        "lambda": -d(mb, nl, mb),
        "mu": -d(mb, nl, m),
        "nu": -d(mb, nl, l),
    }


# ---------------------------------------------------------------------------
# tetrad transformations
# ---------------------------------------------------------------------------


def null_rotate_weyl(psi, param: complex, kind: str) -> np.ndarray:
    """Induced action of a tetrad transformation on (Ψ0..Ψ4)."""
    p0, p1, p2, p3, p4 = np.asarray(psi, dtype=complex)
    if kind == "about-k":
        c = np.conj(param)
        return np.array([
            p0,
            p1 + c * p0,
            p2 + 2 * c * p1 + c ** 2 * p0,
            p3 + 3 * c * p2 + 3 * c ** 2 * p1 + c ** 3 * p0,
            p4 + 4 * c * p3 + 6 * c ** 2 * p2 + 4 * c ** 3 * p1 + c ** 4 * p0,
        ])
    if kind == "about-l":
        b = complex(param)
        return np.array([
            p0 + 4 * b * p1 + 6 * b ** 2 * p2 + 4 * b ** 3 * p3 + b ** 4 * p4,
            p1 + 3 * b * p2 + 3 * b ** 2 * p3 + b ** 3 * p4,
            p2 + 2 * b * p3 + b ** 2 * p4,
            p3 + b * p4,
            p4,
        ])
    if kind == "boost-spin":
        lam = complex(param)
        if lam == 0:
            raise ValueError("boost-spin parameter must be nonzero")
        return np.array([p0, p1, p2, p3, p4]) * \
            lam ** np.array([2, 1, 0, -1, -2])
    if kind == "reverse":
        return np.array([p4, p3, p2, p1, p0])
    raise ValueError(f"unknown rotation kind {kind!r}")


def null_rotate_frame(frame: TetradFrame, param: complex,
                      kind: str) -> TetradFrame:
    """The same transformation applied to one quantity of the tetrad
    legs."""
    k, l, m = frame.k, frame.l, frame.m
    mb = m.conjugate()
    if kind == "about-k":
        c = complex(param)
        return TetradFrame(
            k, l + np.conj(c) * m + c * mb + abs(c) ** 2 * k,
            m + c * k, frame.point)
    if kind == "about-l":
        b = complex(param)
        return TetradFrame(
            k + np.conj(b) * m + b * mb + abs(b) ** 2 * l, l,
            m + b * l, frame.point)
    if kind == "boost-spin":
        lam = complex(param)
        if lam == 0:
            raise ValueError("boost-spin parameter must be nonzero")
        a = abs(lam)
        phase = lam / a
        return TetradFrame(a * k, l / a, phase * m, frame.point)
    if kind == "reverse":
        return TetradFrame(l, k, mb, frame.point)
    raise ValueError(f"unknown rotation kind {kind!r}")


# ---------------------------------------------------------------------------
# Petrov classification
# ---------------------------------------------------------------------------

def weyl_invariants(psi) -> dict:
    p0, p1, p2, p3, p4 = np.asarray(psi, dtype=complex)
    i_inv = p0 * p4 - 4 * p1 * p3 + 3 * p2 ** 2
    j_inv = (p0 * (p2 * p4 - p3 ** 2) - p1 * (p1 * p4 - p2 * p3)
             + p2 * (p1 * p3 - p2 ** 2))
    k_inv = p1 * p4 ** 2 - 3 * p2 * p3 * p4 + 2 * p3 ** 3
    l_inv = p2 * p4 - p3 ** 2
    n_inv = 12 * l_inv ** 2 - p4 ** 2 * i_inv
    return {"I": i_inv, "J": j_inv, "K": k_inv, "L": l_inv, "N": n_inv}


_ROTATION_CANDIDATES = (1.0, -1.0, 1j, -1j, 2.0, 0.5, 0.7 + 0.3j)


def _frame_with_psi4(w: np.ndarray) -> np.ndarray:
    """Rotate a normalized Ψ vector into a frame where Ψ4 is O(1), so the
    refinement invariants K, L, N are meaningful."""
    if abs(w[4]) > 1e-3:
        return w
    rev = w[::-1]
    if abs(rev[4]) > 1e-3:
        return rev
    best = w
    best_mag = abs(w[4])
    for c in _ROTATION_CANDIDATES:
        cand = null_rotate_weyl(w, c, "about-k")
        cand = cand / max_abs(cand)
        if abs(cand[4]) > best_mag:
            best, best_mag = cand, abs(cand[4])
    return best


def petrov_classify(psi, tol: float = RESIDUAL_TOL) -> str:
    """Classify by the invariant chain: I vs (I³ = 27J²), then refine."""
    psi = np.asarray(psi, dtype=complex)
    scale = max_abs(psi)
    if scale < SCALE_FLOOR:
        return "O"
    w = _frame_with_psi4(psi / scale)
    w = w / max_abs(w)
    inv = weyl_invariants(w)
    gate = 100.0 * tol
    i_inv, j_inv = inv["I"], inv["J"]
    if abs(i_inv) <= gate and abs(j_inv) <= gate:
        # types III, N (O was handled by the scale test)
        if abs(inv["K"]) <= gate and abs(inv["L"]) <= gate:
            return "N"
        return "III"
    lhs = i_inv ** 3
    rhs = 27 * j_inv ** 2
    # I and J of a unit-normalized vector carry a few ulp of absolute
    # error, so when both are tiny (degenerate roots that nearly
    # coincide with each other) the relative gate alone would amplify
    # roundoff; keep an absolute floor scaled by that error estimate
    eps = float(np.finfo(float).eps)
    floor = 512.0 * eps * (abs(i_inv) ** 2 + abs(j_inv) + eps)
    if abs(lhs - rhs) > max(tol * max(abs(lhs), abs(rhs)), floor):
        return "I"
    if abs(inv["K"]) <= gate and abs(inv["N"]) <= gate:
        return "D"
    return "II"


def pnd_roots(psi) -> tuple[list, int]:
    """Roots of Ψ0 + 4Ψ1 z + 6Ψ2 z² + 4Ψ3 z³ + Ψ4 z⁴ via the companion
    matrix, plus the multiplicity at infinity from degree drop."""
    psi = np.asarray(psi, dtype=complex)
    scale = max_abs(psi)
    if scale < SCALE_FLOOR:
        return [], 0
    coeffs = np.array([psi[4], 4 * psi[3], 6 * psi[2], 4 * psi[1], psi[0]],
                      dtype=complex) / scale
    cmax = max_abs(coeffs)
    lead = 0
    while lead < 4 and abs(coeffs[lead]) <= 1e-12 * cmax:
        lead += 1
    finite = np.roots(coeffs[lead:]) if lead < 4 else np.array([])
    return list(finite), lead


CLUSTER_TOL = 1e-3          # chordal distance within which roots coincide


def _chordal(z, w) -> float:
    # distance on the root sphere; None encodes the point at infinity
    if z is None and w is None:
        return 0.0
    if z is None:
        return 1.0 / np.sqrt(1.0 + abs(w) ** 2)
    if w is None:
        return 1.0 / np.sqrt(1.0 + abs(z) ** 2)
    return abs(z - w) / np.sqrt((1.0 + abs(z) ** 2) * (1.0 + abs(w) ** 2))


def _clusters(roots: list, inf_mult: int) -> list[list]:
    """Single-linkage clusters of the roots and ``inf_mult`` points at
    infinity (None) in the chordal metric: two clusters merge when any
    two of their points lie within CLUSTER_TOL.  Each cluster keeps root
    order, and the clusters come in the order of their first root."""
    pts = list(roots) + [None] * inf_mult
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if _chordal(pts[i], pts[j]) <= CLUSTER_TOL:
                parent[find(i)] = find(j)
    groups: dict[int, list] = {}
    for i, p in enumerate(pts):
        groups.setdefault(find(i), []).append(p)
    return list(groups.values())


# ---------------------------------------------------------------------------
# tetrad adaptation
# ---------------------------------------------------------------------------

# how many principal null directions coincide in the repeated one
_MULTIPLICITY = {"N": 4, "III": 3, "D": 2, "II": 2, "I": 1}


def adapt_weyl(psi, petrov: str, tol: float = RESIDUAL_TOL):
    """Null-rotate Ψ so that the repeated principal null direction of
    Petrov type ``petrov`` is k (zeroing the low components), and for a
    doubly degenerate type also align l (zeroing Ψ3, Ψ4).

    The direction is the mean of the largest cluster of roots of the
    direction quartic; where it lies nearer l than k (|z| > 1, or at
    infinity), k and l are swapped first.  A k-fold root spread by rounding moves by about
    ε^(1/k) and may break its cluster; when the largest cluster is
    smaller than the type's multiplicity k, the direction is instead
    the root nearest that mean of the quartic's (k-1)-th derivative,
    Σ_j C(5-k, j) Ψ_{k-1+j} z^j, of which a k-fold root is a simple root.

    Returns (psi_adapted, transforms) where transforms is the list of
    (kind, param) pairs applied, for null_rotate_frame and tetrad_frame.
    """
    psi = np.asarray(psi, dtype=complex)
    transforms: list = []
    scale = max_abs(psi)
    if scale < SCALE_FLOOR:
        return psi, transforms
    # the dominant direction: the first largest cluster of roots
    best = max(_clusters(*pnd_roots(psi)), key=len)
    if None in best or abs(complex(np.mean(best))) > 1.0:
        # it lies nearer l (at infinity) than k: swap them to bring it
        # near 0, where the roots and the derivative below are accurate,
        # and take it there: the largest cluster nearest 0
        psi = null_rotate_weyl(psi, 0.0, "reverse")
        transforms.append(("reverse", 0.0))
        best = min(_clusters(*pnd_roots(psi)), key=lambda c: (
            -len(c), max(_chordal(z, 0.0) for z in c)))

    center = None if None in best else complex(np.mean(best))
    k = _MULTIPLICITY[petrov]
    if center is not None and len(best) < k:
        n = 5 - k
        roots = np.roots([math.comb(n, j) * psi[k - 1 + j]
                          for j in range(n, -1, -1)])
        center = complex(min(roots, key=lambda z: abs(z - center),
                             default=center))
    if center is not None and abs(center) > 0:
        psi = null_rotate_weyl(psi, center, "about-l")
        transforms.append(("about-l", center))

    # degenerate pair: also zero Ψ3 (and, for exact data, Ψ4) with a
    # rotation about the now-aligned k
    if k == 2 and abs(psi[2]) > tol * max_abs(psi):
        c = np.conj(-psi[3] / (3.0 * psi[2]))
        if abs(c) > 0:
            psi = null_rotate_weyl(psi, c, "about-k")
            transforms.append(("about-k", c))
    return psi, transforms


@dataclass(eq=False)
class AdaptedTetrad:
    """A tetrad re-aligned so the repeated principal null direction sits
    on the k leg, by constant-parameter rotations computed at one point;
    ``tetrad_frame`` with ``transforms`` gives any quantity of its legs."""

    petrov: str             # the Petrov type of the point, decided once
    transforms: list        # (kind, param) pairs from adapt_weyl
    frame: TetradFrame      # the adapted legs at the point
    data: NPData            # curvature scalars in the adapted frame


def adapt_tetrad(metric: MetricField, tetrad: NullTetrad, point,
                 tol: float = RESIDUAL_TOL) -> AdaptedTetrad:
    """Decide the Petrov type of the Ψ of ``tetrad`` at ``point`` and
    rotate its legs there by the transformations ``adapt_weyl`` finds for
    that type (identity when it is already adapted).

    The type is O, with no rotation, when max|Ψ| is at most ``tol`` of
    the declared data's scale (a relative test, so that it does not
    depend on units).  Computed once per (tetrad, tol) in the point
    context: ``tol`` gates the tetrad check, the O test, the invariant
    chain and the degenerate-pair rotation.  A failed tetrad check raises
    and caches nothing.
    """
    def make():
        curv = curvature(metric, point)
        frame = tetrad_frame(metric, tetrad, point)
        declared = np_scalars(curv, frame, tol)
        if declared.weyl_scale() <= tol * declared.scale():
            petrov, transforms = "O", []
        else:
            petrov = petrov_classify(declared.psi, tol)
            _, transforms = adapt_weyl(declared.psi, petrov, tol)
        frame = tetrad_frame(metric, tetrad, point, "value", transforms)
        data = np_scalars(curv, frame, tol) if transforms else declared
        return AdaptedTetrad(petrov, transforms, frame, data)
    return metric.at(point).once(("adapted", tetrad, tol), make)
