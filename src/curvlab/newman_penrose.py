"""Null tetrads, curvature scalars, spin coefficients, Petrov types.

A null tetrad (k, l, m, m̄) with k·l = 1, m·m̄ = -1 turns the Weyl tensor
into five complex scalars Ψ0..Ψ4, the trace-free Ricci tensor into a
Hermitian 3x3 matrix Φ_ij, and the connection into twelve complex spin
coefficients.  On top of those this module implements the Petrov
classification two independent ways (invariant chain and root
clustering of the direction quartic) and the tetrad transformation
group (null rotations about either real direction, boosts and spins),
including transformations of tetrad *fields* by constant parameters so
that a misaligned tetrad can be adapted to a degenerate direction
without leaving the symbolic representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conventions import PHI_SIGN, RESIDUAL_TOL, SCALE_FLOOR
from .expressions import ZERO, add, const, mul
from .geometry import Curvature, MetricField, SymbolicTensor, curvature

PETROV_TYPES = ("I", "II", "D", "III", "N", "O")


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
    """Four symbolic vector fields; the complex leg is m = m_re + i m_im."""

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
    """Numeric tetrad legs at one point (contravariant components)."""

    k: np.ndarray
    l: np.ndarray
    m: np.ndarray
    point: tuple

    @property
    def mbar(self) -> np.ndarray:
        return np.conj(self.m)


def tetrad_frame(metric: MetricField, tetrad: NullTetrad, point) -> TetradFrame:
    """The legs at ``point``, evaluated once per point context."""
    ctx = metric.at(point)
    key = ("frame", tetrad)
    if key not in ctx.tetrad_data:
        k = metric.evaluate_field(tetrad.k, point).array
        l = metric.evaluate_field(tetrad.l, point).array
        mre = metric.evaluate_field(tetrad.m_re, point).array
        mim = metric.evaluate_field(tetrad.m_im, point).array
        ctx.tetrad_data[key] = TetradFrame(k, l, mre + 1j * mim, ctx.point)
    return ctx.tetrad_data[key]


@dataclass(eq=False)
class TetradCheck:
    products: dict          # name -> (value, target, residual)
    scale: float
    valid: bool
    worst: str              # name of the largest-residual product
    max_residual: float
    point: tuple


def validate_tetrad(metric: MetricField, tetrad, point,
                    tol: float = RESIDUAL_TOL) -> TetradCheck:
    """All nine cross products of (k, l, m, m̄) against their targets."""
    frame = tetrad if isinstance(tetrad, TetradFrame) else \
        tetrad_frame(metric, tetrad, point)
    return validate_tetrad_from_metric_value(
        metric.metric_value(point), frame, tol)


def require_valid_tetrad(metric: MetricField, tetrad, point,
                         tol: float = RESIDUAL_TOL) -> TetradFrame:
    frame = tetrad if isinstance(tetrad, TetradFrame) else \
        tetrad_frame(metric, tetrad, point)
    check = validate_tetrad(metric, frame, point, tol)
    if not check.valid:
        raise InvalidTetradError(check)
    return frame


# ---------------------------------------------------------------------------
# curvature scalars
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class NPData:
    psi: np.ndarray       # Ψ0..Ψ4
    phi: np.ndarray       # Φ_ij, 3x3 Hermitian
    scalar: float         # R (the scalar curvature itself, not R/24)

    def weyl_scale(self) -> float:
        return float(np.max(np.abs(self.psi)))

    def scale(self) -> float:
        return max(self.weyl_scale(), float(np.max(np.abs(self.phi))),
                   abs(self.scalar))

    def off_pattern(self, keep_psi: int, keep_phi: tuple) -> float:
        """Largest curvature scalar outside the admissible slots Ψ_keep_psi
        and Φ_keep_phi."""
        psi = [abs(z) for i, z in enumerate(self.psi) if i != keep_psi]
        phi = [abs(self.phi[ij]) for ij in np.ndindex(3, 3) if ij != keep_phi]
        return max(psi + phi)


def np_scalars(curv: Curvature, frame: TetradFrame,
               tol: float = RESIDUAL_TOL) -> NPData:
    """Project Weyl and trace-free Ricci onto the tetrad."""
    gv = curv.metric
    k, l, m, mb = frame.k, frame.l, frame.m, frame.mbar
    # the nine products must pass before the scalars mean anything
    check = validate_tetrad_from_metric_value(gv, frame, tol)
    if check.max_residual > 10 * tol * check.scale:
        raise InvalidTetradError(check)

    C = curv.weyl.array

    def c4(a, b, c, d):
        return complex(np.einsum("abcd,a,b,c,d->", C, a, b, c, d))

    psi = np.array([
        c4(k, m, k, m),
        c4(k, l, k, m),
        c4(k, m, mb, l),
        c4(k, l, mb, l),
        c4(l, mb, l, mb),
    ], dtype=complex)

    phi_ab = PHI_SIGN * (curv.ricci.array - 0.25 * curv.scalar * gv)

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
    """validate_tetrad when only the numeric metric is at hand."""

    def dot(x, y):
        return complex(x @ gv @ y)

    k, l, m, mb = frame.k, frame.l, frame.m, frame.mbar
    targets = {
        "k.k": (dot(k, k), 0.0), "l.l": (dot(l, l), 0.0),
        "m.m": (dot(m, m), 0.0), "k.l": (dot(k, l), 1.0),
        "k.m": (dot(k, m), 0.0), "l.m": (dot(l, m), 0.0),
        "k.mbar": (dot(k, mb), 0.0), "l.mbar": (dot(l, mb), 0.0),
        "m.mbar": (dot(m, mb), -1.0),
    }
    gmax = float(np.max(np.abs(gv)))
    vmax = max(float(np.max(np.abs(v))) for v in (k, l, m))
    scale = max(gmax * vmax * vmax, SCALE_FLOOR)
    products = {}
    worst, worst_res = "k.k", 0.0
    for name, (value, target) in targets.items():
        res = abs(value - target)
        products[name] = (value, target, res)
        if res > worst_res:
            worst, worst_res = name, res
    return TetradCheck(products, scale, worst_res <= tol * scale,
                       worst, worst_res, frame.point)


# ---------------------------------------------------------------------------
# spin coefficients
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SpinCoefficients:
    kappa: complex
    sigma: complex
    rho: complex
    tau: complex
    epsilon: complex
    beta: complex
    alpha: complex
    gamma: complex
    pi: complex
    lam: complex
    mu: complex
    nu: complex

    def as_dict(self) -> dict:
        return {
            "kappa": self.kappa, "sigma": self.sigma, "rho": self.rho,
            "tau": self.tau, "epsilon": self.epsilon, "beta": self.beta,
            "alpha": self.alpha, "gamma": self.gamma, "pi": self.pi,
            "lambda": self.lam, "mu": self.mu, "nu": self.nu,
        }


def spin_coefficients(metric: MetricField, tetrad: NullTetrad, point,
                      tol: float = RESIDUAL_TOL) -> SpinCoefficients:
    """The twelve NP connection scalars, from covariant derivatives of
    the tetrad legs (sign table frozen in the conventions document)."""
    frame = require_valid_tetrad(metric, tetrad, point, tol)

    def grad_of(field: SymbolicTensor) -> np.ndarray:
        dn = metric.lowered_vector_field(field)
        return metric.evaluate_field(
            metric.covector_gradient_field(dn), point).array

    nk = grad_of(tetrad.k)
    nl = grad_of(tetrad.l)
    nm = grad_of(tetrad.m_re) + 1j * grad_of(tetrad.m_im)
    k, l, m, mb = frame.k, frame.l, frame.m, frame.mbar

    def d(x, grad, y):
        # x^a y^b ∇_b (·)_a  with grad[b, a] = ∇_b (·)_a
        return complex(np.einsum("a,ba,b->", x, grad, y))

    return SpinCoefficients(
        kappa=d(m, nk, k),
        sigma=d(m, nk, m),
        rho=d(m, nk, mb),
        tau=d(m, nk, l),
        epsilon=0.5 * (d(l, nk, k) - d(mb, nm, k)),
        beta=0.5 * (d(l, nk, m) - d(mb, nm, m)),
        alpha=0.5 * (d(l, nk, mb) - d(mb, nm, mb)),
        gamma=0.5 * (d(l, nk, l) - d(mb, nm, l)),
        pi=-d(mb, nl, k),
        lam=-d(mb, nl, mb),
        mu=-d(mb, nl, m),
        nu=-d(mb, nl, l),
    )


# ---------------------------------------------------------------------------
# tetrad transformations
# ---------------------------------------------------------------------------

ROTATION_KINDS = ("about-k", "about-l", "boost-spin")


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
    """The same transformation applied to numeric tetrad legs."""
    k, l, m = frame.k, frame.l, frame.m
    mb = np.conj(m)
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


def null_rotate(data, param: complex, kind: str):
    """Dispatch on a Ψ 5-vector or a TetradFrame."""
    if isinstance(data, TetradFrame):
        return null_rotate_frame(data, param, kind)
    return null_rotate_weyl(data, param, kind)


def rotate_tetrad_field(tetrad: NullTetrad, param: complex,
                        kind: str) -> NullTetrad:
    """Transform tetrad *fields* by a constant parameter.  The complex
    arithmetic decomposes into real combinations of the stored legs, so
    the result stays in the symbolic representation."""

    def combine(*pairs):
        # pairs of (coefficient, SymbolicTensor) -> new vector field
        comp = np.empty(4, dtype=object)
        for a in range(4):
            s = ZERO
            for coeff, field in pairs:
                if coeff == 0.0:
                    continue
                s = add(s, mul(const(coeff), field.components[a]))
            comp[a] = s
        return SymbolicTensor(comp, ("u",))

    k, l, mre, mim = tetrad.k, tetrad.l, tetrad.m_re, tetrad.m_im
    if kind == "about-k":
        c = complex(param)
        cr, ci = c.real, c.imag
        # m' = m + ck ; l' = l + 2 Re(c̄ m) + |c|² k
        return NullTetrad(
            k=combine((1.0, k)),
            l=combine((1.0, l), (2 * cr, mre), (2 * ci, mim),
                      (abs(c) ** 2, k)),
            m_re=combine((1.0, mre), (cr, k)),
            m_im=combine((1.0, mim), (ci, k)))
    if kind == "about-l":
        b = complex(param)
        br, bi = b.real, b.imag
        return NullTetrad(
            k=combine((1.0, k), (2 * br, mre), (2 * bi, mim),
                      (abs(b) ** 2, l)),
            l=combine((1.0, l)),
            m_re=combine((1.0, mre), (br, l)),
            m_im=combine((1.0, mim), (bi, l)))
    if kind == "boost-spin":
        lam = complex(param)
        if lam == 0:
            raise ValueError("boost-spin parameter must be nonzero")
        a = abs(lam)
        ph = lam / a
        cr, ci = ph.real, ph.imag
        # m' = e^{iθ} m: real part cr·m_re − ci·m_im, imag cr·m_im + ci·m_re
        return NullTetrad(
            k=combine((a, k)),
            l=combine((1.0 / a, l)),
            m_re=combine((cr, mre), (-ci, mim)),
            m_im=combine((ci, mre), (cr, mim)))
    if kind == "reverse":
        return NullTetrad(k=l, l=k, m_re=mre,
                          m_im=combine((-1.0, mim)))
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
        cand = cand / np.max(np.abs(cand))
        if abs(cand[4]) > best_mag:
            best, best_mag = cand, abs(cand[4])
    return best


def petrov_classify(psi, tol: float = RESIDUAL_TOL) -> str:
    """Classify by the invariant chain: I vs (I³ = 27J²), then refine."""
    psi = np.asarray(psi, dtype=complex)
    scale = float(np.max(np.abs(psi)))
    if scale < SCALE_FLOOR:
        return "O"
    w = _frame_with_psi4(psi / scale)
    w = w / np.max(np.abs(w))
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
    scale = float(np.max(np.abs(psi)))
    if scale < SCALE_FLOOR:
        return [], 0
    coeffs = np.array([psi[4], 4 * psi[3], 6 * psi[2], 4 * psi[1], psi[0]],
                      dtype=complex) / scale
    cmax = float(np.max(np.abs(coeffs)))
    lead = 0
    while lead < 4 and abs(coeffs[lead]) <= 1e-12 * cmax:
        lead += 1
    finite = np.roots(coeffs[lead:]) if lead < 4 else np.array([])
    return list(finite), lead


def _chordal(z, w) -> float:
    # distance on the root sphere; None encodes the point at infinity
    if z is None and w is None:
        return 0.0
    if z is None:
        return 1.0 / np.sqrt(1.0 + abs(w) ** 2)
    if w is None:
        return 1.0 / np.sqrt(1.0 + abs(z) ** 2)
    return abs(z - w) / np.sqrt((1.0 + abs(z) ** 2) * (1.0 + abs(w) ** 2))


def cluster_roots(roots: list, inf_mult: int,
                  cluster_tol: float = 1e-3) -> list[int]:
    """Single-linkage clustering in the chordal metric; returns the
    multiplicity pattern sorted descending."""
    pts = list(roots) + [None] * inf_mult
    n = len(pts)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if _chordal(pts[i], pts[j]) <= cluster_tol:
                parent[find(i)] = find(j)
    counts: dict[int, int] = {}
    for i in range(n):
        r = find(i)
        counts[r] = counts.get(r, 0) + 1
    return sorted(counts.values(), reverse=True)


def petrov_from_roots(psi, cluster_tol: float = 1e-3) -> str:
    """Independent classification by root multiplicities of the
    direction quartic (the oracle for the invariant chain)."""
    psi = np.asarray(psi, dtype=complex)
    if float(np.max(np.abs(psi))) < SCALE_FLOOR:
        return "O"
    roots, inf_mult = pnd_roots(psi)
    pattern = tuple(cluster_roots(roots, inf_mult, cluster_tol))
    return {
        (4,): "N",
        (3, 1): "III",
        (2, 2): "D",
        (2, 1, 1): "II",
        (1, 1, 1, 1): "I",
    }[pattern]


# ---------------------------------------------------------------------------
# tetrad adaptation
# ---------------------------------------------------------------------------

def adapt_weyl(psi, tol: float = RESIDUAL_TOL):
    """Null-rotate Ψ so that the highest-multiplicity principal null
    direction is k (zeroing the low components), and for a doubly
    degenerate pair also align l (zeroing Ψ3, Ψ4).

    Returns (psi_adapted, transforms) where transforms is the list of
    (kind, param) pairs applied, suitable for rotate_tetrad_field.
    """
    psi = np.asarray(psi, dtype=complex)
    transforms: list = []
    scale = float(np.max(np.abs(psi)))
    if scale < SCALE_FLOOR:
        return psi, transforms
    best_center, best_count = _dominant_cluster(*pnd_roots(psi))

    if best_center is None:
        # dominant direction at infinity: swap k and l to bring it to 0
        psi = null_rotate_weyl(psi, 0.0, "reverse")
        transforms.append(("reverse", 0.0))
        best_center, best_count = _dominant_cluster(*pnd_roots(psi))

    if best_center is not None and abs(best_center) > 0:
        psi = null_rotate_weyl(psi, best_center, "about-l")
        transforms.append(("about-l", best_center))

    # degenerate pair: also zero Ψ3 (and, for exact data, Ψ4) with a
    # rotation about the now-aligned k
    if best_count == 2 and abs(psi[2]) > tol * np.max(np.abs(psi)):
        c = np.conj(-psi[3] / (3.0 * psi[2]))
        if abs(c) > 0:
            psi = null_rotate_weyl(psi, c, "about-k")
            transforms.append(("about-k", c))
    return psi, transforms


def _dominant_cluster(roots: list, inf_mult: int):
    pts = list(roots) + [None] * inf_mult
    best_center, best_count = None, 0
    taken = [False] * len(pts)
    for i, p in enumerate(pts):
        if taken[i]:
            continue
        idx = [j for j, q in enumerate(pts) if _chordal(p, q) <= 1e-3]
        for j in idx:
            taken[j] = True
        if len(idx) > best_count:
            best_count = len(idx)
            finite = [pts[j] for j in idx if pts[j] is not None]
            best_center = complex(np.mean(finite)) if len(finite) == len(idx) \
                else None
    return best_center, best_count


@dataclass(eq=False)
class AdaptedTetrad:
    """A tetrad re-aligned so the repeated principal null direction sits
    on the k leg (constant-parameter rotations computed at one point)."""

    given: NullTetrad       # the tetrad fields before rotation
    transforms: list        # (kind, param) pairs from adapt_weyl
    frame: TetradFrame      # the adapted legs at the point
    data: NPData            # curvature scalars in the adapted frame
    declared: NPData        # curvature scalars in the given frame

    @cached_property
    def tetrad(self) -> NullTetrad:
        """The rotated tetrad fields, built only when a caller needs
        their derivatives (new expression nodes live as long as the
        process)."""
        tetrad = self.given
        for kind, param in self.transforms:
            tetrad = rotate_tetrad_field(tetrad, param, kind)
        return tetrad


def adapt_tetrad(metric: MetricField, tetrad: NullTetrad, point,
                 tol: float = RESIDUAL_TOL) -> AdaptedTetrad:
    """Rotate ``tetrad`` by the transformations ``adapt_weyl`` finds for
    its Ψ at ``point`` (identity when it is already adapted).

    Computed once per (tetrad, tol) in the point context: ``tol`` gates
    both the tetrad check and the degenerate-pair rotation.  A failed
    tetrad check raises and caches nothing.
    """
    ctx = metric.at(point)
    key = ("adapted", tetrad, tol)
    if key not in ctx.tetrad_data:
        curv = curvature(metric, point)
        frame = tetrad_frame(metric, tetrad, point)
        declared = np_scalars(curv, frame, tol)
        _, transforms = adapt_weyl(declared.psi, tol)
        for kind, param in transforms:
            frame = null_rotate(frame, param, kind)
        data = np_scalars(curv, frame, tol) if transforms else declared
        ctx.tetrad_data[key] = AdaptedTetrad(tetrad, transforms, frame,
                                             data, declared)
    return ctx.tetrad_data[key]
