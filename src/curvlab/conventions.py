"""Frozen sign and ordering conventions.

Every sign choice that downstream numerics depend on lives here, so that
the whole package is calibrated against a single module.  The summary
below is the calibration: each choice is stated together with the
values it gives on the unit 2-sphere, de Sitter space, a plane wave and
a product of two 2d factors.

Summary of the fixed choices
----------------------------

* Metric signature ``(+, -, -, -)``; timelike vectors have positive norm.

* Curvature tensor::

      R^a_{bcd} = RIEMANN_SIGN * ( d_c Gamma^a_{db} - d_d Gamma^a_{cb}
                                   + Gamma^a_{ce} Gamma^e_{db}
                                   - Gamma^a_{de} Gamma^e_{cb} )

  with ``RIEMANN_SIGN = -1``.  With this choice the unit 2-sphere has
  scalar curvature ``-2`` and de Sitter space has ``R > 0``; the Ricci
  commutator acting on a covector is
  ``(∇_a ∇_b - ∇_b ∇_a) w_c = + R^e_{cab} w_e``.

* ``R_ab = R^c_{acb}`` (contraction of the first/upper index with the
  third), ``R = g^{ab} R_ab``.

* Einstein tensor ``G_ab = R_ab - (R/2) g_ab``; the energy flux seen by
  an observer ``u`` is ``F^a = -G^a_b u^b`` (future-causal when the
  dominant energy condition holds).

* Trace-free Ricci components ``Phi_ij`` are built from
  ``PHI_SIGN * (R_ab - (R/4) g_ab)`` with ``PHI_SIGN = -1/2``, contracted
  on the null tetrad in the standard pattern (``Phi_00`` with ``k k``,
  ``Phi_22`` with ``l l``, ...).  A plane wave with amplitude growing in
  the transverse coordinates then has ``Phi_22 > 0``, consistent with
  the dominant energy condition on its matter flux.

* Null tetrad normalisation: ``k·l = 1``, ``m·mbar = -1``, all other
  products zero; ``m = (e2 - i e3)/sqrt(2)`` for spacelike unit ``e2, e3``.

* Weyl scalars: ``Psi_0 = C(k,m,k,m)``, ``Psi_1 = C(k,l,k,m)``,
  ``Psi_2 = C(k,m,mbar,l)``, ``Psi_3 = C(k,l,mbar,l)``,
  ``Psi_4 = C(l,mbar,l,mbar)``.  On a product of two 2d factors these
  conventions give ``R = -12 Psi_2`` in the conformally flat limit.

* Curvature-product structure constants: on metrics whose curvature
  splits into two blocks aligned with the tetrad planes, the two scalar
  weights multiplying the block projectors are

      A = -AB_FIT_CONSTANT * (3 Psi_2 + 2 Phi_11)
      B = +AB_FIT_CONSTANT * (3 Psi_2 - 2 Phi_11)

  with ``AB_FIT_CONSTANT = 2``.

* Spinor epsilon: ``eps_{01} = eps^{01} = +1``; indices raise as
  ``xi^A = eps^{AB} xi_B`` and contract as ``x_A y^A``.

* Spin coefficients (directional derivatives ``D, Delta, delta, deltabar``
  along ``k, l, m, mbar``)::

      kappa = m^a D k_a        sigma = m^a delta k_a
      rho   = m^a deltabar k_a tau   = m^a Delta k_a
      pi    = -mbar^a D l_a    nu    = -mbar^a Delta l_a
      mu    = -mbar^a delta l_a  lambda = -mbar^a deltabar l_a
      epsilon = (l^a D k_a      - mbar^a D m_a) / 2
      gamma   = (l^a Delta k_a  - mbar^a Delta m_a) / 2
      beta    = (l^a delta k_a  - mbar^a delta m_a) / 2
      alpha   = (l^a deltabar k_a - mbar^a deltabar m_a) / 2
"""

RIEMANN_SIGN = -1.0

PHI_SIGN = -0.5

AB_FIT_CONSTANT = 2.0

# Scalar-curvature term in the curvature spinor
# X_ABCD = Psi_ABCD + CURVATURE_SPINOR_R_FACTOR * R * (eps eps + eps eps);
# pinned by requiring the commutator condition on the Weyl spinor to
# vanish identically on Coulomb-form data with R = -12 Psi2 (the
# competing factor 1/12 leaves a finite residual there; see tests).
CURVATURE_SPINOR_R_FACTOR = 1.0 / 24.0

# The two curvature families of a semi-symmetric point of type N or D,
# in its adapted tetrad: the one Psi slot and the one Phi slot that may
# be nonzero, and the lock that fixes R = lock * Psi at that slot.
FAMILIES = {
    "N": (4, (2, 2), 0.0),      # radiation: Psi_4, Phi_22, R = 0
    "D": (2, (1, 1), -12.0),    # Coulomb: Psi_2, Phi_11, R = -12 Psi_2
}

# Residual verdicts: "holds" below TOL * scale, "fails" above
# 10 * TOL * scale, "indeterminate" between.
RESIDUAL_TOL = 1.0e-9
RESIDUAL_DEAD_BAND = 10.0

# Floor used whenever a magnitude scale would otherwise be ~0.
SCALE_FLOOR = 1.0e-14
