import numpy as np
import numpy.testing as npt
import pytest

from curvlab.corpus import CORPUS_NAMES, load_corpus_metric
from curvlab.expressions import (
    ZERO, add, differentiate, evaluate, mul, parse_expr, sub)
from curvlab.geometry import (
    DegenerateMetricError,
    MetricField,
    RankOverflowError,
    SymbolicTensor,
    commutator_action,
    curvature,
    max_abs,
)

from conftest import christoffel, inverse_value, move_index


# ---------------------------------------------------------------------------
# independent finite-difference oracles (no symbolic differentiation)
# ---------------------------------------------------------------------------

def fd_metric_derivatives(m, point, h=1e-6):
    """dg[a, b, c] = d_a g_bc by central differences of the metric values."""
    dg = np.zeros((4, 4, 4))
    for a in range(4):
        up = np.array(point, dtype=float)
        dn = up.copy()
        up[a] += h
        dn[a] -= h
        dg[a] = (m.metric_value(up) - m.metric_value(dn)) / (2 * h)
    return dg


def fd_christoffel(m, point, h=1e-6):
    ginv = np.linalg.inv(m.metric_value(point))
    dg = fd_metric_derivatives(m, point, h)
    sym = dg + np.transpose(dg, (2, 1, 0)) - np.transpose(dg, (1, 0, 2))
    return 0.5 * np.einsum("ad,bdc->abc", ginv, sym)


def fd_riemann_up(m, point, h=1e-4):
    """R^a_{bcd} from finite differences of the finite-difference connection,
    with the package's overall sign."""
    dgamma = np.zeros((4, 4, 4, 4))  # dgamma[c, a, d, b] = d_c Gamma^a_db
    for c in range(4):
        up = np.array(point, dtype=float)
        dn = up.copy()
        up[c] += h
        dn[c] -= h
        dgamma[c] = (fd_christoffel(m, up) - fd_christoffel(m, dn)) / (2 * h)
    gamma = fd_christoffel(m, point)
    term = np.einsum("cadb->abcd", dgamma) - np.einsum("dacb->abcd", dgamma)
    term += np.einsum("ace,edb->abcd", gamma, gamma)
    term -= np.einsum("ade,ecb->abcd", gamma, gamma)
    return -term


def point_list(m):
    return [np.asarray(p) for p in m.points.values()]


def jittered_points(m, rng, count=5, amplitude=0.05):
    pts = point_list(m)
    out = []
    for i in range(count):
        base = pts[i % len(pts)]
        out.append(base + rng.uniform(-amplitude, amplitude, size=4))
    return out


# ---------------------------------------------------------------------------
# connection
# ---------------------------------------------------------------------------

class TestChristoffel:
    def test_minkowski_flat(self, minkowski):
        gamma = christoffel(minkowski, minkowski.points["p1"])
        npt.assert_allclose(gamma, 0, atol=1e-15,
                            err_msg="flat-space connection should vanish")

    def test_schwarzschild_against_finite_differences(self, schwarzschild):
        p = schwarzschild.points["p0"]
        exact = christoffel(schwarzschild, p).real
        approx = fd_christoffel(schwarzschild, p)
        npt.assert_allclose(exact, approx, rtol=1e-6, atol=1e-9,
                            err_msg="connection disagrees with FD oracle")

    def test_symmetric_in_lower_indices(self, all_metrics):
        for m in all_metrics:
            p = next(iter(m.points.values()))
            gamma = christoffel(m, p)
            npt.assert_array_equal(
                gamma, np.transpose(gamma, (0, 2, 1)),
                err_msg=f"{m.name}: connection not exactly symmetric")


# ---------------------------------------------------------------------------
# curvature tensors
# ---------------------------------------------------------------------------

class TestCurvature:
    def test_minkowski_everything_vanishes(self, minkowski):
        c = curvature(minkowski, minkowski.points["origin"])
        for arr in (c.riemann, c.ricci, c.weyl):
            npt.assert_allclose(arr, 0, atol=1e-15)
        assert c.scalar == 0.0

    @pytest.mark.parametrize("fixture", ["schwarzschild", "nariai", "ppwave",
                                         "product2x2"])
    def test_riemann_against_fd_oracle(self, fixture, request):
        m = request.getfixturevalue(fixture)
        p = next(iter(m.points.values()))
        exact = curvature(m, p).riemann_up.real
        approx = fd_riemann_up(m, p)
        scale = max(np.max(np.abs(exact)), 1e-10)
        npt.assert_allclose(exact / scale, approx / scale, rtol=0, atol=1e-5,
                            err_msg=f"{m.name}: Riemann disagrees with FD oracle")

    def test_schwarzschild_is_vacuum(self, schwarzschild):
        for p in point_list(schwarzschild):
            c = curvature(schwarzschild, p)
            scale = max_abs(c.riemann)
            npt.assert_allclose(c.ricci / scale, 0, atol=1e-9,
                                err_msg="Ricci should vanish for vacuum")
            npt.assert_allclose(c.weyl, c.riemann,
                                rtol=1e-10, atol=1e-10 * scale,
                                err_msg="Weyl should equal Riemann in vacuum")

    def test_nariai_scalar_curvature(self, nariai):
        # both 2d factors have unit curvature K = 1; calibrated sign gives 4K
        for p in point_list(nariai):
            c = curvature(nariai, p)
            npt.assert_allclose(c.scalar, 4.0, rtol=1e-12,
                                err_msg="scalar curvature should be 4K")

    def test_riemann_symmetries(self, all_metrics):
        for m in all_metrics:
            for p in point_list(m):
                r = curvature(m, p).riemann
                scale = max(np.max(np.abs(r)), 1e-10)
                npt.assert_allclose(r, -np.transpose(r, (1, 0, 2, 3)),
                                    atol=1e-12 * scale,
                                    err_msg=f"{m.name}: not antisymmetric in ab")
                npt.assert_allclose(r, -np.transpose(r, (0, 1, 3, 2)),
                                    atol=1e-12 * scale,
                                    err_msg=f"{m.name}: not antisymmetric in cd")
                npt.assert_allclose(r, np.transpose(r, (2, 3, 0, 1)),
                                    atol=1e-12 * scale,
                                    err_msg=f"{m.name}: pair exchange broken")

    def test_first_bianchi(self, all_metrics):
        for m in all_metrics:
            for p in point_list(m):
                r = curvature(m, p).riemann
                scale = max(np.max(np.abs(r)), 1e-10)
                cyc = (r + np.transpose(r, (0, 2, 3, 1))
                       + np.transpose(r, (0, 3, 1, 2)))
                npt.assert_allclose(cyc / scale, 0, atol=1e-10,
                                    err_msg=f"{m.name}: first Bianchi fails")

    def test_weyl_totally_trace_free(self, all_metrics):
        for m in all_metrics:
            for p in point_list(m):
                c = curvature(m, p)
                w = c.weyl
                scale = max(np.max(np.abs(c.riemann)), 1e-10)
                for i, j in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
                    tr = np.tensordot(np.linalg.inv(c.metric),
                                      np.moveaxis(w, (i, j), (0, 1)),
                                      axes=([0, 1], [0, 1]))
                    npt.assert_allclose(tr / scale, 0, atol=1e-10,
                                        err_msg=f"{m.name}: Weyl trace ({i},{j})")

    def test_ricci_from_riemann_contraction(self, curved_metrics):
        for m in curved_metrics:
            p = next(iter(m.points.values()))
            c = curvature(m, p)
            contracted = np.einsum("cacb->ab", c.riemann_up)
            npt.assert_allclose(c.ricci, contracted, rtol=1e-12,
                                atol=1e-14,
                                err_msg=f"{m.name}: Ricci contraction mismatch")


# ---------------------------------------------------------------------------
# covariant derivatives
# ---------------------------------------------------------------------------

class TestCovariantDerivative:
    def test_metric_is_parallel(self, all_metrics):
        rng = np.random.default_rng(2024)
        for m in all_metrics:
            nabla_g = m.covariant_derivative_field(
                SymbolicTensor(m.g, ("d", "d")), order=1)
            for p in jittered_points(m, rng, count=5):
                val = m.evaluate_field(nabla_g, p)
                scale = max(np.max(np.abs(m.metric_value(p))), 1e-10)
                npt.assert_allclose(val / scale, 0, atol=1e-10,
                                    err_msg=f"{m.name}: metric not parallel")

    def test_scalar_derivative_is_partial(self, schwarzschild):
        m = schwarzschild
        rs = m.scalar_field().components[()]
        grad = m.covariant_derivative_field(
            SymbolicTensor(np.array(rs, dtype=object), ()), order=1)
        p = m.points["p0"]
        for a in range(4):
            lhs = evaluate(grad.components[a], m.bindings(p))
            with m.arena:
                rhs = evaluate(differentiate(rs, m.chart[a]), m.bindings(p))
            npt.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)

    def test_ppwave_wave_vector_is_parallel(self, ppwave):
        # k_a = (du)_a has exactly vanishing covariant derivative
        k = np.array([parse_expr("1", ppwave.chart), ZERO, ZERO, ZERO],
                     dtype=object)
        nabla_k = ppwave.covariant_derivative_field(SymbolicTensor(k, ("d",)))
        for idx in np.ndindex(4, 4):
            e = nabla_k.components[idx]
            assert e.kind == "const" and e.payload == 0.0, (
                f"component {idx} did not reduce to the zero expression")

    def test_second_derivative_ranks(self, minkowski):
        t = SymbolicTensor(minkowski.g, ("d", "d"))
        d2 = minkowski.covariant_derivative_field(t, order=2)
        assert d2.rank == 4
        assert d2.variance == ("d", "d", "d", "d")

    def test_rank_overflow(self, minkowski):
        r5 = SymbolicTensor(np.full((4,) * 5, ZERO, dtype=object), ("d",) * 5)
        with pytest.raises(RankOverflowError):
            minkowski.covariant_derivative_field(r5, order=2)

    @pytest.mark.parametrize("order", [0, 3])
    def test_nabla_field_takes_only_orders_one_and_two(self, minkowski,
                                                       order):
        with pytest.raises(ValueError, match="order must be 1 or 2"):
            minkowski.nabla_field("riemann", order)
        assert ("nabla", "riemann", order) not in minkowski._cache

    def test_gradient_cache_shared_across_wrapper_objects(self, schwarzschild):
        m = schwarzschild
        strings = ["r", "0", "1", "sin(theta)"]
        with m.arena:
            v1 = SymbolicTensor(
                np.array([parse_expr(s, m.chart) for s in strings],
                         dtype=object), ("d",))
            v2 = SymbolicTensor(
                np.array([parse_expr(s, m.chart) for s in strings],
                         dtype=object), ("d",))
        assert v1 is not v2
        assert m.covector_gradient_field(v1) is m.covector_gradient_field(v2)

    def test_gradient_cache_survives_wrapper_recycling(self, schwarzschild):
        # short-lived field wrappers are created and dropped in a tight
        # loop; the cached gradient returned for each one must still be
        # the gradient of *its* contents, never of a dead predecessor
        # whose memory address was recycled
        m = schwarzschild
        p = m.points["p0"]
        for i in range(40):
            with m.arena:
                v = SymbolicTensor(
                    np.array([parse_expr(f"{i + 2}*r", m.chart), ZERO, ZERO,
                              ZERO], dtype=object), ("d",))
            cached = m.evaluate_field(m.covector_gradient_field(v), p)
            fresh = m.evaluate_field(m.covariant_derivative_field(v), p)
            npt.assert_allclose(
                cached, fresh, rtol=1e-13, atol=1e-15,
                err_msg=f"cache returned a stale gradient on pass {i}")
            del v

    def test_upper_index_rule(self, schwarzschild):
        # raise the index symbolically after differentiation == raise before:
        # nabla of a vector field v^a = delta^a_t checked against
        # nabla (g^{ab} v_b) computed with all-down machinery
        m = schwarzschild
        one = parse_expr("1", m.chart)
        v_up = np.array([one, ZERO, ZERO, ZERO], dtype=object)
        nabla_v = m.covariant_derivative_field(SymbolicTensor(v_up, ("u",)))
        p = m.points["p2"]
        val = m.evaluate_field(nabla_v, p)
        # oracle: nabla_a v^b = g^{bc} nabla_a v_c with v_c = g_ct
        v_dn = np.array([m.g[i, 0] for i in range(4)], dtype=object)
        nabla_vdn = m.covariant_derivative_field(SymbolicTensor(v_dn, ("d",)))
        vdn_val = m.evaluate_field(nabla_vdn, p)
        ginv = inverse_value(m, p)
        oracle = np.einsum("bc,ac->ab", ginv, vdn_val)
        npt.assert_allclose(val, oracle, rtol=1e-11, atol=1e-13,
                            err_msg="up-slot connection term is wrong")


# ---------------------------------------------------------------------------
# Ricci-identity commutator
# ---------------------------------------------------------------------------

class TestCommutatorAction:
    def test_on_metric_vanishes(self, curved_metrics):
        for m in curved_metrics:
            p = next(iter(m.points.values()))
            c = curvature(m, p)
            out = commutator_action(c.riemann_up, c.metric)
            scale = max(max_abs(c.riemann), 1e-10)
            npt.assert_allclose(out / scale, 0, atol=1e-12,
                                err_msg=f"{m.name}: commutator on g nonzero")

    def test_flat_space_riemann(self, minkowski):
        p = minkowski.points["origin"]
        c = curvature(minkowski, p)
        out = commutator_action(c.riemann_up, c.riemann)
        npt.assert_allclose(out, 0, atol=1e-15)

    def test_matches_direct_double_derivative(self, curved_metrics):
        # the defining property: the algebraic curvature action equals the
        # antisymmetrized second covariant derivative, slot for slot
        for m in curved_metrics:
            d2r = m.nabla_field("riemann", order=2)
            for p in list(m.points.values())[:5]:
                c = curvature(m, p)
                direct = m.evaluate_field(d2r, p)
                anti = direct - np.swapaxes(direct, 0, 1)
                alg = commutator_action(c.riemann_up, c.riemann)
                # both sides can vanish identically (locally symmetric
                # spaces), so scale by the quadratic-in-curvature magnitude
                scale = max(np.max(np.abs(anti)), np.max(np.abs(alg)),
                            max_abs(c.riemann) ** 2, 1e-10)
                npt.assert_allclose(
                    alg / scale, anti / scale, rtol=0, atol=1e-7,
                    err_msg=f"{m.name} at {tuple(p)}: Ricci identity broken")


# ---------------------------------------------------------------------------
# symbolic zeros: folded, never built
# ---------------------------------------------------------------------------

def dense_cov1(m, t):
    """Reference ∇_a T: the full connection sum over every e, zeros
    included, left to the smart constructors to fold, in the metric's
    arena."""
    gamma = m.christoffel_symbolic().components
    comp = t.components
    out = np.empty((4,) * (t.rank + 1), dtype=object)
    with m.arena:
        for a in range(4):
            for idx in np.ndindex(*(4,) * t.rank):
                term = differentiate(comp[idx], m.chart[a])
                for slot in range(t.rank):
                    i_s = idx[slot]
                    corr = ZERO
                    for e in range(4):
                        jdx = idx[:slot] + (e,) + idx[slot + 1:]
                        if t.variance[slot] == "d":
                            corr = add(corr, mul(gamma[e, a, i_s], comp[jdx]))
                        else:
                            corr = sub(corr, mul(gamma[i_s, a, e], comp[jdx]))
                    term = sub(term, corr)
                out[(a,) + idx] = term
    return SymbolicTensor(out, ("d",) + t.variance)


def dag_size(roots):
    """Distinct nodes reachable from ``roots``, walked without recursion."""
    seen, stack = set(), list(roots)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen.add(id(e))
            stack.extend(e.args)
    return len(seen)


def assert_same_nodes(fast, reference, what):
    # compare identities only: on failure pytest would print the
    # expressions, and a printed DAG grows exponentially with its depth
    assert fast.variance == reference.variance
    differ = [idx for idx in np.ndindex(*fast.components.shape)
              if fast.components[idx] is not reference.components[idx]]
    assert not differ, f"{what}: components differ from the dense sum"


class TestZeroFolding:
    def test_diagonal_inverse_off_diagonals_are_zero(self, all_metrics):
        off_diagonal = [(i, j) for i in range(4) for j in range(4) if i != j]
        diagonal = [m for m in all_metrics
                    if all(m.g[ij] is ZERO for ij in off_diagonal)]
        assert len(diagonal) == 4
        for m in diagonal:
            ginv = m.inverse_symbolic().components
            for ij in off_diagonal:
                assert ginv[ij] is ZERO, (m.name, ij)

    def test_schwarzschild_second_derivative_node_count(self, schwarzschild):
        # machine-independent size guard on the largest DAG the corpus builds
        nabla2 = schwarzschild.nabla_field("riemann", 2)
        nodes = dag_size(nabla2.components.ravel())
        assert nodes == 11_681

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_sparse_connection_sum_builds_the_dense_dag(self, name):
        m = load_corpus_metric(name)
        first = m.nabla_field("riemann", 1)
        assert_same_nodes(first, dense_cov1(m, m.riemann_field()), name)
        assert_same_nodes(m.nabla_field("riemann", 2),
                          dense_cov1(m, first), name)
        # R^a_bcd: the one up slot sits in front of three down slots
        rup = m.riemann_up_symbolic()
        assert_same_nodes(m.covariant_derivative_field(rup),
                          dense_cov1(m, rup), name)

    @pytest.mark.parametrize("name", ("schwarzschild", "nariai"))
    @pytest.mark.parametrize("which", ("weyl", "ricci"))
    def test_sparse_build_of_weyl_and_ricci_derivatives(self, name, which):
        m = load_corpus_metric(name)
        first = m.nabla_field(which, 1)
        base = m.weyl_field() if which == "weyl" else m.ricci_field()
        assert_same_nodes(first, dense_cov1(m, base), f"{name} {which}")
        assert_same_nodes(m.nabla_field(which, 2), dense_cov1(m, first),
                          f"{name} {which}")

    def test_sparse_connection_sum_handles_up_slots(self, schwarzschild):
        m = schwarzschild
        with m.arena:
            v = SymbolicTensor(np.array([parse_expr(s, m.chart) for s in
                                         ("1/r", "0", "sin(theta)", "0")],
                                        dtype=object), ("u",))
        assert_same_nodes(m.covariant_derivative_field(v), dense_cov1(m, v),
                          "vector")


# ---------------------------------------------------------------------------
# numeric tensor utilities and validation
# ---------------------------------------------------------------------------

class TestIndexMoving:
    def test_raise_lower_roundtrip(self, schwarzschild):
        p = schwarzschild.points["p0"]
        c = curvature(schwarzschild, p)
        for slot in range(4):
            up = move_index(c.riemann, slot, np.linalg.inv(c.metric))
            back = move_index(up, slot, c.metric)
            scale = max(max_abs(c.riemann), 1e-10)
            npt.assert_allclose(back, c.riemann,
                                rtol=1e-12, atol=1e-12 * scale,
                                err_msg=f"raise/lower slot {slot} not inverse")


class TestValidation:
    def test_degenerate_point_rejected(self, schwarzschild):
        # sin(theta) = 0 makes the metric singular in these coordinates
        with pytest.raises(DegenerateMetricError):
            curvature(schwarzschild, (0.0, 4.0, 0.0, 0.0))

    def test_wrong_signature_rejected(self):
        from curvlab.expressions import parse_expr as pe
        chart = ("t", "x", "y", "z")
        g = [[pe("1", chart) if i == j and i < 2 else
              (pe("-1", chart) if i == j else ZERO)
              for j in range(4)] for i in range(4)]
        with pytest.raises(DegenerateMetricError):
            MetricField("twotime", chart, g,
                        points={"origin": (0.0, 0.0, 0.0, 0.0)})

    def test_named_points_validated_on_construction(self):
        from curvlab.expressions import parse_expr as pe
        chart = ("t", "r", "theta", "phi")
        g = [[pe("0", chart) for _ in range(4)] for _ in range(4)]
        for i, text in enumerate(["1 - 2/r", "-1/(1 - 2/r)", "-r^2",
                                  "-r^2*sin(theta)^2"]):
            g[i][i] = pe(text, chart)
        with pytest.raises(DegenerateMetricError):
            MetricField("sch", chart, g, points={"axis": (0.0, 4.0, 0.0, 0.0)})
