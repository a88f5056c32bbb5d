import math
from fractions import Fraction

import numpy as np
import pytest

from rokhlin.approx import (
    ApproxError,
    IdealSide,
    QuotientSide,
    assemble_and_verify,
    derive_params,
    ideal_approx,
    make_ledger,
    quasicentral_unit,
    quotient_approx,
    run_approximation,
)
from rokhlin.cstar import (
    CombinedFiber,
    CrossedElement,
    ElementOrbitFiber,
    InterpolationFiber,
    fiber_sup_norm,
    norm,
)
from rokhlin.dynsys import make_cycle_system
from rokhlin.towers import build_tower_family


def unit(sys, power=1):
    return CrossedElement.unitary(sys, power)


def bump(sys, cycle_length):
    """Cosine bump supported on the cycle of the given length, sup norm one."""
    cyc = [c for c in sys.orbits().cycles if c.length == cycle_length][0]
    v = np.zeros(sys.n)
    for pos, x in enumerate(cyc.order):
        v[x] = 0.5 * (1 + math.cos(2 * math.pi * pos / cycle_length))
    return CrossedElement.from_function(sys, v)


class TestDeriveParams:
    def test_window_parameter_instances(self):
        from rokhlin.approx import window_parameters

        assert window_parameters(0, 1, "1/2") == (6, 25)
        assert window_parameters(1, 2, "1/2") == (20, 162)
        assert window_parameters(0, 1, "1/100") == (300, 1201)

    def test_formula_instances(self):
        # eps chosen so that eps' = (eps/(2k+1))^2 equals 1/2 is impossible in
        # closed form; check the two displayed arithmetic cases directly
        d0 = make_cycle_system([30], d=0)
        # eps' = 1/4 with k = 1 comes from eps = 3/2
        p = derive_params([unit(d0)], "3/2", d0)
        assert (p.k, p.eps_prime, p.m, p.N) == (1, Fraction(1, 4), 12, 49)
        d1 = make_cycle_system([820], d=1)
        # k = 2, eps' = 1/4 comes from eps = 5/2
        b = unit(d1, 2)
        p = derive_params([b], "5/2", d1)
        assert (p.k, p.eps_prime, p.m, p.N) == (2, Fraction(1, 4), 40, 322)

    def test_acceptance_parameters(self):
        sys = make_cycle_system([3, 7, 1500], d=0)
        p = derive_params([unit(sys)], "3/10", sys)
        assert (p.k, p.eps_prime, p.m, p.N) == (1, Fraction(1, 100), 300, 1201)
        assert len(p.split.y_part) == 10 and len(p.split.complement) == 1500

    def test_sqrt_modulus_rule(self):
        # |s - t| < eps' forces |sqrt s - sqrt t| < eps/(2k+1) on [0, 1]
        eps, k = 0.3, 1
        eps_prime = (eps / (2 * k + 1)) ** 2
        rng = np.random.default_rng(0)
        s = rng.random(2000)
        t = np.clip(s + rng.uniform(-eps_prime, eps_prime, 2000) * 0.999, 0, 1)
        assert np.all(np.abs(np.sqrt(s) - np.sqrt(t)) < eps / (2 * k + 1))

    def test_norm_gate(self):
        sys = make_cycle_system([30])
        big = CrossedElement.from_function(sys, 3.0 * np.ones(30))
        with pytest.raises(ApproxError, match="norm above one"):
            derive_params([big], "3/2", sys)

    def test_short_ideal_cycle_rejected_with_suggestion(self):
        sys = make_cycle_system([3, 30])
        with pytest.raises(ApproxError, match="smallest admissible"):
            derive_params([unit(sys)], "3/2", sys, N_override=20)

    def test_all_short_goes_quotient_only(self):
        sys = make_cycle_system([3, 5])
        p = derive_params([unit(sys)], "3/2", sys)
        assert p.quotient_only
        assert not p.split.complement

    def test_empty_F_rejected(self):
        with pytest.raises(ApproxError, match="nonempty"):
            derive_params([], "1/2", make_cycle_system([3]))


class TestQuasicentral:
    def test_default_is_central_projection(self):
        sys = make_cycle_system([3, 100])
        p = derive_params([unit(sys)], "3/2", sys, N_override=25)
        rep = quasicentral_unit(sys, p.split, p.F)
        assert rep.is_central_projection
        comp = sorted(p.split.complement)
        assert np.all(rep.e[comp] == 1.0)
        assert rep.commutator_error == 0.0
        assert rep.corner_errors == (0.0,)

    def test_central_corner_split_is_exact(self):
        sys = make_cycle_system([3, 100])
        p = derive_params([unit(sys)], "3/2", sys, N_override=25)
        rep = quasicentral_unit(sys, p.split, p.F)
        b = bump(sys, 100) * unit(sys)
        defect = b.compressed(rep.sqrt()) + b.compressed(rep.cosqrt()) - b
        assert defect.coefficient_bound() < 1e-15

    def test_ramped_e_measured(self):
        sys = make_cycle_system([3, 100])
        p = derive_params([unit(sys)], "3/2", sys, N_override=25)
        cyc = [c for c in sys.orbits().cycles if c.length == 100][0]
        e = np.zeros(sys.n)
        for pos, x in enumerate(cyc.order):
            e[x] = 0.5 * (1 + math.cos(2 * math.pi * pos / 100))
        rep = quasicentral_unit(sys, p.split, p.F, e_values=e)
        assert not rep.is_central_projection
        assert rep.corner_errors[0] > 0  # genuinely measured for the unitary

    def test_e_outside_complement_rejected(self):
        sys = make_cycle_system([3, 100])
        p = derive_params([unit(sys)], "3/2", sys, N_override=25)
        e = np.ones(sys.n)
        with pytest.raises(ApproxError, match="supported outside"):
            quasicentral_unit(sys, p.split, p.F, e_values=e)

    def test_e_range_checked(self):
        sys = make_cycle_system([3, 100])
        p = derive_params([unit(sys)], "3/2", sys, N_override=25)
        e = np.zeros(sys.n)
        e[sorted(p.split.complement)[0]] = 1.5
        with pytest.raises(ApproxError, match=r"\[0, 1\]"):
            quasicentral_unit(sys, p.split, p.F, e_values=e)


class TestQuotientSide:
    def test_fixed_point_circle_approximation(self):
        # the quotient factor over a fixed point is functions on the circle
        sys = make_cycle_system([1])
        u = unit(sys)
        p = derive_params([u], 0.1, sys)
        q = quotient_approx(p.split, [u], 0.1, sys)
        equnit = quasicentral_unit(sys, p.split, [u])
        rep = assemble_and_verify(p, q, None, equnit, norm_tol=1e-4).quotient_corner
        assert q.order_zero_colors == 2
        assert rep.max_measured <= 0.1

    def test_constants_reproduced_exactly(self):
        sys = make_cycle_system([3, 5])
        one = CrossedElement.from_function(sys, np.ones(sys.n))
        p = derive_params([one], 0.1, sys)
        q = quotient_approx(p.split, [one], 0.1, sys)
        equnit = quasicentral_unit(sys, p.split, [one])
        rep = assemble_and_verify(p, q, None, equnit, norm_tol=1e-6).quotient_corner
        assert rep.max_measured < 1e-9  # hat weights sum to one

    def test_empty_short_part_gives_zero_error(self):
        sys = make_cycle_system([60])
        run = run_approximation(sys, [unit(sys)], "3/2")
        assert run.quotient.cycles == ()
        assert run.factorization.quotient_corner.max_measured == 0.0

    def test_node_counts_even_and_large_enough(self):
        sys = make_cycle_system([3, 5])
        u = unit(sys)
        p = derive_params([u], 0.1, sys)
        q = quotient_approx(p.split, [u], 0.1, sys)
        for cyc in q.cycles:
            s = q.node_count[cyc.base]
            assert s % 2 == 0
            assert s >= 2 * math.pi * cyc.length * p.k / 0.1

    def test_summing_is_positive_and_contractive(self):
        sys = make_cycle_system([3, 5])
        rng = np.random.default_rng(1)
        u = unit(sys)
        p = derive_params([u], 0.1, sys)
        q = quotient_approx(p.split, [u], 0.1, sys)
        for _ in range(5):
            a = CrossedElement(
                sys, {i: 0.3 * rng.standard_normal(sys.n) for i in (-1, 0, 1)}
            )
            assert q.positivity_defect(a) >= -1e-10
            assert q.summing_norm(a) <= norm(a, 1e-3).upper + 1e-9

    def test_random_contractions_meet_bound(self):
        sys = make_cycle_system([3, 5])
        rng = np.random.default_rng(2)
        F = []
        for _ in range(5):
            raw = CrossedElement(
                sys,
                {i: rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n) for i in (-2, -1, 0, 1, 2)},
            )
            F.append((1.0 / raw.coefficient_bound()) * raw)
        p = derive_params(F, 0.1, sys)
        q = quotient_approx(p.split, F, 0.1, sys)
        equnit = quasicentral_unit(sys, p.split, F)
        rep = assemble_and_verify(p, q, None, equnit, norm_tol=1e-3).quotient_corner
        assert q.order_zero_colors == 2
        assert rep.max_measured <= 0.1
        # the raw per-element interpolation error agrees with the corner
        # report here (nothing lives off the short part)
        raw_err = max(
            fiber_sup_norm(sys, [
                CombinedFiber([InterpolationFiber(cyc, q.sample(b)[cyc.base]), ElementOrbitFiber(b, cyc)],
                              [1.0, -1.0])
                for cyc in q.cycles
            ], 1e-3).value
            for b in F
        )
        assert raw_err == pytest.approx(rep.max_measured, abs=1e-12)


def small_run(eps="3/2", lengths=(3, 60), with_bump=True):
    sys = make_cycle_system(list(lengths), d=0)
    F = [unit(sys)]
    if with_bump:
        long_len = max(lengths)
        F += [bump(sys, long_len), bump(sys, long_len) * unit(sys)]
    return sys, F, run_approximation(sys, F, eps, norm_tol=1e-3)


@pytest.fixture(scope="module")
def shared_run():
    return small_run()


class TestIdealSide:
    @pytest.fixture(autouse=True)
    def _attach(self, shared_run):
        self.sys, self.F, self.run = shared_run
        self.ideal = self.run.ideal

    def test_compression_matches_regular_representation(self):
        # independent oracle: build the windowed compression directly on the
        # shift representation over the long cycle's base point
        sys = self.sys
        ideal = self.ideal
        m = ideal.params.m
        cyc = [c for c in sys.orbits().cycles if c.length == 60][0]
        f = bump(sys, 60)
        b = f * unit(sys)  # one band, i = 1
        for l in range(ideal.levels):
            blocks = ideal.summing(l, b)
            for (j, jp), fn in blocks.items():
                i = j - jp
                assert i == 1
                for x, v in fn.items():
                    # expected entry at window slot (j, j-i) over base point x:
                    # sqrt(mu_j)(a_j x) f(a_j x) sqrt(mu_{j-i})(a_{j-i} x)
                    aj = int(sys.power_perm(j)[x])
                    aji = int(sys.power_perm(j - i)[x])
                    mu_j = ideal.family.mu_array(l, j)[aj]
                    mu_ji = ideal.family.mu_array(l, j - i)[aji]
                    fval = f.coefficient(0)[aj]
                    expected = math.sqrt(mu_j) * fval * math.sqrt(mu_ji)
                    assert abs(v - expected) < 1e-12

    def test_return_map_is_homomorphism(self):
        rng = np.random.default_rng(3)
        assert self.ideal.multiplicativity_residual(rng, trials=20) < 1e-10

    def test_single_level_composite_telescopes(self):
        # (return o summing) of f u^i collapses to a weighted copy of f u^i,
        # with weight sum_j sqrt(mu_j) (sqrt(mu_{j-i}) o alpha_{-i})
        sys = self.sys
        ideal = self.ideal
        fam = ideal.family
        b = bump(sys, 60) * unit(sys)
        for l in range(ideal.levels):
            out = ideal.returning(ideal.summing(l, b))
            assert out.support in ((), (1,))
            weight = np.zeros(sys.n)
            for j in range(-ideal.params.m, ideal.params.m + 1):
                left = np.sqrt(fam.mu_array(l, j))
                right = np.sqrt(fam.mu_array(l, j - 1))[sys.power_perm(-1)]
                weight += left * right
            expected = weight * b.coefficient(1)
            assert np.abs(out.coefficient(1) - expected).max() < 1e-12

    def test_composite_is_return_of_summing(self):
        # composite works from tower coordinates; the block path
        # returning(summing(l, b)) summed over levels is its reference, bit
        # for bit, on a random element with bands inside and outside the window
        sys, ideal = self.sys, self.ideal
        rng = np.random.default_rng(6)
        powers = (-2 * ideal.params.m - 1, -3, -1, 0, 1, 2, 2 * ideal.params.m)
        b = CrossedElement(sys, {i: rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n) for i in powers})
        for a in (b, *self.F):
            ref = CrossedElement.zero(sys)
            for l in range(ideal.levels):
                ref = ref + ideal.returning(ideal.summing(l, a))
            out = ideal.composite(a)
            assert out.support == ref.support and ref.support
            assert all(np.array_equal(out.coefficient(i), ref.coefficient(i)) for i in ref.support)

    def test_diagonal_units_return_functions(self):
        # f (x) E_{ii} with f on the support returns a power-zero element
        ideal = self.ideal
        sys = self.sys
        sup = sorted(ideal.family.supports[0])
        f = {x: 1.0 + 0j for x in sup}
        out = ideal.returning({(3, 3): f})
        assert out.support == (0,)
        back = sys.power_perm(3)
        assert all(out.coefficient(0)[int(back[x])] == 1.0 for x in sup)

    def test_offdiagonal_disjoint_products_vanish(self):
        ideal = self.ideal
        sup = sorted(ideal.family.supports[0])
        f = {x: 1.0 + 0j for x in sup}
        x = ideal.returning({(0, 1): f})
        y = ideal.returning({(2, 3): f})  # 1 != 2: supports disjoint
        assert (x * y).coefficient_bound() < 1e-15

    def test_summing_positive_and_contractive(self):
        rng = np.random.default_rng(4)
        b = self.F[2]
        assert self.ideal.positivity_defect(b) >= -1e-10
        for l in range(self.ideal.levels):
            assert self.ideal.summing_norm(l, b) <= norm(b, 1e-3).upper + 1e-9

    def test_sqrt_step_strict(self):
        info = self.run.factorization.sqrt_step
        assert info["sqrt_step"] == self.ideal.sqrt_step_sup()
        assert info["strict"]
        assert info["sqrt_step"] < info["sqrt_step_bound"]

    def test_family_parameter_mismatch_rejected(self):
        other = build_tower_family(self.sys, 0, 1, 14, "1/4", sorted(self.run.params.split.complement))
        with pytest.raises(ApproxError, match="does not match"):
            ideal_approx(self.run.params, other, self.run.equnit.e)


class TestClaimsAndAssembly:
    def test_small_run_bounds(self, shared_run):
        sys, F, run = shared_run
        fz = run.factorization
        assert fz.quotient_corner.passed
        assert fz.ideal_corner.passed
        assert fz.final.passed
        assert fz.sqrt_step["strict"]
        assert run.passed()

    def test_final_collects_both_sides(self, shared_run):
        sys, F, run = shared_run
        fz = run.factorization
        assert fz.final.max_measured <= float((3 * 0 + 7) * run.params.eps) + 1e-3
        assert fz.summands_actual == 5
        assert fz.summands_declared == 5

    def test_elements_off_support_contribute_nothing(self):
        # an element supported on the short part has zero ideal-corner error
        sys = make_cycle_system([3, 60])
        short = [c for c in sys.orbits().cycles if c.length == 3][0]
        f = CrossedElement.indicator(sys, short.order)
        run = run_approximation(sys, [f, unit(sys)], "3/2")
        ideal = run.ideal
        corner = f.compressed(run.equnit.sqrt())
        assert corner.is_zero()
        assert ideal.composite(corner).is_zero()

    def test_quotient_supported_family_meets_raw_budget(self):
        # with the central cutoff and F supported on the short part, the
        # quotient corner error is the hat-interpolation error alone (<= eps)
        sys = make_cycle_system([3, 60])
        short = [c for c in sys.orbits().cycles if c.length == 3][0]
        f = CrossedElement.indicator(sys, short.order)
        fu = f * unit(sys)
        run = run_approximation(sys, [f, fu], "3/2", norm_tol=1e-3)
        eps = float(run.params.eps)
        assert run.factorization.quotient_corner.max_measured <= eps
        assert run.factorization.ideal_corner.max_measured <= 1e-12

    def test_zero_element_contributes_nothing(self):
        sys = make_cycle_system([3, 60])
        zero = CrossedElement.zero(sys)
        run = run_approximation(sys, [zero, unit(sys)], "3/2")
        fz = run.factorization
        assert fz.final.measured[0] <= 1e-12
        assert fz.quotient_corner.measured[0] == 0.0
        assert fz.passed()

    def test_quotient_only_path(self):
        sys = make_cycle_system([3, 5])
        run = run_approximation(sys, [unit(sys)], "1/2")
        assert run.ideal is None
        fz = run.factorization
        assert fz.ideal_corner is None
        assert fz.final.passed
        assert fz.summands_actual == 2

    def test_ramped_e_still_meets_final_bound(self):
        sys = make_cycle_system([3, 60])
        cyc = [c for c in sys.orbits().cycles if c.length == 60][0]
        e = np.zeros(sys.n)
        for pos, x in enumerate(cyc.order):
            e[x] = min(1.0, 2.0 * min(pos, 60 - pos) / 30.0)
        run = run_approximation(sys, [unit(sys)], "3/2", e_values=e)
        assert run.factorization.final.passed
        assert run.factorization.quotient_corner.passed


class TestLedger:
    @pytest.mark.parametrize("d", range(7))
    def test_identities(self, d):
        led = make_ledger(d)
        assert led.quotient_colors_declared + led.ideal_term_declared == 2 * d * d + 6 * d + 5
        assert led.total_declared == led.closed_form_bound + 1
        assert led.ideal_term_declared == (d + 1) * (2 * d + 3)
        assert led.ideal_term_actual == 2 * d + 3
        assert led.additive_bound == 3 * d + 4
        assert led.identities_hold()

    def test_headline_values(self):
        assert make_ledger(0).closed_form_bound == 4
        assert make_ledger(0).total_declared == 5
        assert make_ledger(1).closed_form_bound == 12
        assert make_ledger(1).total_declared == 13
        assert make_ledger(2).closed_form_bound == 24
        assert make_ledger(2).total_declared == 25

    def test_summand_count_formula(self):
        for d in range(4):
            assert (d + 2) + (2 * d + 3) == 3 * d + 5


def claims_from_scratch(run, norm_tol):
    """The three claims measured field by field from scratch: the quotient
    corner against (1-e)^{1/2} b (1-e)^{1/2} on every orbit, the ideal corner
    as a whole-element norm, and the final defect against b itself."""
    params, quotient, ideal, equnit = run.params, run.quotient, run.ideal, run.equnit
    sys = params.sys
    long_cycles = [c for c in sys.orbits().cycles if c.base in params.split.complement]

    def short_fields(b, target):
        blocks = quotient.sample(b)
        return [
            CombinedFiber([InterpolationFiber(cyc, blocks[cyc.base]), ElementOrbitFiber(target, cyc)],
                          [1.0, -1.0])
            for cyc in quotient.cycles
        ]

    def long_fields(a):
        return [f for f in (ElementOrbitFiber(a, c) for c in long_cycles) if f.bands]

    def sup(fibers):
        return fiber_sup_norm(sys, fibers, norm_tol).value if fibers else 0.0

    q, i, f = [], [], []
    for b in params.F:
        target = b.compressed(equnit.cosqrt())
        q.append(sup(short_fields(b, target) + long_fields(target)))
        corner = b.compressed(equnit.sqrt())
        i.append(norm(ideal.composite(corner) - corner, norm_tol).value)
        f.append(sup(short_fields(b, b) + long_fields(ideal.composite(corner) - b)))
    return tuple(q), tuple(i), tuple(f)


def cutoff(sys, kind):
    """Cutoff functions on the long cycles of a (3, 60, 60) system."""
    if kind == "default":
        return None
    first = [c for c in sys.orbits().cycles if c.length == 60][0]
    e = np.zeros(sys.n)
    for pos, x in enumerate(first.order):
        if kind == "ramped":
            e[x] = min(1.0, 2.0 * min(pos, 60 - pos) / 30.0)
        elif kind == "half":  # a projection, but not invariant
            e[x] = 1.0 if pos < 30 else 0.0
        elif kind == "one-cycle":  # central, zero on the second long cycle
            e[x] = 1.0
    return e


class TestMeasureOnce:
    def test_each_element_sampled_and_composed_once(self, monkeypatch):
        calls = {"sample": 0, "composite": 0}
        for cls, name in ((QuotientSide, "sample"), (IdealSide, "composite")):
            original = getattr(cls, name)

            def counted(self, b, _original=original, _name=name):
                calls[_name] += 1
                return _original(self, b)

            monkeypatch.setattr(cls, name, counted)
        sys, F, run = small_run()
        assert run.ideal is not None and run.quotient.cycles
        assert calls == {"sample": len(F), "composite": len(F)}

    @pytest.mark.parametrize("kind", ["default", "ramped", "half", "one-cycle"])
    def test_claims_equal_independent_measurements(self, kind):
        sys = make_cycle_system([3, 60, 60], d=0)
        F = [unit(sys), bump(sys, 3), bump(sys, 60) * unit(sys)]
        e = cutoff(sys, kind)
        run = run_approximation(sys, F, "3/2", e_values=e, norm_tol=1e-3)
        assert run.equnit.is_central_projection == (kind in ("default", "one-cycle"))
        fz = run.factorization
        q, i, f = claims_from_scratch(run, 1e-3)
        assert fz.quotient_corner.measured == q
        assert fz.ideal_corner.measured == i
        assert fz.final.measured == f
