"""Character tables, Gauss sums, L-functions, polylogarithm relations."""
import math
import tracemalloc

import numpy as np
import pytest

import lerchzeta.identities as identities
from lerchzeta import (CharacterTable, DomainError, PoleError,
                       builtin_characters, dirichlet_L, dirichlet_L_series,
                       gauss_sum, lerch_from_hurwitz, phi_integral,
                       polylog_series, verify_six_relations)

CATALAN = 0.9159655941772190   # 1 - 1/9 + 1/25 - ..., frozen from mpmath


class TestCharacterTable:
    def test_builtins_validate(self):
        for q in (1, 2, 3, 4):
            for chi in builtin_characters(q):
                chi.validate()

    def test_quadratic_mod4_values(self):
        chi4 = builtin_characters(4)[1]
        assert [chi4.chi(n) for n in range(1, 9)] == [1, 0, -1, 0, 1, 0, -1, 0]
        assert chi4.primitive and not chi4.is_principal

    def test_principal_flag(self):
        assert builtin_characters(3)[0].is_principal
        assert not builtin_characters(3)[1].is_principal

    def test_unsupported_modulus(self):
        with pytest.raises(DomainError):
            builtin_characters(5)

    def test_csv_rejects_invalid_tables(self):
        # caller-built tables: validate() checks the character axioms, the
        # constructor the table length
        with pytest.raises(DomainError):
            CharacterTable(3, (1, 2, 0)).validate()   # |chi(2)| != 1
        with pytest.raises(DomainError):
            CharacterTable(3, (1, -1))

    def test_complex_character_from_csv(self):
        # quartic character mod 5 (chi(2) = i on the generator 2); exercises
        # genuinely complex caller-supplied tables end to end
        chi5 = CharacterTable(5, (1, 1j, -1j, -1, 0))
        chi5.validate()
        g = gauss_sum(chi5.conjugate())
        assert abs(abs(g) - math.sqrt(5.0)) <= 1e-13
        assert abs(g - complex(1.17557050458494626, 1.90211303259030714)) <= 1e-13
        # L(2.5, chi) via Hurwitz values vs the direct character series,
        # and against a 40-digit mpmath reference
        want = complex(0.977775010065322968, 0.115400723868540989)
        via_hurwitz = dirichlet_L(2.5, chi5).value
        direct = dirichlet_L_series(2.5, chi5)
        assert abs(via_hurwitz - want) <= 1e-12
        assert abs(direct - want) <= 1e-9
        # and on the continued side, sigma < 0
        want_neg = complex(0.349951497330472979, 0.133484763221022028)
        assert abs(dirichlet_L(-0.5, chi5).value - want_neg) <= 1e-12


class TestGaussSum:
    def test_quadratic_mod4(self):
        g = gauss_sum(builtin_characters(4)[1].conjugate(), 1)
        assert abs(g - 2j) <= 1e-14

    def test_modulus_one(self):
        assert abs(gauss_sum(builtin_characters(1)[0], 1) - 1.0) <= 1e-15

    def test_primitive_magnitude(self):
        for q in (3, 4):
            chi = [c for c in builtin_characters(q) if c.primitive][0]
            assert abs(abs(gauss_sum(chi.conjugate())) - math.sqrt(q)) <= 1e-12

    def test_twist_equals_character_times_base(self):
        # G_r(chi~) = chi(r) G_1(chi~) for primitive chi, gcd(r,q)=1
        chi = builtin_characters(4)[1]
        base = gauss_sum(chi.conjugate(), 1)
        for r in (1, 3):
            assert abs(gauss_sum(chi.conjugate(), r)
                       - chi.chi(r) * base) <= 1e-14


class TestDirichletL:
    def test_catalan(self):
        chi4 = builtin_characters(4)[1]
        assert abs(dirichlet_L(2.0, chi4).value.real - CATALAN) <= 1e-10

    def test_negative_sigma_positive_value(self):
        chi4 = builtin_characters(4)[1]
        got = dirichlet_L(-0.5, chi4).value.real
        assert got > 0.0
        assert got == pytest.approx(0.27517974122882025, abs=1e-12)

    def test_modulus_one_is_zeta(self):
        chi1 = builtin_characters(1)[0]
        assert dirichlet_L(2.0, chi1).value.real == pytest.approx(
            math.pi ** 2 / 6.0, abs=1e-12)

    def test_pole_route_rejected(self):
        with pytest.raises(PoleError):
            dirichlet_L(1.0, builtin_characters(3)[1])

    def test_direct_series_agrees(self):
        for q in (1, 2, 3, 4):
            for chi in builtin_characters(q):
                direct = dirichlet_L_series(2.5, chi)
                via_hurwitz = dirichlet_L(2.5, chi).value
                assert abs(direct - via_hurwitz) <= 1e-9

    def test_sign_constant_on_unit_interval(self):
        for q, idx in ((3, 1), (4, 1)):
            chi = builtin_characters(q)[idx]
            vals = [dirichlet_L(float(s), chi).value.real
                    for s in np.linspace(-0.9, -0.1, 9)]
            assert all(v > 0.0 for v in vals) or all(v < 0.0 for v in vals)


class TestLerchHurwitzBridges:
    def test_li2_minus_one(self):
        res = lerch_from_hurwitz(2.0, 1, 2)
        assert res.value.real == pytest.approx(-math.pi ** 2 / 12.0, abs=1e-12)

    def test_q1_collapses_to_zeta(self):
        assert lerch_from_hurwitz(2.0, 1, 1).value.real == pytest.approx(
            math.pi ** 2 / 6.0, abs=1e-12)

    def test_cross_module_polylog_identity(self):
        # Li_s(z) = z Phi(s, 1, z) at z = i, s = 1/2
        li = lerch_from_hurwitz(0.5, 1, 4).value
        phi = phi_integral(0.5, 1.0, 1j).value
        assert abs(li - 1j * phi) <= 1e-9

    def test_polylog_series_agrees(self):
        for (r, q) in ((1, 4), (1, 3), (2, 3), (1, 2)):
            direct = polylog_series(2.5, r, q)
            bridge = lerch_from_hurwitz(2.5, r, q).value
            assert abs(direct - bridge) <= 1e-9

    def test_sigma_restriction(self):
        with pytest.raises(DomainError):
            lerch_from_hurwitz(0.5, 2, 2)   # r = q needs sigma > 1


class TestDirectSeriesTails:
    """The class sums stop 4096 terms in.  Near sigma = 1 the remainder
    past N is of order N^{1 - sigma}, close to the whole sum; each class's
    Euler-Maclaurin tail brings the direct series to 1e-13 absolute, and
    the first term it leaves out is at most about 2e-15."""

    @staticmethod
    def _oracle(sigma, q, weight):
        """q^{-s} sum_r weight(r) zeta(s, r/q) at 30 digits."""
        import mpmath as mp
        with mp.workdps(30):
            return complex(mp.mpf(q) ** -sigma * mp.fsum(
                weight(r) * mp.zeta(sigma, mp.mpf(r) / q)
                for r in range(1, q + 1)))

    @staticmethod
    def _sigmas():
        # three bands: next to the pole, the slow middle, fast convergence
        rng = np.random.default_rng(17)
        return [s for lo, hi in ((1.01, 1.2), (1.2, 2.0), (2.0, 4.0))
                for s in [lo] + [float(x) for x in rng.uniform(lo, hi, 3)]]

    def test_L_series_against_mpmath(self):
        pytest.importorskip("mpmath")
        for sigma in self._sigmas():
            for q in (1, 2, 3, 4):
                for chi in builtin_characters(q):
                    want = self._oracle(sigma, q, chi.chi)
                    got = dirichlet_L_series(sigma, chi)
                    assert abs(got - want) <= 1e-13, (sigma, chi.label)

    def test_polylog_series_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for sigma in self._sigmas():
            for q in (1, 2, 3, 4):
                for r in range(1, q + 1):
                    want = self._oracle(sigma, q, lambda n: mp.expjpi(
                        mp.mpf(2 * r * n) / q))
                    got = polylog_series(sigma, r, q)
                    assert abs(got - want) <= 1e-13, (sigma, r, q)


class TestSixRelations:
    def test_q3_q4_at_2_5(self):
        for q in (3, 4):
            rep = verify_six_relations(2.5, q)
            assert rep.max_residual <= 1e-12, rep.residuals
            assert set(rep.residuals) == {
                "L_from_hurwitz", "hurwitz_from_L", "hurwitz_from_polylog",
                "polylog_from_hurwitz", "L_from_polylog", "polylog_from_L"}

    def test_q3_at_3(self):
        assert verify_six_relations(3.0, 3).max_residual <= 1e-12

    def test_q3_q4_at_1_5(self):
        for q in (3, 4):
            rep = verify_six_relations(1.5, q)
            assert rep.max_residual <= 1e-12, rep.residuals

    def test_q1_collapses(self):
        assert verify_six_relations(2.0, 1).max_residual <= 1e-12

    def test_each_L_series_summed_once(self, monkeypatch):
        # one direct L series per character of every level q/g: 2 + 1 + 1
        # at q = 4, 2 + 1 at q = 3
        calls = []
        series = identities.dirichlet_L_series

        def counted(sigma, chi):
            calls.append(chi.label)
            return series(sigma, chi)

        monkeypatch.setattr(identities, "dirichlet_L_series", counted)
        for q, want in ((4, 4), (3, 3)):
            calls.clear()
            verify_six_relations(2.5, q)
            assert len(calls) == want and len(set(calls)) == want, calls

    def test_zeta_series_summed_once(self):
        # zeta(sigma) is Li at r = q: the fsum of the class sums mod q that
        # the other Li of modulus q already raised, with no pass of its own
        sums = identities._residue_sums
        for q in (1, 3, 4):
            sums.cache_clear()
            polylog_series(2.5, 1, q)
            zeta = polylog_series(2.5, q, q)
            info = sums.cache_info()
            assert (info.misses, info.hits) == (1, 1), info
            assert zeta == complex(math.fsum(sums(2.5, q)), 0.0)
            assert zeta.real == pytest.approx(1.341487257250917, abs=1e-14)

    def test_class_sums_summed_once(self):
        # one n^{-sigma} pass per modulus read: the characters of the levels
        # q/g read mod 4, 2 and 1 at q = 4 (mod 3 and 1 at q = 3), and the
        # four (three) Li read mod q again
        sums = identities._residue_sums
        for q, misses, requests in ((4, 3, 8), (3, 2, 6)):
            sums.cache_clear()
            verify_six_relations(2.5, q)
            info = sums.cache_info()
            assert (info.misses, info.hits) == (misses, requests - misses), info

    def test_peak_memory(self):
        # 4096 terms: one 32 KB vector of n^{-sigma} at a time
        identities._residue_sums.cache_clear()
        tracemalloc.start()
        try:
            verify_six_relations(1.2345, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak

    def test_unsupported(self):
        with pytest.raises(DomainError):
            verify_six_relations(2.5, 5)
        with pytest.raises(DomainError):
            verify_six_relations(0.5, 3)
