import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_legendre

from dickeqfi.ladder import build_dicke, build_harmonic
from dickeqfi.metrology import (
    parity_curve,
    parity_expectation,
    qfi_general,
    qfi_mixed_number,
    qfi_twin,
)
from dickeqfi.oracle import ExchangeIntegral, oracle_integral

X4 = 11.0 / 12.0


def integral(value, n_total=4, exchanged=1):
    return ExchangeIntegral(
        value=value, total_photons=n_total, method="oracle", exchanged_count=exchanged
    )


# each QFI function as a function of the one-pair overlap alone
QFI_FUNCTIONS = (
    lambda i: qfi_twin(4, i),
    lambda i: qfi_general(2, 2, i),
    lambda i: qfi_mixed_number(2, [(1.0, 2, i)]),
)


class TestGeneralQfi:
    def test_two_photon_unit_overlap(self):
        assert qfi_general(1, 1, integral(1.0, 2)) == 4.0

    def test_vacuum_port(self):
        assert qfi_general(5, 0, integral(0.3, 5)) == 5.0

    def test_four_photon_collective(self):
        assert qfi_general(2, 2, integral(X4)) == pytest.approx(8 * X4 + 4)

    @given(
        m=st.integers(0, 40),
        n=st.integers(0, 40),
        value=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetric_in_arm_exchange(self, m, n, value):
        a = qfi_general(m, n, integral(value, m + n))
        b = qfi_general(n, m, integral(value, m + n))
        assert a == pytest.approx(b, rel=1e-14)

    def test_rejects_wrong_exchange_count(self):
        with pytest.raises(ValueError):
            qfi_general(2, 2, integral(1.0, exchanged=0))

    @pytest.mark.parametrize("m", [2.5, -1, math.inf, math.nan])
    def test_rejects_non_integral_photon_numbers(self, m):
        for args in ((m, 1), (1, m)):
            with pytest.raises(ValueError, match="photon numbers must be nonnegative integers"):
                qfi_general(*args, integral(1.0))

    def test_integral_floats_and_numpy_integers_pass(self):
        qfi = qfi_general(2.0, np.int64(2), integral(X4))
        assert qfi == qfi_general(2, 2, integral(X4))
        assert type(qfi) is float


class TestTwinQfi:
    def test_unit_overlap_reference(self):
        assert qfi_twin(4, integral(1.0)) == 12.0

    def test_zero_overlap_is_shot_noise(self):
        for n in (2, 10, 64):
            qfi = qfi_twin(n, integral(0.0, n))
            assert qfi == float(n)
            assert qfi / n == 1.0  # the shot-noise reference F = N

    def test_collective_hundred_photons(self):
        qfi = qfi_twin(100, integral(0.82, 100))
        assert qfi == pytest.approx(0.41 * 100**2 + 100)
        assert qfi / 100**2 == pytest.approx(0.42, abs=0.01)  # against Heisenberg's F = N^2

    @given(values=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_overlap(self, values):
        low, high = sorted(values)
        assert qfi_twin(8, integral(low, 8)) <= qfi_twin(8, integral(high, 8))

    @given(n_half=st.integers(1, 50), value=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_photon_number_states_are_the_twin_optimum(self, n_half, value):
        n = 2 * n_half
        assert qfi_twin(n, integral(value, n)) <= n * (n + 2) / 2.0 + 1e-9

    def test_negative_qfi_rejected(self):
        # an overlap of -1 would drive the formula negative, which no valid
        # input state can produce; the overlap's range check refuses it
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got -1.0"):
            qfi_twin(8, integral(-1.0, 8))

    def test_rejects_odd_totals(self):
        with pytest.raises(ValueError):
            qfi_twin(5, integral(1.0, 5))


class TestMixedNumberQfi:
    def test_vacuum_component_only(self):
        assert qfi_mixed_number(3, [(1.0, 0, None)]) == 3.0

    def test_single_component_reduces_to_general(self):
        qfi = qfi_mixed_number(2, [(1.0, 3, integral(0.7, 5))])
        assert qfi == pytest.approx(qfi_general(2, 3, integral(0.7, 5)))

    def test_two_component_example(self):
        qfi = qfi_mixed_number(
            2, [(0.5, 0, None), (0.5, 2, integral(1.0))]
        )
        assert qfi == pytest.approx(7.0)

    def test_rejects_unnormalised_weights(self):
        with pytest.raises(ValueError):
            qfi_mixed_number(2, [(0.6, 0, None), (0.5, 2, integral(1.0))])
        with pytest.raises(ValueError):
            qfi_mixed_number(2, [(-0.5, 0, None), (1.5, 2, integral(1.0))])

    def test_missing_integral(self):
        with pytest.raises(ValueError):
            qfi_mixed_number(2, [(1.0, 2, None)])

    @pytest.mark.parametrize("n", [2.5, -2, math.inf, math.nan])
    def test_rejects_non_integral_photon_numbers(self, n):
        # 2.5 was truncated to 2; inf and nan raised int()'s own errors
        with pytest.raises(ValueError, match="photon numbers must be nonnegative integers"):
            qfi_mixed_number(2, [(1.0, n, integral(1.0))])
        with pytest.raises(ValueError, match="photon numbers must be nonnegative integers"):
            qfi_mixed_number(n, [(1.0, 0, None)])

    def test_integral_floats_and_numpy_integers_pass(self):
        expected = qfi_mixed_number(2, [(0.5, 0, None), (0.5, 2, integral(1.0))])
        assert qfi_mixed_number(
            np.int64(2), [(0.5, 0.0, None), (0.5, np.int32(2), integral(1.0))]
        ) == expected


class TestReports:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_overlap_is_rejected(self, value):
        message = f"exchange integral must be finite, got {value}"
        for qfi in QFI_FUNCTIONS:
            with pytest.raises(ValueError, match=message):
                qfi(integral(value))
            with pytest.raises(ValueError, match=message):
                qfi(value)

    def test_nonfinite_weight_or_qfi_is_rejected(self):
        with pytest.raises(ValueError, match="component weights must sum to 1, got nan"):
            qfi_mixed_number(2, [(math.nan, 2, integral(0.5))])
        # 2 m n I overflows to inf at m = n = 1e200
        with pytest.raises(ValueError, match="quantum Fisher information must be finite, got inf"):
            qfi_general(1e200, 1e200, integral(0.5, 2 * int(1e200)))
        with pytest.raises(ValueError, match="quantum Fisher information must be finite, got inf"):
            qfi_general(1e200, 1e200, 0.5)

    @given(value=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_a_record_and_its_value_give_the_same_bits(self, value):
        for qfi in QFI_FUNCTIONS:
            assert qfi(integral(value)) == qfi(value)

    @pytest.mark.parametrize("exchanged", [0, 2])
    def test_only_the_single_pair_record_is_accepted(self, exchanged):
        message = f"single-pair exchange integral, got exchanged_count={exchanged}"
        for qfi in QFI_FUNCTIONS:
            with pytest.raises(ValueError, match=message):
                qfi(integral(0.5, exchanged=exchanged))

    def test_a_record_for_another_photon_number_is_rejected(self):
        # qfi_twin(100, <a four-photon record>) returned 4600.0
        record = integral(0.9, 4)
        calls = [
            (lambda: qfi_twin(100, record), 100),
            (lambda: qfi_general(3, 5, record), 8),
            (lambda: qfi_general(1, 1, record), 2),
            (lambda: qfi_mixed_number(2, [(0.5, 2, record), (0.5, 3, record)]), 5),
            (lambda: qfi_mixed_number(1, [(0.5, 0, None), (0.5, 2, record)]), 3),
        ]
        for call, total in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"exchange integral is for 4 photons, the QFI for {total}"
        assert qfi_twin(4, record) == qfi_twin(4, 0.9)
        assert qfi_general(1, 3, record) == qfi_general(1, 3, 0.9)
        assert qfi_mixed_number(2, [(1.0, 2, record)]) == qfi_mixed_number(2, [(1.0, 2, 0.9)])

    @pytest.mark.parametrize("value", [-0.5, 1.5, -1e-300, 1.0 + 2e-12])
    def test_overlap_outside_the_unit_interval_is_rejected(self, value):
        message = rf"exchange integral must lie in \[0, 1\], got {value}"
        for qfi in QFI_FUNCTIONS:
            with pytest.raises(ValueError, match=message):
                qfi(integral(value))
            with pytest.raises(ValueError, match=message):
                qfi(value)

    def test_rounding_overshoot_of_the_harmonic_oracle_is_accepted(self):
        # the oracle's m = 2 harmonic overlap reads a rounding step above one
        arm = build_harmonic(2, 1.0)
        value = oracle_integral(arm, arm, l=1).value
        assert value == 1.0000000000000004
        assert qfi_twin(4, value) == 4 * (value * 4 + 2.0) / 2.0
        assert qfi_general(2, 2, value) == 2.0 * 2 * 2 * value + 4
        assert qfi_mixed_number(2, [(1.0, 2, value)]) == qfi_general(2, 2, value)


class TestParity:
    def test_zero_phase_is_unity(self):
        assert parity_expectation([1.0, 0.9, 0.8, 0.7], 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_single_mode_is_legendre(self, m):
        # independent reference: the fringe of indistinguishable photons
        # is the Legendre polynomial in cos(2 phi)
        phis = np.linspace(-1.5, 1.5, 31)
        ones = [1.0] * (m + 1)
        for phi in phis:
            assert parity_expectation(ones, phi) == pytest.approx(
                float(eval_legendre(m, math.cos(2 * phi))), abs=1e-12
            )

    def test_values_stay_in_unit_interval(self):
        arm = build_dicke(2, 1.0)
        integrals = [oracle_integral(arm, arm, l=l).value for l in range(3)]
        for phi in np.linspace(-math.pi, math.pi, 101):
            assert -1.0 - 1e-12 <= parity_expectation(integrals, phi) <= 1.0 + 1e-12

    def test_missing_integrals_rejected(self):
        # m is one less than the number of overlaps, so only an empty set is short
        message = r"^parity expectation needs the overlaps I\^\(0\.\.m\), got none$"
        with pytest.raises(ValueError, match=message):
            parity_expectation([], 0.1)
        with pytest.raises(ValueError, match=message):
            parity_curve([], [0.0])

    @given(m=st.integers(1, 80), phi=st.floats(-math.pi / 2, math.pi / 2))
    @settings(max_examples=300, deadline=None)
    def test_a_value_is_legendre_or_an_arithmetic_error(self, m, phi):
        # the terms reach 2^m / m and cancel to at most 1: a returned value
        # is within the 1e-9 rounding bound, or the cancellation is reported
        try:
            value = parity_expectation([1.0] * (m + 1), phi)
        except ArithmeticError as exc:
            assert "rounding bound" in str(exc)
            return
        assert abs(value - float(eval_legendre(m, math.cos(2 * phi)))) <= 1e-9

    @pytest.mark.parametrize("m", [1, 2, 5, 10, 18])
    def test_the_whole_fringe_passes_up_to_eighteen_photons(self, m):
        ones = [1.0] * (m + 1)
        for phi in np.linspace(-math.pi / 2, math.pi / 2, 181):
            assert parity_expectation(ones, phi) == pytest.approx(
                float(eval_legendre(m, math.cos(2 * phi))), rel=0.0, abs=1e-11
            )

    @pytest.mark.parametrize("m", [30, 60, 200])
    def test_cancellation_past_the_bound_raises(self, m):
        # at m = 60 the sum printed values from -4.95 to 5.86, at m = 200
        # -6.8e41; overlaps below one keep the sum (all ones take Legendre's)
        vals = [0.9] * (m + 1)
        with pytest.raises(ArithmeticError, match="rounding bound"):
            parity_expectation(vals, math.pi / 4)
        assert parity_expectation([1.0] * (m + 1), math.pi / 4) == pytest.approx(
            float(eval_legendre(m, 0.0)), rel=0.0, abs=1e-12)
        # near zero phase the terms fall off fast and the sum stays exact
        assert parity_expectation([1.0] * (m + 1), 1e-3) == pytest.approx(
            float(eval_legendre(m, math.cos(2e-3))), rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_small_fringes_keep_their_bits(self, m):
        # the unguarded sum, term for term, at every m the oracle families reach
        arm = build_dicke(m, 1.0)
        integrals = [oracle_integral(arm, arm, l=l).value for l in range(m + 1)]
        for phi in np.linspace(-math.pi / 2, math.pi / 2, 181):
            s2, c2, total = math.sin(phi) ** 2, math.cos(phi) ** 2, 0.0
            for l, val in enumerate(integrals):
                total += (-1.0) ** l * s2**l * c2 ** (m - l) * math.comb(m, l) ** 2 * val
            assert parity_expectation(integrals, phi) == total

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_numeric_curvature_single_mode(self, m):
        h = 1e-4
        ones = [1.0] * (m + 1)
        second = (
            parity_expectation(ones, h)
            - 2.0 * parity_expectation(ones, 0.0)
            + parity_expectation(ones, -h)
        ) / h**2
        assert -second == pytest.approx(2.0 * m * (m + 1.0), rel=1e-6)

    def test_numeric_curvature_multimode(self):
        arm = build_dicke(2, 1.0)
        integrals = [oracle_integral(arm, arm, l=l).value for l in range(3)]
        h = 1e-4
        second = (
            parity_expectation(integrals, h)
            - 2.0 * parity_expectation(integrals, 0.0)
            + parity_expectation(integrals, -h)
        ) / h**2
        expected = 2.0 * 2 * (2 * integrals[1] + integrals[0])
        assert -second == pytest.approx(expected, rel=1e-6)

    def test_first_derivative_vanishes_at_origin(self):
        arm = build_dicke(2, 1.0)
        integrals = [oracle_integral(arm, arm, l=l).value for l in range(3)]
        h = 1e-4
        slope = (
            parity_expectation(integrals, h)
            - parity_expectation(integrals, -h)
        ) / (2 * h)
        assert abs(slope) <= 1e-8


def parity_variance(integrals):
    """Small-angle phase variance of the parity readout, by error
    propagation: Var(P) / (dP/dphi)^2 tends to minus one over the fringe's
    curvature at zero phase."""
    return -1.0 / parity_curve(integrals, [0.0]).curvature


class TestParityVariance:
    def test_two_photon_reference(self):
        assert parity_variance([1.0, 1.0]) == 0.25

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_single_mode_matches_fock_scaling(self, m):
        n = 2 * m
        variance = parity_variance([1.0] * (m + 1))
        assert variance == pytest.approx(2.0 / (n * (n + 2)), rel=1e-14)
        # fringe curvature = 4 * endpoint derivative of the Legendre polynomial
        assert 4.0 * (m * (m + 1) / 2.0) == pytest.approx(1.0 / variance, rel=1e-14)

    def test_four_photon_collective(self):
        assert parity_variance([1.0, X4, 0.5]) == pytest.approx(
            1.0 / (8 * X4 + 4), rel=1e-14
        )

    @given(m=st.integers(1, 30), value=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_saturates_cramer_rao(self, m, value):
        # the fringe's variance against the twin QFI's Cramer-Rao bound
        variance = parity_variance([1.0, value] + [0.5] * (m - 1))
        qfi = qfi_twin(2 * m, integral(value, 2 * m))
        assert variance * qfi == pytest.approx(1.0, rel=1e-12)


class TestParityCurve:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_overlap_is_rejected(self, value):
        with pytest.raises(ValueError, match=rf"overlap I\^\(1\) must be finite, got {value}"):
            parity_curve([1.0, value, 0.5], [0.0, 0.1])
        with pytest.raises(ValueError, match=rf"I\^\(2\) must be finite, got {value}"):
            parity_expectation([1.0, 0.5, value], 0.1)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_nonfinite_phase_is_rejected(self, phi):
        # nan gave a nan fringe and inf an unnamed "math domain error"
        message = f"^phase phi must be finite, got {phi}$"
        with pytest.raises(ValueError, match=message):
            parity_expectation([1.0, 0.9, 0.5], phi)
        with pytest.raises(ValueError, match=message):
            parity_curve([1.0, 0.9, 0.5], [0.0, phi])

    def test_curve_summary(self):
        arm = build_dicke(2, 1.0)
        integrals = [oracle_integral(arm, arm, l=l).value for l in range(3)]
        curve = parity_curve(integrals, np.linspace(-0.5, 0.5, 21))
        assert curve.expectation[10] == pytest.approx(1.0)
        assert -curve.curvature == pytest.approx(
            qfi_twin(4, integral(integrals[1])), rel=1e-9
        )
        rows = curve.to_rows()
        assert rows[0].keys() == {"phi", "expectation"}
