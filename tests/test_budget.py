import math

import pytest
from hypothesis import given, settings, strategies as st

import dickeqfi.cli
import dickeqfi.exchange
from dickeqfi.budget import (
    PlatformParams,
    SPEED_OF_LIGHT,
    delay_correction,
    full_budget,
    interferometer_loss_correction,
    mixed_rate_correction,
    propagation_length_check,
    pulse_error,
    retardation_check,
)
from dickeqfi.exchange import exchange_integral
from dickeqfi.ladder import TwinConfiguration, build_dicke
from dickeqfi.oracle import ExchangeIntegral, oracle_delay_check, oracle_integral

SIN_WAVEGUIDE = dict(
    quality_factor=1e6,
    group_index=10.0,
    wavelength=300e-9,
    gamma_1d=2 * math.pi * 6e6,
)


class TestPropagationLength:
    def test_sin_reference_ratio(self):
        check = propagation_length_check(1e6, 10.0, 10)
        assert check.l_prop_over_lambda == 5e4

    def test_margin_example(self):
        check = propagation_length_check(2e5, 10.0, 10)  # ratio 1e4
        assert check.feasible
        assert check.margin == pytest.approx(1e3)

    def test_infeasible_when_array_outgrows_length(self):
        check = propagation_length_check(100.0, 10.0, 50)  # ratio 5 < N
        assert not check.feasible

    def test_validation(self):
        with pytest.raises(ValueError):
            propagation_length_check(0.0, 10.0, 10)

    @pytest.mark.parametrize("q, n, message", [
        (math.inf, 10, "quality factor must be positive and finite, got inf"),
        (math.nan, 10, "quality factor must be positive and finite, got nan"),
        (1e6, 0, "n_photons must be positive, got 0"),
        (1e6, -4, "n_photons must be positive, got -4"),
    ])
    def test_unusable_inputs_are_named(self, q, n, message):
        # an infinite Q read as feasible with an infinite margin, and N = 0
        # raised ZeroDivisionError
        with pytest.raises(ValueError) as info:
            propagation_length_check(q, 1.0, n)
        assert str(info.value) == message


class TestRetardation:
    def test_sin_reference_ceiling(self):
        check = retardation_check(10.0, 300e-9, 2 * math.pi * 6e6, 100)
        assert check.n_cubed_bound == pytest.approx(1.06e7, rel=0.01)
        assert 100 <= check.n_max <= 400
        assert check.feasible

    def test_single_photon_always_fits(self):
        check = retardation_check(10.0, 300e-9, 2 * math.pi * 6e6, 1)
        assert check.feasible

    def test_bound_inverse_in_group_index(self):
        slow = retardation_check(20.0, 300e-9, 1e7, 10)
        fast = retardation_check(10.0, 300e-9, 1e7, 10)
        assert slow.n_cubed_bound == fast.n_cubed_bound / 2.0

    def test_uses_exact_light_speed(self):
        assert SPEED_OF_LIGHT == 299792458.0


class TestPulseError:
    def test_perfect_pulse(self):
        est = pulse_error(0.0, 100)
        assert est.infidelity == 0.0
        assert est.in_regime

    def test_documented_estimate(self):
        est = pulse_error(1e-2, 100)
        assert est.infidelity == pytest.approx(1e-2)
        assert est.in_regime

    def test_nonperturbative_flag(self):
        est = pulse_error(0.5, 100)
        assert not est.in_regime

    @pytest.mark.parametrize("d", [-0.1, math.nan, math.inf])
    def test_negative_or_nonfinite_error_is_rejected(self, d):
        with pytest.raises(ValueError) as info:
            pulse_error(d, 10)
        assert str(info.value) == f"pulse error must be nonnegative and finite, got {d}"


class TestMixedRateCorrection:
    def test_matched_couplings(self):
        assert mixed_rate_correction(0.0, 10) == 1.0

    def test_twenty_percent_mismatch(self):
        # gamma' = 1.2 gamma, i.e. relative mismatch -0.2, against the
        # oracle's ratio of the mismatched to the matched overlap
        a, b = build_dicke(5, 1.0), build_dicke(5, 1.2)
        mismatched = oracle_integral(a, b, l=1, max_total_photons=10).value
        matched = oracle_integral(a, a, l=1, max_total_photons=10).value
        assert mixed_rate_correction(-0.2, 10) == pytest.approx(
            mismatched / matched, rel=1e-12
        )

    def test_penalty_is_mild_at_the_paper_scale(self):
        # N = 1000, d = 0.1: the per-step model put this at 0.250
        assert mixed_rate_correction(0.1, 1000) == pytest.approx(0.97116, abs=5e-5)

    def test_rejects_flipped_coupling(self):
        with pytest.raises(ValueError):
            mixed_rate_correction(1.5, 10)

    def test_stronger_second_arm_matches_the_unscaled_ratio(self):
        # d < 0 builds the arms at rates 1/r and 1, not 1 and r = 1 - d
        arm = build_dicke(50, 1.0)
        unscaled = exchange_integral(TwinConfiguration(arm, build_dicke(50, 1.1))).value
        unscaled /= exchange_integral(TwinConfiguration(arm, arm)).value
        assert mixed_rate_correction(-0.1, 100) == pytest.approx(unscaled, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("d,calls", [(0.0, 0), (0.1, 2)])
    def test_matched_couplings_run_no_recurrence(self, monkeypatch, d, calls):
        seen = []
        monkeypatch.setattr(dickeqfi.exchange, "exchange_integral",
                            lambda config: seen.append(config) or exchange_integral(config))
        full_budget(_params(delta_gamma=d), 0.9, 1.0)
        assert len(seen) == calls

    def test_report_runs_the_matched_overlap_once(self, monkeypatch, capsys):
        # the report's own I(gamma, gamma) is the ratio's denominator; the
        # budget calls the recurrence through the exchange module
        seen = []
        monkeypatch.setattr(dickeqfi.exchange, "exchange_integral",
                            lambda config: seen.append(config) or exchange_integral(config))
        code = dickeqfi.cli.main([
            "report", "--q", "1e6", "--n-g", "10", "--lambda-a", "300e-9",
            "--gamma-1d", "3.7699e7", "--gamma-star", "6.2832e5", "--n", "100",
            "--delta-gamma", "0.1", "--no-header",
        ])
        assert code == 0 and "mixed_coupling" in capsys.readouterr().out
        assert len(seen) == 2


class TestDelayCorrection:
    def test_zero_delay(self):
        corr = delay_correction(10, 1.0, 0.0)
        assert corr.bound_factor == 1.0
        assert corr.first_order == 1.0

    def test_first_order_percent(self):
        corr = delay_correction(10, 1.0, 1e-3)  # N gamma tau = 0.01
        assert corr.first_order == pytest.approx(0.99)
        assert corr.bound_factor == pytest.approx(math.exp(-0.01))

    @pytest.mark.parametrize("tau, rule", [
        (-1.0, "nonnegative"), (math.nan, "finite"), (math.inf, "finite"),
    ])
    def test_delay_must_be_finite_and_nonnegative(self, tau, rule):
        with pytest.raises(ValueError) as info:
            delay_correction(10, 1.0, tau)
        assert str(info.value) == f"delay must be {rule}, got {tau}"

    def test_expansion_envelope_is_stable(self):
        # the quadratic envelope constant |exact - first_order| / x^2
        # barely moves over two decades of delay
        ratios = []
        for x in (1e-3, 1e-2, 1e-1):
            corr = delay_correction(1, 1.0, x)
            ratios.append(abs(corr.bound_factor - corr.first_order) / x**2)
        assert max(ratios) / min(ratios) <= 1.1

    @pytest.mark.parametrize("tau", [1e-3, 1e-2, 1e-1])
    def test_bound_stays_below_exact_overlap(self, tau):
        # four-photon cross-check against the exact delayed oracle
        arm = build_dicke(2, 1.0)
        check = oracle_delay_check(arm, tau)
        corr = delay_correction(4, 1.0, tau)
        assert corr.bound_factor * check.reference == pytest.approx(
            check.bound, rel=1e-12
        )
        assert check.bound <= check.exact + 1e-12


class TestInterferometerLoss:
    def test_lossless(self):
        corr = interferometer_loss_correction(10, 0.82, 0.0)
        assert corr.qfi_decrease == 0.0

    def test_documented_decrease(self):
        corr = interferometer_loss_correction(10, 0.82, 0.01)
        assert corr.qfi_decrease == pytest.approx(100 * 0.01 * 0.82 / 4.0)

    def test_heisenberg_threshold(self):
        corr = interferometer_loss_correction(100, 0.82, 1e-5)
        assert corr.eta_threshold == pytest.approx(4.0 / (0.82 * 1e4), rel=1e-12)
        assert corr.eta_threshold == pytest.approx(4.9e-4, rel=0.01)
        assert corr.heisenberg_ok

    def test_threshold_violated(self):
        corr = interferometer_loss_correction(100, 0.82, 1e-2)
        assert not corr.heisenberg_ok

    def test_validation(self):
        with pytest.raises(ValueError):
            interferometer_loss_correction(4, 1.0, 1.5)

    @pytest.mark.parametrize("n", [0, -2])
    def test_photon_number_below_one_is_rejected(self, n):
        with pytest.raises(ValueError) as info:
            interferometer_loss_correction(n, 0.8, 0.1)
        assert str(info.value) == f"n_photons must be positive, got {n}"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_inputs_are_rejected(self, value):
        with pytest.raises(ValueError, match=f"exchange integral must be finite, got {value}"):
            interferometer_loss_correction(4, value, 0.1)
        with pytest.raises(ValueError, match=f"exchange integral must be finite, got {value}"):
            interferometer_loss_correction(4, ExchangeIntegral(value, 4, "oracle"), 0.1)


def _params(**overrides):
    values = dict(SIN_WAVEGUIDE, gamma_star=0.0, n_photons=10)
    values.update(overrides)
    return PlatformParams(**values)


class TestPlatformParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            _params(n_photons=7)
        with pytest.raises(ValueError):
            _params(interferometer_loss=1.5)
        with pytest.raises(ValueError):
            _params(gamma_star=-1.0)
        with pytest.raises(ValueError):
            _params(wavelength=0.0)

    def test_round_trips_through_dict(self):
        params = _params(pulse_error=0.01)
        assert PlatformParams(**params.to_dict()) == params


class TestFullBudget:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_overlap_is_rejected(self, value):
        with pytest.raises(ValueError, match=f"exchange integral must be finite, got {value}"):
            full_budget(_params(), value, 0.9)

    def test_ideal_platform_reproduces_twin_qfi(self):
        budget = full_budget(_params(), 11.0 / 12.0, 1.0)
        assert budget.combined_qfi_lower_bound == pytest.approx(budget.ideal_qfi)
        assert budget.ideal_qfi == pytest.approx(10 * (11.0 / 12.0 * 10 + 2) / 2.0)

    def test_combined_estimate_is_quadratic_in_collection(self):
        # the full-collection sector carries weight p^2
        full = full_budget(_params(), 0.82, 1.0).combined_qfi_lower_bound
        assert full_budget(_params(), 0.82, 0.9).combined_qfi_lower_bound == pytest.approx(
            0.81 * full, rel=1e-15)

    def test_channels_are_itemised(self):
        budget = full_budget(_params(), 0.9, 0.95)
        channels = {entry.channel for entry in budget.entries}
        assert channels == {
            "propagation_length",
            "retardation",
            "pulse_area",
            "mixed_coupling",
            "arrival_delay",
            "collection",
            "interferometer_loss",
        }

    def test_pulse_area_entry_is_a_probability(self):
        # 1 - d^2 N, clamped at zero where the first-order infidelity passes one
        for n in (2, 10, 100, 1000, 10000):
            for d in (0.0, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0):
                budget = full_budget(_params(n_photons=n, pulse_error=d), 0.82, 1.0)
                entry = next(e for e in budget.entries if e.channel == "pulse_area")
                assert 0.0 <= entry.value <= 1.0
                assert entry.value == max(0.0, 1.0 - d**2 * n)
        # d^2 N = 2.5, where 1 - d^2 N reads -1.5
        budget = full_budget(_params(n_photons=1000, pulse_error=0.05), 0.82, 1.0)
        entry = next(e for e in budget.entries if e.channel == "pulse_area")
        assert (entry.value, entry.feasible) == (0.0, False)

    def test_multiplicative_entries_in_unit_interval(self):
        budget = full_budget(
            _params(delta_gamma=0.1, delay=1e-10), 0.9, 0.95
        )
        for entry in budget.entries:
            if entry.kind == "multiplicative":
                assert 0.0 < entry.value <= 1.0

    def test_combined_bound_never_exceeds_ideal(self):
        budget = full_budget(
            _params(delta_gamma=0.05, delay=1e-10, interferometer_loss=1e-4),
            0.9,
            0.9,
        )
        assert budget.combined_qfi_lower_bound <= budget.ideal_qfi

    @given(
        delta=st.floats(0.0, 0.3),
        delay=st.floats(0.0, 1e-9),
        eta=st.floats(0.0, 0.01),
        p=st.floats(0.5, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_worsening_any_channel_never_helps(self, delta, delay, eta, p):
        base = full_budget(_params(), 0.9, 1.0).combined_qfi_lower_bound
        worse = full_budget(
            _params(delta_gamma=delta, delay=delay, interferometer_loss=eta),
            0.9,
            p,
        ).combined_qfi_lower_bound
        assert worse <= base + 1e-9

    def test_mixed_channel_uses_closed_form(self):
        budget = full_budget(_params(delta_gamma=0.2), 0.9, 1.0)
        entry = {e.channel: e for e in budget.entries}["mixed_coupling"]
        assert entry.value == mixed_rate_correction(0.2, 10)

    def test_collection_probability_validated(self):
        with pytest.raises(ValueError):
            full_budget(_params(), 0.9, 1.5)

    def test_ninety_percent_fidelity_frontier(self):
        # at a guided-to-residual ratio of 60 the per-arm collection
        # probability crosses 0.9 somewhere in the hundreds of photons,
        # i.e. the reachable N grows exponentially with the rate ratio
        from dickeqfi.dickesim import LossModel, collection_probability_product

        loss = LossModel(1.0, 1.0 / 60.0)
        crossing = None
        n = 2
        while n <= 4096:
            if collection_probability_product(n // 2, loss) < 0.9:
                crossing = n
                break
            n *= 2
        assert crossing is not None
        assert 128 <= crossing <= 4096

    def test_four_photon_composition_against_oracle(self):
        # all channels small at N = 4: the composed bound must stay below
        # the QFI rebuilt from the oracle-exact delayed overlap
        from dickeqfi.metrology import qfi_twin
        from dickeqfi.oracle import ExchangeIntegral, oracle_integral

        tau = 0.01
        arm = build_dicke(2, 1.0)
        value = oracle_integral(arm, arm, l=1).value
        params = _params(n_photons=4, gamma_1d=1.0, delay=tau, delta_gamma=1e-3)
        budget = full_budget(params, value, 1.0)
        check = oracle_delay_check(arm, tau)
        assert budget.effective_exchange_integral <= check.exact + 1e-12
        exact_qfi = qfi_twin(
            4,
            ExchangeIntegral(value=check.exact, total_photons=4,
                             method="oracle", exchanged_count=1),
        ).qfi
        assert budget.combined_qfi_lower_bound <= exact_qfi + 1e-12
