import math

import pytest
from hypothesis import given, settings, strategies as st

import dickeqfi.cli
import dickeqfi.exchange
from dickeqfi.budget import (
    PlatformParams,
    SPEED_OF_LIGHT,
    _arrival_delay,
    _interferometer_loss,
    _mixed_coupling,
    _propagation_length,
    _pulse_area,
    _retardation,
    full_budget,
)
from dickeqfi.exchange import exchange_integral
from dickeqfi.ladder import TwinConfiguration, build_dicke, build_harmonic
from dickeqfi.oracle import ExchangeIntegral, oracle_delay_check, oracle_integral

SIN_WAVEGUIDE = dict(
    quality_factor=1e6,
    group_index=10.0,
    wavelength=300e-9,
    gamma_1d=2 * math.pi * 6e6,
)


def _params(**overrides):
    values = dict(SIN_WAVEGUIDE, gamma_star=0.0, n_photons=10)
    values.update(overrides)
    return PlatformParams(**values)


def _entry(budget, channel):
    return next(e for e in budget.entries if e.channel == channel)


def _note_number(entry):
    # the secondary number that ends an entry's note
    return float(entry.note.rstrip(")").rsplit(" ", 1)[-1])


class TestPropagationLength:
    def test_sin_reference_ratio(self):
        entry = _entry(full_budget(_params(), 0.9, 1.0), "propagation_length")
        assert entry.value == 5e4

    def test_margin_example(self):
        # ratio 1e4 over N = 10: a margin of exactly 1e3 array sizes
        params = _params(quality_factor=2e5)
        assert _propagation_length(params, 10.0).feasible
        assert _propagation_length(params, 1e3).feasible
        assert not _propagation_length(params, math.nextafter(1e3, math.inf)).feasible
        assert _propagation_length(params, 10.0).note == (
            "length covers 1e+03 array sizes (margin factor 10)")

    def test_infeasible_when_array_outgrows_length(self):
        budget = full_budget(_params(quality_factor=100.0, n_photons=50), 0.9, 1.0)
        assert not _entry(budget, "propagation_length").feasible  # ratio 5 < N

    def test_validation(self):
        with pytest.raises(ValueError):
            _params(quality_factor=0.0)

    @pytest.mark.parametrize("field, value, message", [
        ("quality_factor", math.inf, "quality_factor must be finite, got inf"),
        ("quality_factor", math.nan, "quality_factor must be finite, got nan"),
        ("n_photons", 0, "n_photons must be an even total >= 2, got 0"),
        ("n_photons", -4, "n_photons must be an even total >= 2, got -4"),
    ])
    def test_unusable_inputs_are_named(self, field, value, message):
        # an infinite Q would read as feasible with an infinite margin, and
        # N = 0 would divide by zero
        with pytest.raises(ValueError) as info:
            _params(**{field: value})
        assert str(info.value) == message


class TestRetardation:
    def test_sin_reference_ceiling(self):
        entry = _entry(full_budget(_params(n_photons=100), 0.9, 1.0), "retardation")
        assert _note_number(entry) == pytest.approx(1.06e7, rel=0.01)
        assert 100 <= entry.value <= 400
        assert entry.feasible

    def test_ceiling_is_the_cube_root_of_the_bound_over_the_margin(self):
        gamma = SIN_WAVEGUIDE["gamma_1d"]
        bound = 4.0 * SPEED_OF_LIGHT / (10.0 * 300e-9 * gamma)
        for margin in (1.0, 3.0, 10.0):
            entry = _retardation(_params(), margin)
            assert entry.value == math.floor((bound / margin) ** (1.0 / 3.0))

    def test_smallest_array_always_fits(self):
        entry = _entry(full_budget(_params(n_photons=2), 0.9, 1.0), "retardation")
        assert entry.feasible

    def test_bound_inverse_in_group_index(self):
        # doubling n_g halves the bound exactly, which doubling the margin
        # does to the ceiling's argument
        slow = _retardation(_params(group_index=20.0, gamma_1d=1e7), 10.0)
        fast = _retardation(_params(group_index=10.0, gamma_1d=1e7), 10.0)
        assert slow.value == _retardation(_params(group_index=10.0, gamma_1d=1e7), 20.0).value
        assert _note_number(slow) == pytest.approx(_note_number(fast) / 2.0, rel=1e-2)

    def test_uses_exact_light_speed(self):
        assert SPEED_OF_LIGHT == 299792458.0


class TestPulseError:
    def test_perfect_pulse(self):
        entry = _pulse_area(_params(n_photons=100, pulse_error=0.0))
        assert entry.value == 1.0
        assert entry.feasible

    def test_documented_estimate(self):
        entry = _pulse_area(_params(n_photons=100, pulse_error=1e-2))
        assert 1.0 - entry.value == pytest.approx(1e-2)
        assert entry.feasible

    def test_nonperturbative_flag(self):
        assert not _pulse_area(_params(n_photons=100, pulse_error=0.5)).feasible

    @pytest.mark.parametrize("d", [-0.1, math.nan, math.inf])
    def test_negative_or_nonfinite_error_is_rejected(self, d):
        rule = "nonnegative" if d < 0.0 else "finite"
        with pytest.raises(ValueError) as info:
            _params(pulse_error=d)
        assert str(info.value) == f"pulse_error must be {rule}, got {d}"


def _mixed(d, n):
    return _mixed_coupling(_params(delta_gamma=d, n_photons=n)).value


class TestMixedRateCorrection:
    def test_matched_couplings(self):
        assert _mixed(0.0, 10) == 1.0

    def test_twenty_percent_mismatch(self):
        # gamma' = 1.2 gamma, i.e. relative mismatch -0.2, against the
        # oracle's ratio of the mismatched to the matched overlap
        a, b = build_dicke(5, 1.0), build_dicke(5, 1.2)
        mismatched = oracle_integral(a, b, l=1, max_total_photons=10).value
        matched = oracle_integral(a, a, l=1, max_total_photons=10).value
        assert _mixed(-0.2, 10) == pytest.approx(mismatched / matched, rel=1e-12)

    def test_penalty_is_mild_at_the_paper_scale(self):
        # N = 1000, d = 0.1: the per-step model put this at 0.250
        assert _mixed(0.1, 1000) == pytest.approx(0.97116, abs=5e-5)

    def test_rejects_flipped_coupling(self):
        with pytest.raises(ValueError):
            _params(delta_gamma=1.5)

    def test_stronger_second_arm_matches_the_unscaled_ratio(self):
        # d < 0 builds the arms at rates 1/r and 1, not 1 and r = 1 - d
        arm = build_dicke(50, 1.0)
        unscaled = exchange_integral(TwinConfiguration(arm, build_dicke(50, 1.1))).value
        unscaled /= exchange_integral(TwinConfiguration(arm, arm)).value
        assert _mixed(-0.1, 100) == pytest.approx(unscaled, rel=1e-13, abs=0.0)

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


def _delay(n, gamma, tau):
    return _arrival_delay(_params(n_photons=n, gamma_1d=gamma, delay=tau))


class TestDelayCorrection:
    def test_zero_delay(self):
        entry = _delay(10, 1.0, 0.0)
        assert entry.value == 1.0
        assert _note_number(entry) == 1.0

    def test_first_order_percent(self):
        entry = _delay(10, 1.0, 1e-3)  # N gamma tau = 0.01
        assert _note_number(entry) == pytest.approx(0.99)
        assert entry.value == pytest.approx(math.exp(-0.01))

    @pytest.mark.parametrize("tau, rule", [
        (-1.0, "nonnegative"), (math.nan, "finite"), (math.inf, "finite"),
    ])
    def test_delay_must_be_finite_and_nonnegative(self, tau, rule):
        with pytest.raises(ValueError) as info:
            _params(delay=tau)
        assert str(info.value) == f"delay must be {rule}, got {tau}"

    def test_expansion_envelope_is_stable(self):
        # the quadratic envelope constant |exact - first_order| / x^2
        # barely moves over two decades of delay
        ratios = []
        for x in (1e-3, 1e-2, 1e-1):
            entry = _delay(2, 0.5, x)  # N gamma tau = x
            ratios.append(abs(entry.value - _note_number(entry)) / x**2)
        assert max(ratios) / min(ratios) <= 1.1

    @pytest.mark.parametrize("tau", [1e-3, 1e-2, 1e-1])
    def test_bound_stays_below_exact_overlap(self, tau):
        # four-photon cross-check against the exact delayed oracle
        arm = build_dicke(2, 1.0)
        check = oracle_delay_check(arm, tau)
        assert _delay(4, 1.0, tau).value * check.reference == pytest.approx(
            check.bound, rel=1e-12
        )
        assert check.bound <= check.exact + 1e-12


def _loss(n, overlap, eta):
    return _interferometer_loss(_params(n_photons=n, interferometer_loss=eta), overlap)


class TestInterferometerLoss:
    def test_lossless(self):
        assert _loss(10, 0.82, 0.0).value == 0.0

    def test_documented_decrease(self):
        assert -_loss(10, 0.82, 0.01).value == pytest.approx(100 * 0.01 * 0.82 / 4.0)

    def test_heisenberg_threshold(self):
        threshold = 4.0 / (0.82 * 1e4)
        assert _loss(100, 0.82, 1e-5).feasible
        assert _loss(100, 0.82, threshold).feasible
        assert not _loss(100, 0.82, math.nextafter(threshold, math.inf)).feasible
        assert _note_number(_loss(100, 0.82, 1e-5)) == pytest.approx(4.9e-4, rel=0.01)

    def test_threshold_violated(self):
        assert not _loss(100, 0.82, 1e-2).feasible

    def test_validation(self):
        with pytest.raises(ValueError):
            _params(interferometer_loss=1.5)

    @pytest.mark.parametrize("n", [0, -2])
    def test_photon_number_below_one_is_rejected(self, n):
        with pytest.raises(ValueError) as info:
            _params(n_photons=n)
        assert str(info.value) == f"n_photons must be an even total >= 2, got {n}"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_inputs_are_rejected(self, value):
        with pytest.raises(ValueError, match=f"exchange integral must be finite, got {value}"):
            full_budget(_params(interferometer_loss=0.1), value, 0.9)
        with pytest.raises(ValueError, match=f"exchange integral must be finite, got {value}"):
            full_budget(_params(interferometer_loss=0.1), ExchangeIntegral(value, 10, "oracle"),
                        0.9)


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

    @pytest.mark.parametrize("value", [-0.5, 1.5])
    def test_overlap_outside_the_unit_interval_is_rejected(self, value):
        # -0.5 read as a loss that raises the information, with an infinite
        # eta threshold
        with pytest.raises(ValueError) as info:
            full_budget(_params(interferometer_loss=0.1), value, 0.9)
        assert str(info.value) == f"exchange integral must lie in [0, 1], got {value}"

    def test_overlap_rounding_above_one_is_accepted(self):
        arm = build_harmonic(2, 1.0)
        overlap = oracle_integral(arm, arm, l=1)
        assert overlap.value == 1.0000000000000004
        budget = full_budget(_params(n_photons=4), overlap, 1.0)
        assert budget.effective_exchange_integral == overlap.value

    @pytest.mark.parametrize("exchanged", [0, 2])
    def test_only_the_single_pair_record_is_accepted(self, exchanged):
        record = ExchangeIntegral(value=0.9, total_photons=10, method="oracle",
                                  exchanged_count=exchanged)
        with pytest.raises(ValueError) as info:
            full_budget(_params(), record, 0.9)
        assert str(info.value) == ("QFI formulas take the single-pair exchange integral, "
                                   f"got exchanged_count={exchanged}")

    def test_a_record_for_another_photon_number_is_rejected(self):
        record = ExchangeIntegral(value=0.82, total_photons=4, method="recurrence")
        with pytest.raises(ValueError) as info:
            full_budget(_params(), record, 0.9)
        assert str(info.value) == "exchange integral is for 4 photons, the QFI for 10"
        assert full_budget(_params(n_photons=4), record, 0.9) == full_budget(
            _params(n_photons=4), 0.82, 0.9)

    def test_a_record_and_its_value_give_the_same_budget(self):
        params = _params(delta_gamma=0.1, delay=1e-9, interferometer_loss=1e-3)
        record = ExchangeIntegral(value=0.82, total_photons=10, method="recurrence")
        assert full_budget(params, record, 0.9) == full_budget(params, 0.82, 0.9)

    @pytest.mark.parametrize("margin", [0.0, -1.0, math.nan, math.inf])
    def test_margin_factor_must_be_positive_and_finite(self, margin):
        with pytest.raises(ValueError) as info:
            full_budget(_params(), 0.9, 1.0, margin_factor=margin)
        assert str(info.value) == f"margin_factor must be positive and finite, got {margin}"

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
        assert entry.value == _mixed(0.2, 10)

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

        tau = 0.01
        arm = build_dicke(2, 1.0)
        value = oracle_integral(arm, arm, l=1).value
        params = _params(n_photons=4, gamma_1d=1.0, delay=tau, delta_gamma=1e-3)
        budget = full_budget(params, value, 1.0)
        check = oracle_delay_check(arm, tau)
        assert budget.effective_exchange_integral <= check.exact + 1e-12
        exact_qfi = qfi_twin(4, check.exact)
        assert budget.combined_qfi_lower_bound <= exact_qfi + 1e-12
