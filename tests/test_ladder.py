import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dickeqfi.ladder import (
    DecayLadder,
    TwinConfiguration,
    build_anharmonic,
    build_dicke,
    build_harmonic,
)


class TestDickeBuilder:
    def test_single_emitter(self):
        ladder = build_dicke(1, 1.0)
        assert ladder.rates == (1.0,)
        assert ladder.frequencies == (0.0,)

    def test_three_emitters(self):
        assert build_dicke(3, 1.0).rates == (3.0, 4.0, 3.0)

    def test_twenty_emitters_peak(self):
        ladder = build_dicke(20, 1.0)
        assert ladder.rates[9] == 110.0
        assert ladder.rates[10] == 110.0

    @given(n=st.integers(1, 60), gamma=st.floats(0.01, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_rate_mirror_symmetry(self, n, gamma):
        rates = build_dicke(n, gamma).rates
        for m in range(n):
            assert rates[m] == pytest.approx(rates[n - 1 - m], rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_dicke(0, 1.0)
        with pytest.raises(ValueError):
            build_dicke(3, 0.0)
        with pytest.raises(ValueError):
            build_dicke(3, -1.0)


class TestCavityBuilders:
    def test_harmonic_limit(self):
        ladder = build_anharmonic(2, 1.0, 0.0)
        assert ladder.rates == (1.0, 2.0)
        assert ladder.frequencies == (0.0, 0.0)

    def test_quadratic_shift(self):
        assert build_anharmonic(3, 1.0, 10.0).frequencies == (0.0, 20.0, 60.0)

    def test_linear_rates(self):
        assert build_anharmonic(4, 2.0, 1000.0).rates == (2.0, 4.0, 6.0, 8.0)

    def test_harmonic_examples(self):
        assert build_harmonic(1, 1.0).rates == (1.0,)
        assert build_harmonic(3, 1.0).rates == (1.0, 2.0, 3.0)

    @given(n=st.integers(1, 20), gamma=st.floats(0.01, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_harmonic_is_zero_shift_anharmonic(self, n, gamma):
        assert build_harmonic(n, gamma) == build_anharmonic(n, gamma, 0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_anharmonic(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_anharmonic(2, -0.5, 1.0)


BUILDERS = {
    "dicke": (lambda n: build_dicke(n, 1.0), "n_emitters"),
    "anharmonic": (lambda n: build_anharmonic(n, 1.0, 0.5), "n_photons"),
    "harmonic": (lambda n: build_harmonic(n, 1.0), "n_photons"),
}


@pytest.mark.parametrize("build, name", BUILDERS.values(), ids=BUILDERS.keys())
class TestBuilderPhotonNumbers:
    @pytest.mark.parametrize("n", [2.5, 3.7, math.inf, math.nan, np.float64(math.inf),
                                   np.float64(math.nan), -math.inf])
    def test_rejects_non_integral_numbers(self, build, name, n):
        # 2.5 and 3.7 were truncated to 2- and 3-level ladders
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            build(n)

    def test_integral_float_and_numpy_numbers_pass(self, build, name):
        for n in (3.0, np.int64(3), np.float64(3.0)):
            ladder = build(n)
            assert type(ladder.levels) is int and ladder == build(3)


@given(
    n=st.integers(1, 30),
    gamma=st.floats(1e-3, 1e3),
    u=st.floats(-100.0, 100.0),
    kind=st.sampled_from(["dicke", "harmonic", "anharmonic"]),
)
@settings(max_examples=60, deadline=None)
def test_builders_produce_valid_ladders(n, gamma, u, kind):
    if kind == "dicke":
        ladder = build_dicke(n, gamma)
    elif kind == "harmonic":
        ladder = build_harmonic(n, gamma)
    else:
        ladder = build_anharmonic(n, gamma, u)
    assert ladder.levels == n
    assert len(ladder.rates) == n
    assert len(ladder.frequencies) == n
    assert all(r > 0 for r in ladder.rates)


class TestDecayLadderValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DecayLadder(levels=2, rates=(1.0,), frequencies=(0.0, 0.0))
        with pytest.raises(ValueError):
            DecayLadder(levels=2, rates=(1.0, 2.0), frequencies=(0.0,))

    def test_nonpositive_rate(self):
        with pytest.raises(ValueError):
            DecayLadder(levels=2, rates=(1.0, 0.0), frequencies=(0.0, 0.0))

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: build_dicke(3, math.inf), "rate of level 1"),
            (lambda: build_harmonic(3, math.inf), "rate of level 1"),
            # level 1 sits at 0 * u, which is NaN for a NaN shift
            (lambda: build_anharmonic(3, 1.0, math.nan), "frequency of level 1"),
        ],
        ids=["dicke-inf-rate", "harmonic-inf-rate", "anharmonic-nan-shift"],
    )
    def test_nonfinite_ladders_are_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("levels", [2.5, math.inf, math.nan])
    def test_rejects_non_integral_levels(self, levels):
        # 2.5 built a 2-level ladder from a dict and reported "expected 2.5 rates"
        fields = {"levels": levels, "rates": [1.0, 2.0], "frequencies": [0.0, 0.0]}
        with pytest.raises(ValueError, match="number of levels must be an integer"):
            DecayLadder(**fields)

    def test_integral_float_and_numpy_levels_become_int(self):
        for levels in (2.0, np.int64(2)):
            ladder = DecayLadder(levels, (1.0, 2.0), (0.0, 0.0))
            assert type(ladder.levels) is int and ladder == build_harmonic(2, 1.0)

    def test_json_round_trip(self):
        ladder = build_anharmonic(3, 2.0, 7.5)
        assert DecayLadder(**json.loads(ladder.to_json())) == ladder
        assert ladder.to_json() == (
            '{"frequencies": [0.0, 15.0, 45.0], "levels": 3, "rates": [2.0, 4.0, 6.0]}'
        )
        assert ladder.to_dict() == {
            "levels": 3,
            "rates": (2.0, 4.0, 6.0),
            "frequencies": (0.0, 15.0, 45.0),
        }


class TestTwinConfiguration:
    def test_requires_equal_levels(self):
        with pytest.raises(ValueError):
            TwinConfiguration(build_dicke(2, 1.0), build_dicke(3, 1.0))

    def test_rejects_negative_delay(self):
        # the arms arrive together: no delay, of either sign, is a field
        arm = build_dicke(2, 1.0)
        for delay in (-0.1, 0.1):
            with pytest.raises(TypeError, match="TwinConfiguration takes the fields"):
                TwinConfiguration(arm, arm, delay=delay)

    def test_photon_counts(self):
        config = TwinConfiguration(build_dicke(3, 1.0), build_dicke(3, 1.0))
        assert config.total_photons == 6
