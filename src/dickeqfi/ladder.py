"""Decay-ladder descriptions of emission cascades.

An m-excitation cascade is fully characterised by the decay rate and the
level frequency of every rung: the emitted m-photon wavepacket is the
nested exponential amplitude generated by the chain, so a ladder object
is all that downstream integrals ever need (no momentum-space tensor is
materialised anywhere).

Unit conventions: all rates are expressed in units of a reference rate
(the collective waveguide rate for emitter ensembles, the single-photon
loss rate for cavities) and all frequencies use the same unit, measured
in the frame rotating at the bare transition frequency.  Level 0 sits at
frequency 0 by definition.
"""
from __future__ import annotations

import math


class Record:
    """Immutable record, the package's replacement for a frozen dataclass.

    A subclass names its fields in ``__slots__`` and the defaults of
    trailing ones in ``_defaults``; ``__post_init__`` checks the fields
    and may normalise one through ``object.__setattr__``.  No code is
    generated per class, so defining a record costs what a plain class
    does: the command line imports this module on every run.  Equality,
    hash, repr, pickling and ``to_dict`` work field by field, as they do
    for a frozen dataclass.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        kwargs.update(zip(names, args))
        for name in names:
            if name in kwargs:
                value = kwargs[name]
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} is missing the field {name!r}")
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def to_dict(self) -> dict:
        """Fields by name, with records, tuples, lists and dicts within them
        converted recursively, as ``asdict`` converts a dataclass."""
        return _plain(self)

    def to_json(self) -> str:
        """``to_dict`` as JSON, keys sorted."""
        import json

        return json.dumps(self.to_dict(), sort_keys=True)


def _plain(value):
    if isinstance(value, Record):
        return {name: _plain(getattr(value, name)) for name in value.__slots__}
    if isinstance(value, (tuple, list)):
        return type(value)(_plain(v) for v in value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _count(value, name: str) -> int:
    """``value`` as an int; a non-integral, infinite or nan one is rejected,
    not truncated."""
    try:
        count = int(value)
    except (OverflowError, ValueError):  # inf and nan
        count = None
    if count != value:
        raise ValueError(f"{name} must be an integer, got {value}")
    return count


class DecayLadder(Record):
    """Spectral description of one emission cascade.

    ``rates[j-1]`` is the decay rate of level j to level j-1 and
    ``frequencies[j-1]`` the energy of level j (level 0 is at 0).  Every
    rate must be strictly positive and finite, and every frequency
    finite; this is what guarantees convergence of all exchange integrals
    built from the ladder.
    """

    __slots__ = ("levels", "rates", "frequencies")

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        object.__setattr__(
            self, "frequencies", tuple(float(w) for w in self.frequencies)
        )
        object.__setattr__(self, "levels", _count(self.levels, "the number of levels"))
        if self.levels < 1:
            raise ValueError(f"ladder needs at least one level, got {self.levels}")
        if len(self.rates) != self.levels:
            raise ValueError(
                f"expected {self.levels} rates, got {len(self.rates)}"
            )
        if len(self.frequencies) != self.levels:
            raise ValueError(
                f"expected {self.levels} frequencies, got {len(self.frequencies)}"
            )
        for j, (rate, freq) in enumerate(zip(self.rates, self.frequencies), start=1):
            if not 0.0 < rate < math.inf:
                raise ValueError(f"rate of level {j} must be positive and finite, got {rate}")
            if not math.isfinite(freq):
                raise ValueError(f"frequency of level {j} must be finite, got {freq}")


class TwinConfiguration(Record):
    """Pair of input-arm wavepackets entering the interferometer together.

    The two wavefronts arrive at once; a delayed pair is the oracle's
    ``delay`` and the error budget's ``arrival_delay`` entry.
    """

    __slots__ = ("ladder_a", "ladder_b")

    def __post_init__(self):
        if self.ladder_a.levels != self.ladder_b.levels:
            raise ValueError(
                "twin configuration requires equal photon numbers per arm; "
                f"got {self.ladder_a.levels} and {self.ladder_b.levels}"
            )

    @property
    def total_photons(self) -> int:
        return self.ladder_a.levels + self.ladder_b.levels


def _dicke_rates(n_emitters: int, gamma_1d: float):
    """Collective rate k(N-k+1) gamma_1d of each rung, k = 1..N, the one
    source of Dicke rates; the count k(N-k+1) is an exact integer, so each
    rate rounds once.  N below one and a gamma_1d that is not positive
    (nan included) are rejected here, before any rate."""
    if n_emitters < 1:
        raise ValueError(f"need at least one emitter, got {n_emitters}")
    if not gamma_1d > 0.0:
        raise ValueError(f"gamma_1d must be positive, got {gamma_1d}")
    return (k * (n_emitters - k + 1) * gamma_1d for k in range(1, n_emitters + 1))


def build_dicke(n_emitters: int, gamma_1d: float) -> DecayLadder:
    """Ladder of N fully excited emitters decaying through a common mode.

    The rate of the m-th rung is m(N-m+1) times the single-emitter rate,
    peaking at mid-ladder (superradiant burst).  Levels are equispaced,
    so all frequencies vanish in the rotating frame.
    """
    n = _count(n_emitters, "n_emitters")
    rates = tuple(_dicke_rates(n, gamma_1d))
    return DecayLadder(levels=n, rates=rates, frequencies=(0.0,) * n)


def build_anharmonic(n_photons: int, gamma_1: float, u: float) -> DecayLadder:
    """Kerr-type cavity ladder: linear decay, quadratic level shift.

    Level n decays at n*gamma_1 and sits at n(n-1)*u, which makes the
    emitted photons spectrally distinguishable once u exceeds the
    linewidth.
    """
    n = _count(n_photons, "n_photons")
    if n < 1:
        raise ValueError(f"need at least one photon, got {n_photons}")
    if not gamma_1 > 0.0:
        raise ValueError(f"gamma_1 must be positive, got {gamma_1}")
    rates = tuple(k * gamma_1 for k in range(1, n + 1))
    freqs = tuple(k * (k - 1) * u for k in range(1, n + 1))
    return DecayLadder(levels=n, rates=rates, frequencies=freqs)


def build_harmonic(n_photons: int, gamma_1: float) -> DecayLadder:
    """Linear cavity ladder (anharmonic ladder with zero level shift).

    Serves as the single-mode reference: its exchange integral is exactly
    one, reproducing the benchmark phase sensitivity of photon-number
    states.
    """
    return build_anharmonic(n_photons, gamma_1, 0.0)
