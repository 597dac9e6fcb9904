"""Scenario configs for sweeps and the frozen figure-reproduction presets.

A scenario bundles a state family, a detector configuration, an index-set
selection, a sweep grid over the total input intensity |alpha|^2, and the
output destination.  JSON scenario files are parsed strictly: unknown keys
anywhere are rejected so typos in physics parameters cannot pass silently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .detectors import PNR, DetectorConfig, check_range, fits_range
from .multimode import MultiIndex, check_mode_count
from .numerics import HalfInt
from .states import CoherentStack, FockVector, NOExpr, StateSpec, cat_stack
from .witnesses import (
    MAX_LEVELS,
    IndexSet,
    check_admissible,
    check_levels,
    check_pnr_dimension,
    entry_quantity,
    enumerate_index_sets,
)

MATRIX_CRITERIA = ("min_eig",)
RATIO_CRITERIA = ("moment_ratio", "mean_photon_number")

SET_PRESETS = ("integer", "half", "all")

# Grid points of one sweep: the kernels hold every point in memory at once.
MAX_POINTS = 10_000

# Index sets of one scenario, as many as the largest preset selects: each
# set's matrices hold every grid point at once.
MAX_SETS = 2 ** MAX_LEVELS


@dataclass(frozen=True)
class StateInput:
    """State family under test; cat parity "both" sweeps even and odd."""

    kind: str
    parity: str | None = None
    modes: int = 1
    coefficients: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("coherent", "cat", "fock"):
            raise ValueError(f"unknown state kind {self.kind!r}")
        if self.kind == "cat" and self.parity not in ("even", "odd", "both"):
            raise ValueError("cat states need parity 'even', 'odd', or 'both'")
        if self.kind != "cat" and self.parity is not None:
            raise ValueError(f"{self.kind} states take no parity")
        if self.kind == "fock" and not self.coefficients:
            raise ValueError("fock states need coefficients")
        if self.kind != "fock" and self.coefficients is not None:
            raise ValueError(f"{self.kind} states take no coefficients")
        if self.modes < 1:
            raise ValueError("modes must be >= 1")

    def build(self, alpha2: float, modes: int | None = None) -> list[tuple[str, StateSpec]]:
        """States at total input intensity |alpha|^2, split equally over modes.

        These are the one-point :meth:`stack`, one state per label.
        """
        labels, states = self.stack((alpha2,), modes)
        if self.kind == "fock":
            return [(labels[0], states)]
        return [(label, states.superposition((k, 0))) for k, label in enumerate(labels)]

    def stack(self, grid, modes: int | None = None) -> tuple[tuple[str, ...], object]:
        """The state labels and the states of every grid point, as (labels, states).

        Coherent and cat inputs give one :class:`~.states.CoherentStack`
        whose (L, G, C) weights hold one label each, with the amplitude
        sqrt(|alpha|^2 / modes) in every mode; cats of both parities come
        from one :func:`~.states.cat_stack`, the builder behind
        :func:`~.states.make_cat`.  The stack is checked for normalization
        once.  A Fock input is the same state at every point, so it is
        returned once, unstacked.
        """
        modes = modes or self.modes
        if self.kind == "fock":
            return ("fock",), FockVector(self.coefficients)
        amps = np.array([math.sqrt(alpha2 / modes) for alpha2 in grid], dtype=complex)
        amplitudes = np.repeat(amps[:, None], modes, axis=1)
        if self.kind == "coherent":
            labels = ("coherent",)
            stack = CoherentStack(np.ones((1, len(grid), 1), dtype=complex), amplitudes[:, None])
        else:
            parities = ("even", "odd") if self.parity == "both" else (self.parity,)
            labels = tuple(f"cat_{parity}" for parity in parities)
            stack = cat_stack(amplitudes, parities)
        stack.check_normalized(grid)
        return labels, stack


@dataclass(frozen=True)
class SweepSpec:
    """Grid over the sweep variable (the total input intensity |alpha|^2)."""

    start: float
    stop: float
    points: int
    scale: str = "log"
    variable: str = "alpha2"

    def __post_init__(self):
        if not 1 <= self.points <= MAX_POINTS:
            raise ValueError(f"points must lie in 1..MAX_POINTS = {MAX_POINTS}, "
                             f"got {self.points}")
        for name in ("start", "stop"):
            self.check_intensity(getattr(self, name), name)
        if self.scale not in ("log", "linear"):
            raise ValueError("scale must be 'log' or 'linear'")
        if self.scale == "log" and (self.start <= 0 or self.stop <= 0):
            raise ValueError("log grids need positive endpoints")
        if self.variable != "alpha2":
            raise ValueError("only the 'alpha2' sweep variable is supported")

    @staticmethod
    def check_intensity(value: float, name: str) -> None:
        """Reject a |alpha|^2 ``value`` that is not finite or is below 0, naming it ``name``."""
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} = {value} is out of range: "
                             "|alpha|^2 must be finite and >= 0")

    def grid(self) -> tuple[float, ...]:
        if self.points == 1:
            return (float(self.start),)
        if self.scale == "log":
            values = np.logspace(
                math.log10(self.start), math.log10(self.stop), self.points
            )
        else:
            values = np.linspace(self.start, self.stop, self.points)
        return tuple(float(v) for v in values)


@dataclass(frozen=True)
class OutputSpec:
    path: str = "results"
    format: str = "csv"

    def __post_init__(self):
        if self.format not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")


@dataclass(frozen=True)
class Scenario:
    """A named, fully determined computation producing one file per
    (index set x criterion)."""

    name: str
    state: StateInput
    sweep: SweepSpec
    output: OutputSpec = field(default_factory=OutputSpec)
    detector: DetectorConfig | None = None
    sets: object = "all"          # preset name or tuple of (label, elements)
    kinds: tuple[str, ...] = ("counts",)
    criteria: tuple[str, ...] = MATRIX_CRITERIA
    mode_counts: tuple[int, ...] = ()
    cases: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("kinds", "mode_counts", "cases"):
            values = tuple(getattr(self, name))
            if any(value in values[:i] for i, value in enumerate(values)):
                raise ValueError(f"{name} has duplicate entries: {list(values)}")
        if any(modes < 1 for modes in self.mode_counts):
            raise ValueError(f"mode_counts must be >= 1, got {list(self.mode_counts)}")
        if tuple(self.criteria) == MATRIX_CRITERIA:
            if self.detector is None:
                raise ValueError("matrix scenarios need a detector config")
            if self.state.modes != 1:
                raise ValueError(
                    f"detector models address a single mode, got modes={self.state.modes}")
            if isinstance(self.sets, str) and self.sets not in SET_PRESETS:
                raise ValueError(f"unknown set preset {self.sets!r}")
            for kind in self.kinds:
                if kind not in ("counts", "moments"):
                    raise ValueError(f"unknown matrix kind {kind!r}")
        elif tuple(self.criteria) == RATIO_CRITERIA:
            if not self.mode_counts or not self.cases:
                raise ValueError("ratio scenarios need mode_counts and cases")
            for case in self.cases:
                if case not in ("i", "ii", "iii", "iv"):
                    raise ValueError(f"unknown ratio case {case!r}")
        else:
            raise ValueError(f"unsupported criteria {self.criteria!r}")


# --------------------------------------------------------------------------
# admission


def _resolve_sets(scenario: Scenario) -> list[IndexSet]:
    cfg = scenario.detector
    if not isinstance(scenario.sets, str):
        if len(scenario.sets) > MAX_SETS:
            raise ValueError(f"a scenario selects at most MAX_SETS = {MAX_SETS} index sets, "
                             f"got {len(scenario.sets)}")
        return [IndexSet(tuple(elements), label) for label, elements in scenario.sets]
    if cfg.model == PNR:
        check_levels(cfg)
        if scenario.sets != "all":
            raise ValueError("the multinomial model needs sets='all' or explicit sets")
        check_pnr_dimension(cfg)
    return [s for s in enumerate_index_sets(cfg)
            if s.elements and scenario.sets in ("all", s.label)]


def case_indices(case: str, modes: int) -> tuple[MultiIndex, MultiIndex]:
    """Canonical exponent pair realizing a class/parity case in ``modes`` modes."""
    zeros = [0] * (modes - 1)
    table = {
        "i": ([0] + zeros, [2] + zeros),
        "ii": ([0] + zeros, [1] + zeros),
        "iii": (["1/2"] + zeros, ["3/2"] + zeros),
        "iv": (["1/2"] + zeros, ["5/2"] + zeros),
    }
    n_raw, m_raw = table[case]
    return MultiIndex.of(n_raw), MultiIndex.of(m_raw)


def admit(scenario: Scenario) -> list[IndexSet]:
    """The index sets of ``scenario`` ([] for ratios), once every cap admits it.

    Each cap is checked by the function that holds it.  A Fock state has
    one mode, so its ratio scenarios take mode count 1 only.  The float
    range of the entries, or of the ratios' moments, is bounded by
    :func:`~.detectors.fits_range` at the grid's largest |alpha|^2; where
    that cannot decide, :func:`~.detectors.check_range` checks every entry
    at every grid point.
    """
    grid, state = scenario.sweep.grid(), scenario.state
    top = len(state.coefficients) - 1 if state.kind == "fock" else max(grid)
    if tuple(scenario.criteria) != MATRIX_CRITERIA:
        for modes in scenario.mode_counts:
            check_mode_count(modes)
            if state.kind == "fock" and modes > 1:
                raise ValueError(f"fock states have one mode, got mode count {modes}")
        # A case (n, m) squares a moment of order |n+m| and multiplies two of
        # orders 2|n| and 2|m|: all stay floats where the ideal moment of
        # order 2|n+m| does, in the first mode of each mode count.
        pairs = (case_indices(case, 1) for case in scenario.cases)
        order = max((n + m).total().twice for n, m in pairs)
        ideal = DetectorConfig.photoelectric()
        if not fits_range(ideal, order, top):
            moment = NOExpr.monomial(1.0, order, 0.0, 1.0)
            for modes in scenario.mode_counts:
                check_range(state.stack(grid, modes)[1], ideal, [moment])
        return []
    cfg = scenario.detector
    isets = _resolve_sets(scenario)
    if not isets:
        raise ValueError(f"no index sets selected by {scenario.sets!r}")
    for iset in isets:
        for kind in scenario.kinds:
            check_admissible(iset, cfg, kind)
    order = cfg.bins or max(e.twice for iset in isets for e in iset.elements)
    if not fits_range(cfg, order, top):
        quantities = list(dict.fromkeys(
            entry_quantity(cfg, kind, a, b) for iset in isets for kind in scenario.kinds
            for i, a in enumerate(iset.elements) for b in iset.elements[i:]))
        check_range(state.stack(grid)[1], cfg, quantities)
    return isets


# --------------------------------------------------------------------------
# strict JSON parsing


def _take(raw, context: str, known: dict) -> dict:
    """The converted ``known`` fields of ``raw``; ValueError names a bad field."""
    if not isinstance(raw, dict):
        raise ValueError(f"{context} must be a JSON object, got {json.dumps(raw)}")
    unknown = set(raw) - set(known)
    if unknown:
        raise ValueError(f"unknown {context} fields: {sorted(unknown)}")
    out = {}
    for key, convert in known.items():
        if key in raw and raw[key] is not None:
            try:
                out[key] = convert(raw[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{context} field {key!r}: {exc}") from None
    return out


def _construct(cls, context: str, kwargs: dict):
    try:
        return cls(**kwargs)
    except TypeError as exc:  # a required field is missing
        raise ValueError(f"{context}: {exc}") from None


def _as_tuple(values):
    if not isinstance(values, list):
        raise ValueError(f"expected a JSON list, got {json.dumps(values)}")
    return tuple(values)


def _strict(*types):
    """A converter that takes only JSON values of ``types`` (true is no number)."""
    def convert(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"expected {types[-1].__name__}, got {json.dumps(value)}")
        return types[-1](value)
    return convert


_integer, _number = _strict(int), _strict(int, float)


def _parse_sets(raw):
    if isinstance(raw, str):
        return raw
    parsed = []
    for i, entry in enumerate(_as_tuple(raw)):
        if isinstance(entry, dict):
            unknown = set(entry) - {"label", "elements"}
            if unknown:
                raise ValueError(f"unknown set fields: {sorted(unknown)}")
            if "elements" not in entry:
                raise ValueError(f"set {i} has no 'elements'")
            label = entry.get("label", f"custom{i}")
            elements = entry["elements"]
        else:
            label, elements = f"custom{i}", entry
        parsed.append((str(label), tuple(_element(e) for e in _as_tuple(elements))))
    return tuple(parsed)


def _element(value):
    """A set element, a scalar or a tuple, once each part is a half-integer."""
    parts = tuple(value) if isinstance(value, list) else (value,)
    for part in parts:
        HalfInt.of(part)
    return parts if isinstance(value, list) else value


# The scenario fields that are JSON objects: their types and field converters.
_OBJECTS = {
    "state": (StateInput, {
        "kind": str, "parity": str, "modes": _integer,
        "coefficients": lambda values: tuple(map(_number, _as_tuple(values))),
    }),
    "detector": (DetectorConfig, {
        "model": str, "efficiency": _number, "dark": _number, "bins": _integer, "levels": _integer,
    }),
    "sweep": (SweepSpec, {
        "start": _number, "stop": _number, "points": _integer, "scale": str, "variable": str,
    }),
    "output": (OutputSpec, {"path": str, "format": str}),
}


def scenario_from_json(text: str) -> Scenario:
    """Parse a scenario document, rejecting unknown fields at every level."""
    fields = _take(json.loads(text), "scenario", {
        "name": str,
        "sets": _parse_sets,
        "kinds": _as_tuple,
        "criteria": _as_tuple,
        "mode_counts": lambda values: tuple(map(_integer, _as_tuple(values))),
        "cases": _as_tuple,
        **{key: (lambda value: value) for key in _OBJECTS},  # parsed below
    })
    for key, (cls, known) in _OBJECTS.items():
        if key in fields:
            fields[key] = _construct(cls, key, _take(fields[key], key, known))
    return _construct(Scenario, "scenario", fields)


# --------------------------------------------------------------------------
# figure presets


def presets() -> dict[str, Scenario]:
    """Frozen scenarios for the cat-state case-study figures."""
    cat_both = StateInput("cat", parity="both")
    grid = SweepSpec(start=1e-2, stop=1e1, points=200)
    return {
        # Photocount and photon-moment 2x2 determinants, sets {1,2} and
        # {1/2,3/2}, at 50% detection loss.
        "fig1": Scenario(
            name="fig1",
            state=cat_both,
            detector=DetectorConfig.photoelectric(efficiency=0.5),
            sets=(("integer", (1, 2)), ("half", ("1/2", "3/2"))),
            kinds=("counts", "moments"),
            sweep=grid,
        ),
        # Click-counting matrices for N = 5 on-off bins at 50% efficiency.
        "fig3": Scenario(
            name="fig3",
            state=cat_both,
            detector=DetectorConfig.onoff(bins=5, efficiency=0.5),
            sets="all",
            kinds=("counts",),
            sweep=grid,
        ),
        # Same detection settings, click-moment matrices.
        "fig4": Scenario(
            name="fig4",
            state=cat_both,
            detector=DetectorConfig.onoff(bins=5, efficiency=0.5),
            sets="all",
            kinds=("moments",),
            sweep=grid,
        ),
        # Multinomial counting matrices, N = 4 bins resolving 0/1/2+ photons,
        # all four admissible class patterns, 50% efficiency.
        "fig5": Scenario(
            name="fig5",
            state=cat_both,
            detector=DetectorConfig.pnr(bins=4, levels=2, efficiency=0.5),
            sets="all",
            kinds=("counts",),
            sweep=grid,
        ),
        # Multimode moment-ratio criteria, cases (ii) and (iii), for
        # mu in {1, 2, 3, 5} modes; ratios are efficiency-invariant, so the
        # ideal response is used and the mean photon number is emitted
        # alongside for the x axis.
        "fig6": Scenario(
            name="fig6",
            state=cat_both,
            sweep=SweepSpec(start=1e-2, stop=20.0, points=200),
            criteria=RATIO_CRITERIA,
            mode_counts=(1, 2, 3, 5),
            cases=("ii", "iii"),
        ),
    }
