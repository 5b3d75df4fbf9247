"""Scenario configuration: flat `key = value` files with dotted sections.

Sections: scale.* (background), phys.* (m, c), nonlin.* (family and
exponents), grid.* (dimension, resolution, half width), data0.*/data1.*
(initial profiles for the field and its velocity), run.* (time stepping and
reporting). `#` starts a comment, blank lines are ignored, keys may appear
once. All physical quantities are dimensionless model units.

Parsing is strict: unknown keys raise UnknownKey, malformed lines raise
ParseError with the line number, and values that break a module's invariants
raise InvariantViolation naming that module. Every key set must be read by
the scenario it builds: a key its families or profile kinds never read (say
scale.sigma under desitter, or data0.width on a homogeneous profile) raises
InvariantViolation naming config.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import RunConfig
from .errors import (InvariantViolation, ParseError, UnknownKey,
                     WidthTooLarge, WidthTooSmall)
from .field import (Field, Grid, check_profile, make_profile,
                    support_radius)
from .functionals import PhysicalParams
from .nonlinearity import (GaugeInvariantPower, Nonlinearity, RealAbsPower,
                           sobolev_admissible)
from .scale_factor import DeSitter, PowerLaw, ScaleFactor, Tabulated

_SCALE_FAMILIES = ("powerlaw", "desitter", "tabulated")
_NONLIN_FAMILIES = ("gauge", "real", "none")
_PROFILE_KINDS = ("homogeneous", "gaussian", "bump", "plane_mod")

_FLOAT = "float"
_COMPLEX = "complex"
_INT = "int"
_STR = "str"

_KEYS = {
    "scale.family": _STR,
    "scale.a0": _FLOAT,
    "scale.H": _FLOAT,
    "scale.sigma": _FLOAT,
    "scale.table_path": _STR,
    "phys.m": _FLOAT,
    "phys.c": _FLOAT,
    "nonlin.family": _STR,
    "nonlin.p": _FLOAT,
    "nonlin.lambda": _FLOAT,
    "nonlin.sign": _INT,
    "nonlin.eps": _FLOAT,
    "grid.n": _INT,
    "grid.N": _INT,
    "grid.half_width": _FLOAT,
    "data0.kind": _STR,
    "data0.amplitude": _COMPLEX,
    "data0.width": _FLOAT,
    "data0.center": _FLOAT,
    "data1.kind": _STR,
    "data1.amplitude": _COMPLEX,
    "data1.width": _FLOAT,
    "data1.center": _FLOAT,
    "run.t0": _FLOAT,
    "run.t_end": _FLOAT,
    "run.dt": _FLOAT,
    "run.dt_min": _FLOAT,
    "run.record_every": _INT,
    "run.blowup_threshold": _FLOAT,
    "run.cfl": _FLOAT,
    "run.growth_tol": _FLOAT,
    "run.theorem_mode": _STR,
}

_REQUIRED = (
    "scale.family", "phys.m", "phys.c", "nonlin.family",
    "grid.n", "grid.N", "grid.half_width",
    "data0.kind", "data0.amplitude",
    "run.t_end", "run.dt",
)


@dataclass(frozen=True)
class ProfileSpec:
    """One initial-data profile, buildable on any matching grid."""

    kind: str
    amplitude: complex
    width: float | None = None
    center: float | None = None

    def build(self, grid: Grid) -> Field:
        return make_profile(grid, self.kind, self.amplitude,
                            width=self.width, center=self.center)

    def support_radius(self) -> float | None:
        return support_radius(self.kind, self.width, self.center)


@dataclass(frozen=True)
class Scenario:
    """Fully validated run description; every module invariant checked."""

    name: str
    sf: ScaleFactor
    params: PhysicalParams
    nl: Nonlinearity | None
    grid: Grid
    data0: ProfileSpec
    data1: ProfileSpec
    run: RunConfig
    config_hash: str

    @cached_property
    def _fields(self) -> tuple[Field, Field]:
        return self.data0.build(self.grid), self.data1.build(self.grid)

    def build_fields(self) -> tuple[Field, Field]:
        """The initial fields (u0, u1), built on the first call and handed
        out again after it; callers must not write into them (`run` steps
        copies)."""
        return self._fields

    def wrap_support_radius(self) -> float | None:
        """Outermost nominal support over both data profiles; None when
        everything is delocalized and the wrap guard has nothing to track."""
        radii = [r for r in (self.data0.support_radius(),
                             self.data1.support_radius()) if r is not None]
        return max(radii) if radii else None


def _convert(key: str, raw: str, lineno: int):
    typ = _KEYS[key]
    try:
        if typ == _INT:
            return int(raw, 10)
        if typ == _FLOAT:
            val = float(raw)
        elif typ == _COMPLEX:
            try:
                val = float(raw)
            except ValueError:
                val = complex(raw.replace(" ", ""))
        else:
            return raw
    except ValueError:
        raise ParseError(f"cannot parse value {raw!r} for {key}",
                         line=lineno) from None
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise ParseError(f"non-finite value for {key}", line=lineno)
    return val


class _Section(dict):
    """Parsed config values by key, with required-key handling; `read`
    holds the keys the build asked for through get, require and given."""

    def __init__(self):
        super().__init__()
        self.read: set[str] = set()

    def get(self, key: str, default=None):
        self.read.add(key)
        return super().get(key, default)

    def require(self, key: str):
        if key not in self:
            raise ParseError(f"missing required key {key!r}")
        return self.get(key)

    def given(self, **keys: str) -> dict:
        """{argument: value} of the keys set; the rest keep class defaults."""
        return {arg: self.get(key) for arg, key in keys.items() if key in self}

    def check_all_read(self) -> None:
        unread = sorted(self.keys() - self.read)
        if unread:
            raise InvariantViolation(
                "config", f"this scenario never reads {', '.join(unread)}")


def _parse_entries(text: str) -> _Section:
    entries = _Section()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected `key = value`", line=lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ParseError("empty key or value", line=lineno)
        if key not in _KEYS:
            raise UnknownKey(f"unknown key {key!r}", line=lineno)
        if key in entries:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        entries[key] = _convert(key, val, lineno)
    return entries


def _config_hash(entries: dict) -> str:
    canon = "\n".join(f"{k}={entries[k]!r}" for k in sorted(entries))
    return hashlib.sha256(canon.encode()).hexdigest()


def _build_scale(sec: _Section, n: int, base_dir: str) -> ScaleFactor:
    family = sec.require("scale.family")
    if family not in _SCALE_FAMILIES:
        raise InvariantViolation(
            "scale_factor", f"unknown scale family {family!r}")
    try:
        if family == "powerlaw":
            return PowerLaw(H=sec.get("scale.H", 0.0),
                            sigma=sec.get("scale.sigma", 0.0), n=n,
                            **sec.given(a0="scale.a0"))
        if family == "desitter":
            return DeSitter(H=sec.get("scale.H", 0.0), n=n,
                            **sec.given(a0="scale.a0"))
        path = sec.require("scale.table_path")
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            table = np.loadtxt(path, ndmin=2)
        except ValueError:
            table = np.loadtxt(path, delimiter=",", ndmin=2)
        if table.shape[1] == 4:
            cols = table[:, 0], table[:, 1], table[:, 2], table[:, 3]
        elif table.shape[1] == 2:
            t_knots, a_knots = table[:, 0], table[:, 1]
            adot = np.gradient(a_knots, t_knots)
            addot = np.gradient(adot, t_knots)
            cols = t_knots, a_knots, adot, addot
        else:
            raise InvariantViolation(
                "scale_factor",
                f"table {path} needs columns (t, a) or (t, a, adot, addot)")
        return Tabulated(*cols, n=n)
    except ValueError as exc:
        raise InvariantViolation("scale_factor", str(exc)) from exc
    except OSError as exc:
        raise ParseError(f"cannot read scale table: {exc}") from exc


def _build_nonlinearity(sec: _Section, n: int) -> tuple[Nonlinearity | None, float]:
    family = sec.require("nonlin.family")
    if family not in _NONLIN_FAMILIES:
        raise InvariantViolation(
            "nonlinearity", f"unknown nonlinearity family {family!r}")
    if family == "none":
        return None, sec.get("nonlin.eps", 1.0)
    p = sec.require("nonlin.p")
    if not sobolev_admissible(p, n):
        raise InvariantViolation(
            "nonlinearity",
            f"exponent p = {p} outside the admissible window in {n}d")
    try:
        if family == "gauge":
            nl = GaugeInvariantPower(p=p, **sec.given(lam="nonlin.lambda",
                                                      eps="nonlin.eps"))
        else:
            nl = RealAbsPower(p=p, **sec.given(sign="nonlin.sign",
                                               eps="nonlin.eps"))
    except ValueError as exc:
        raise InvariantViolation("nonlinearity", str(exc)) from exc
    return nl, nl.eps


def _build_profile(sec: _Section, prefix: str, grid: Grid,
                   default_amplitude: complex | None = None) -> ProfileSpec:
    kind = sec.get(f"{prefix}.kind")
    if kind is None:
        if default_amplitude is None:
            raise ParseError(f"missing required key '{prefix}.kind'")
        kind = "homogeneous"
        amp = default_amplitude
    else:
        amp = sec.require(f"{prefix}.amplitude")
    if kind not in _PROFILE_KINDS:
        raise InvariantViolation("field", f"unknown profile kind {kind!r}")
    shape = {} if kind == "homogeneous" else sec.given(
        width=f"{prefix}.width", center=f"{prefix}.center")
    spec = ProfileSpec(kind=kind, amplitude=complex(amp), **shape)
    try:  # surfaces width guards at load time; fields are built on demand
        check_profile(grid, spec.kind, spec.width, spec.center)
    except (ValueError, WidthTooLarge, WidthTooSmall) as exc:
        raise InvariantViolation("field", str(exc)) from exc
    return spec


def parse_text(text: str, name: str = "<string>",
               base_dir: str = ".") -> Scenario:
    sec = _parse_entries(text)
    for key in _REQUIRED:
        sec.require(key)

    try:
        grid = Grid(n=sec.require("grid.n"),
                    points_per_axis=sec.require("grid.N"),
                    half_width=sec.require("grid.half_width"))
    except ValueError as exc:
        raise InvariantViolation("field", str(exc)) from exc

    sf = _build_scale(sec, grid.n, base_dir)
    nl, eps = _build_nonlinearity(sec, grid.n)
    try:
        params = PhysicalParams(m=sec.require("phys.m"),
                                c=sec.require("phys.c"),
                                eps=eps, n=grid.n)
    except ValueError as exc:
        raise InvariantViolation("functionals", str(exc)) from exc

    data0 = _build_profile(sec, "data0", grid)
    data1 = _build_profile(sec, "data1", grid, default_amplitude=0.0 + 0.0j)
    if nl is not None and nl.real_only:
        for label, prof in (("data0", data0), ("data1", data1)):
            if complex(prof.amplitude).imag != 0.0 or prof.kind == "plane_mod":
                raise InvariantViolation(
                    "nonlinearity",
                    f"{label} produces complex data but the real-only "
                    "family cannot accept it")

    try:
        run = RunConfig(**sec.given(**{key[4:]: key for key in _KEYS
                                       if key.startswith("run.")}))
    except ValueError as exc:
        raise InvariantViolation("dynamics", str(exc)) from exc
    sec.check_all_read()

    return Scenario(name=name, sf=sf, params=params, nl=nl, grid=grid,
                    data0=data0, data1=data1, run=run,
                    config_hash=_config_hash(sec))


def parse_config(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}") from exc
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_text(text, name=name, base_dir=os.path.dirname(path) or ".")
