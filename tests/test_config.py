"""Config parsing: strictness, invariant routing, hashing, bundled suite."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kgflrw import (GaugeInvariantPower, PowerLaw, RealAbsPower, RunConfig,
                    Tabulated, bundled_scenario_names, bundled_scenario_text,
                    load_bundled_scenario, parse_config, parse_text)
from kgflrw import config
from kgflrw.cli import _SWEEP_KEYS
from kgflrw.errors import (InvariantViolation, KGFLRWError, ParseError,
                           UnknownKey)
from oracles import override_text

MINIMAL = """
scale.family = powerlaw
scale.H = 0
phys.m = 0
phys.c = 1
nonlin.family = gauge
nonlin.p = 2
grid.n = 1
grid.N = 16
grid.half_width = 3.141592653589793
data0.kind = homogeneous
data0.amplitude = 3
run.t_end = 1.0
run.dt = 1e-3
"""


def test_minimal_minkowski_valid():
    scn = parse_text(MINIMAL)
    assert isinstance(scn.sf, PowerLaw)
    assert scn.sf.H == 0.0
    assert scn.params.m == 0.0 and scn.params.c == 1.0
    assert scn.nl is not None and scn.nl.p == 2.0
    assert scn.params.eps == 1.0  # defaults to p - 1
    assert scn.grid.points_per_axis == 16
    assert scn.run.t_end == 1.0 and scn.run.t0 == 0.0
    assert scn.run.record_every == 10  # default
    assert len(scn.config_hash) == 64
    u0, u1 = scn.build_fields()
    assert np.all(u0.values == 3.0)
    assert np.all(u1.values == 0.0)  # data1 defaults to rest
    assert scn.wrap_support_radius() is None


def test_eps_above_admissible_is_invariant_violation():
    text = MINIMAL + "nonlin.eps = 2\n"
    with pytest.raises(InvariantViolation) as exc:
        parse_text(text)
    assert exc.value.module == "nonlinearity"


def test_missing_grid_key_is_parse_error():
    text = MINIMAL.replace("grid.N = 16\n", "")
    with pytest.raises(ParseError) as exc:
        parse_text(text)
    assert "grid.N" in str(exc.value)


def test_unknown_key_with_line_number():
    # run.seed was accepted once but never read
    for key in ("grid.M", "run.seed"):
        text = MINIMAL + f"{key} = 12\n"
        with pytest.raises(UnknownKey) as exc:
            parse_text(text)
        assert exc.value.line is not None
        assert key in str(exc.value)
        assert isinstance(exc.value, ParseError)


def test_duplicate_key_rejected():
    text = MINIMAL + "grid.N = 32\n"
    with pytest.raises(ParseError) as exc:
        parse_text(text)
    assert "duplicate" in str(exc.value)


def test_malformed_lines():
    with pytest.raises(ParseError):
        parse_text(MINIMAL + "grid.N 32\n")
    with pytest.raises(ParseError):
        parse_text(MINIMAL.replace("grid.N = 16", "grid.N = sixteen"))
    with pytest.raises(ParseError):
        parse_text(MINIMAL.replace("run.dt = 1e-3", "run.dt = nan"))


def test_hash_ignores_comments_and_order():
    a = parse_text(MINIMAL)
    shuffled = "\n".join(reversed([ln for ln in MINIMAL.strip().splitlines()]))
    b = parse_text("# a comment\n" + shuffled + "\n# trailing\n")
    assert a.config_hash == b.config_hash
    c = parse_text(MINIMAL.replace("data0.amplitude = 3",
                                   "data0.amplitude = 4"))
    assert c.config_hash != a.config_hash


def test_complex_amplitude_roundtrip():
    text = MINIMAL.replace("data0.amplitude = 3", "data0.amplitude = 1+2j")
    scn = parse_text(text)
    u0, _ = scn.build_fields()
    assert u0.values.flat[0] == 1.0 + 2.0j


def test_real_family_rejects_complex_data():
    text = MINIMAL.replace("nonlin.family = gauge", "nonlin.family = real")
    text = text.replace("data0.amplitude = 3", "data0.amplitude = 1+2j")
    with pytest.raises(InvariantViolation):
        parse_text(text)
    wave = MINIMAL.replace("nonlin.family = gauge", "nonlin.family = real")
    wave = wave.replace("data0.kind = homogeneous", "data0.kind = plane_mod")
    with pytest.raises(InvariantViolation):
        parse_text(wave)


def test_unset_keys_take_the_class_defaults():
    """What a config leaves out takes the default of the class it builds;
    setting those defaults explicitly builds the same objects and changes
    only the hash, which reads the entries the file sets."""
    scn = parse_text(MINIMAL)
    assert scn.run == RunConfig(t_end=1.0, dt=1e-3)
    assert scn.sf == PowerLaw(sigma=0.0, H=0.0, n=1)
    assert scn.nl == GaugeInvariantPower(p=2.0)
    real = MINIMAL.replace("nonlin.family = gauge", "nonlin.family = real")
    assert parse_text(real).nl == RealAbsPower(p=2.0)
    defaults = ("scale.a0 = 1.0\nnonlin.lambda = 1.0\nrun.t0 = 0.0\n"
                "run.dt_min = 1e-9\nrun.record_every = 10\n"
                "run.blowup_threshold = 1e12\nrun.cfl = 0.4\n"
                "run.growth_tol = 0.05\nrun.theorem_mode = auto\n")
    explicit = parse_text(MINIMAL + defaults)
    assert (explicit.sf, explicit.nl, explicit.run) == (scn.sf, scn.nl, scn.run)
    assert explicit.config_hash != scn.config_hash
    signed = parse_text(real + "nonlin.sign = 1\n")
    assert signed.nl == parse_text(real).nl

def test_nonlin_none_family():
    text = MINIMAL.replace("nonlin.family = gauge", "nonlin.family = none")
    text = text.replace("nonlin.p = 2\n", "")
    scn = parse_text(text)
    assert scn.nl is None
    assert scn.params.eps == 1.0
    # p is meaningless without a source term
    with pytest.raises(InvariantViolation):
        parse_text(MINIMAL.replace("nonlin.family = gauge",
                                   "nonlin.family = none"))


TABLE = "scale.family = tabulated\nscale.table_path = bg.txt"
DESITTER = "scale.family = desitter\nscale.H = 0"


@pytest.mark.parametrize("family,nonlin,extra", [
    (None, None, "data1.amplitude = 1"),
    (DESITTER, None, "scale.sigma = 0"),
    (TABLE, None, "scale.a0 = 1"),
    (TABLE, None, "scale.H = 0.5"),
    (TABLE, None, "scale.sigma = 0"),
    (None, None, "scale.table_path = bg.txt"),
    (DESITTER, None, "scale.table_path = bg.txt"),
    (None, None, "nonlin.sign = 1"),
    (None, "real", "nonlin.lambda = 1"),
    (None, "none", "nonlin.sign = 1"),
    (None, "none", "nonlin.lambda = 1"),
    (None, None, "data0.width = 1"),
    (None, None, "data0.center = 0.5"),
    (None, None, "data1.kind = homogeneous\ndata1.amplitude = 0\n"
                 "data1.width = 1"),
], ids=["data1.amplitude-without-kind", "sigma-desitter", "a0-tabulated",
        "H-tabulated", "sigma-tabulated", "table_path-powerlaw",
        "table_path-desitter", "sign-gauge", "lambda-real", "sign-none",
        "lambda-none", "width-homogeneous", "center-homogeneous",
        "data1-width-homogeneous"])
def test_unread_key_is_a_config_error(tmp_path, family, nonlin, extra):
    """A key the scenario's families or profile kinds never read is refused,
    not hashed and ignored; the same config without it parses."""
    np.savetxt(tmp_path / "bg.txt", np.column_stack(
        [np.linspace(0.0, 2.0, 9), np.ones(9)]))
    text = MINIMAL
    if family is not None:
        text = text.replace("scale.family = powerlaw\nscale.H = 0", family)
    if nonlin is not None:
        text = text.replace("nonlin.family = gauge",
                            f"nonlin.family = {nonlin}")
        if nonlin == "none":
            text = text.replace("nonlin.p = 2\n", "")
    base_dir = str(tmp_path)
    parse_text(text, base_dir=base_dir)
    with pytest.raises(InvariantViolation) as exc:
        parse_text(text + extra + "\n", base_dir=base_dir)
    assert exc.value.module == "config"
    unread = extra.splitlines()[-1].split(" = ")[0]
    assert str(exc.value) == f"config: this scenario never reads {unread}"


def test_sobolev_window_enforced():
    text = MINIMAL.replace("grid.n = 1", "grid.n = 3")
    text = text.replace("nonlin.p = 2", "nonlin.p = 4")
    with pytest.raises(InvariantViolation):
        parse_text(text)
    # p = 2 in n = 3 is inside the window; needs a matching params.n
    ok = MINIMAL.replace("grid.n = 1", "grid.n = 3")
    ok = ok.replace("grid.N = 16", "grid.N = 8")
    assert parse_text(ok).params.n == 3


def test_tabulated_relative_path(tmp_path):
    t = np.linspace(0.0, 2.0, 9)
    a = np.exp(0.5 * t)
    table = np.column_stack([t, a, 0.5 * a, 0.25 * a])
    np.savetxt(tmp_path / "bg.txt", table)
    cfg = MINIMAL.replace("scale.family = powerlaw\nscale.H = 0",
                          "scale.family = tabulated\nscale.table_path = bg.txt")
    path = tmp_path / "scenario.cfg"
    path.write_text(cfg)
    scn = parse_config(str(path))
    assert isinstance(scn.sf, Tabulated)
    assert scn.sf.horizon() == pytest.approx(2.0)
    a_mid, _, _ = scn.sf.eval(1.0)
    assert a_mid == pytest.approx(math.exp(0.5), rel=1e-6)


def test_tabulated_two_column_table(tmp_path):
    t = np.linspace(0.0, 2.0, 41)
    a = np.exp(0.5 * t)
    np.savetxt(tmp_path / "bg2.txt", np.column_stack([t, a]))
    cfg = MINIMAL.replace("scale.family = powerlaw\nscale.H = 0",
                          "scale.family = tabulated\nscale.table_path = bg2.txt")
    path = tmp_path / "scenario.cfg"
    path.write_text(cfg)
    scn = parse_config(str(path))
    _, adot_mid, _ = scn.sf.eval(1.0)
    # derivatives reconstructed from the samples
    assert adot_mid == pytest.approx(0.5 * math.exp(0.5), rel=1e-3)


def test_missing_table_is_parse_error(tmp_path):
    cfg = MINIMAL.replace("scale.family = powerlaw\nscale.H = 0",
                          "scale.family = tabulated\nscale.table_path = gone.txt")
    path = tmp_path / "scenario.cfg"
    path.write_text(cfg)
    with pytest.raises(ParseError):
        parse_config(str(path))


def test_width_guard_surfaces_at_parse_time():
    text = MINIMAL.replace("data0.kind = homogeneous",
                           "data0.kind = gaussian")
    with pytest.raises(InvariantViolation) as exc:
        parse_text(text + "data0.width = 5.0\n")  # exceeds half_width
    assert exc.value.module == "field"


def test_bundled_scenarios_parse():
    names = bundled_scenario_names()
    assert "minkowski-m0-u2-A3" in names
    assert "desitter-thm2" in names
    assert "bigrip-reject" in names
    for name in names:
        scn = load_bundled_scenario(name)
        assert scn.name == name
        assert scn.config_hash
        text = bundled_scenario_text(name)
        assert parse_text(text, name=name).config_hash == scn.config_hash


def test_bad_run_window():
    with pytest.raises(InvariantViolation):
        parse_text(MINIMAL.replace("run.t_end = 1.0", "run.t_end = -1.0"))
    # 1.0 + growth_tol == 1.0 would reject every growing step
    with pytest.raises(InvariantViolation, match="1.0 \\+ growth_tol > 1.0"):
        parse_text(MINIMAL + "run.growth_tol = 5e-324\n")


def numpy_convert(key: str, raw: str, lineno: int):
    """`config._convert` with its earlier numpy finiteness check, the oracle
    of the `math.isfinite` check."""
    typ = config._KEYS[key]
    try:
        if typ == config._INT:
            return int(raw, 10)
        if typ == config._FLOAT:
            val = float(raw)
        elif typ == config._COMPLEX:
            try:
                val = float(raw)
            except ValueError:
                val = complex(raw.replace(" ", ""))
        else:
            return raw
    except ValueError:
        raise ParseError(f"cannot parse value {raw!r} for {key}",
                         line=lineno) from None
    if not np.all(np.isfinite([np.real(val), np.imag(val)])):
        raise ParseError(f"non-finite value for {key}", line=lineno)
    return val


NUMERIC_KEYS = [key for key, typ in config._KEYS.items()
                if typ in (config._FLOAT, config._COMPLEX)]
EDGE_VALUES = ["nan", "inf", "-inf", "1e309", "-1e309", "-0.0", "5e-324",
               "1.7976931348623157e308", "inf+0j", "1+nanj", "0-infj",
               "-0.0-0.0j", "1+2j", "3"]


def _outcome(convert, key: str, raw: str):
    """('accept', type, repr) or ('reject', message, line) of one value;
    repr tells the signs of zeros apart."""
    try:
        val = convert(key, raw, 7)
    except ParseError as exc:
        return "reject", str(exc), exc.line
    return "accept", type(val), repr(val)


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_finiteness_check_matches_the_numpy_check(key, monkeypatch):
    """Every float and complex key accepts and rejects each edge value as
    the numpy check did, with the same value or ParseError message and
    line, also through the line parser."""
    for raw in EDGE_VALUES:
        assert (_outcome(config._convert, key, raw)
                == _outcome(numpy_convert, key, raw)), raw
    text = "# an edge value on line 3\n\n" + key + " = {}\n"

    def parsed(raw):
        try:
            return repr(dict(config._parse_entries(text.format(raw))))
        except ParseError as exc:
            return str(exc), exc.line

    got = [parsed(raw) for raw in EDGE_VALUES]
    assert (f"line 3: non-finite value for {key}", 3) in got
    monkeypatch.setattr(config, "_convert", numpy_convert)
    assert [parsed(raw) for raw in EDGE_VALUES] == got


POINT_FLOATS = st.one_of(st.sampled_from([-0.0, 5e-324, 1e300, 0.1 + 0.2]),
                         st.floats())


def _parsed(text: str, values: dict | None = None):
    """The Scenario parse_text makes of text, or the (type, message) of the
    package error it raises."""
    try:
        return parse_text(text, name="point", values=values)
    except KGFLRWError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(st.sampled_from(_SWEEP_KEYS), min_size=1, max_size=2,
                     unique=True),
       floats=st.lists(POINT_FLOATS, min_size=2, max_size=2),
       absent=st.sampled_from([None, *_SWEEP_KEYS]))
@example(keys=["data0.amplitude"], floats=[0.1 + 0.2, 0.0], absent=None)
@example(keys=["scale.sigma", "nonlin.eps"], floats=[-0.0, 5e-324],
         absent="scale.sigma")
@example(keys=["nonlin.p", "scale.H"], floats=[1e300, math.nan],
         absent="scale.H")
def test_point_values_parse_as_the_text_they_edit(keys, floats, absent):
    """A sweep point's values, set by parse_text on the anchor's entries,
    give the Scenario (config_hash included) of the anchor's text with each
    value written on its key's line (`override_text`), or the same error:
    every sweepable key, edge floats and non-finite ones, and a key that the
    base config lacks, whose value goes past its last line."""
    base = "".join(ln for ln in bundled_scenario_text(
        "minkowski-m0-u2-A3").splitlines(keepends=True)
        if not ln.startswith(f"{absent} ="))
    values = dict(zip(keys, floats))
    text = base
    for key, value in values.items():
        text = override_text(text, key, value)
    got, want = _parsed(base, values), _parsed(text)
    assert got == want
    if isinstance(want, config.Scenario):
        assert got.config_hash == want.config_hash
