"""Model constructors, serialization, and the spectral-model golden
bracket identities."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOOD_MODEL_JSON, MALFORMED_MODELS
from conecert.brackets import BracketParseError, parse_bracket, pretty_field
from conecert.models import (
    BUILTINS,
    ModelError,
    bhw,
    burgers,
    get_builtin,
    index_set,
    langevin,
    load_model,
    model_from_json,
    nonexample3d,
    quartic_double_well,
    save_model,
    shell1_forcing,
)
from conecert.polyfield import (
    PolyVectorField,
    ad_power,
    compile_field,
    lie_bracket,
    relative_degree,
)

F = Fraction


# -- constructors -----------------------------------------------------


def test_langevin_1d_quartic_drift():
    m = get_builtin("langevin")
    assert m.d == 2 and m.r == 1
    # dx = (-x + y - y^3) dt + dW, dy = x dt
    assert repr(m.drift.components[0]) in (
        "1*x1 + -1*x0 + -1*x1^3",
        "-1*x0 + 1*x1 + -1*x1^3",
    )
    assert repr(m.drift.components[1]) == "1*x0"
    assert m.noise == ((F(1), F(0)),)


def test_langevin_rejects_bad_sigma():
    with pytest.raises(ModelError):
        langevin(2, 1, [[1]], None)


def test_quartic_double_well_1d():
    assert quartic_double_well(1) == {(4,): F(1, 4), (2,): F(-1, 2)}


def test_bhw_drift_and_constraints():
    m = bhw(0, 0, 1, 2, 1)
    x, y = np.array([0.5, -1.5]), None
    assert np.allclose(
        compile_field(m.drift)([0.5, -1.5]),
        [-(0.5**2) + 1.5**2, -2 * 0.5 * (-1.5)],
    )
    with pytest.raises(ModelError):
        bhw(0, 0, 2, 1, 1)  # alpha2 <= alpha1
    with pytest.raises(ModelError):
        bhw(0, 0, 1, 2, 0)  # eps = 0


def test_nonexample3d_drift():
    m = nonexample3d()
    assert np.allclose(
        compile_field(m.drift)([1.0, 2.0, 3.0]), [-2.0, 1.0 - 6.0, 4.0 - 3.0]
    )


def test_nonexample3d_hormander_rank_full():
    # the Lie algebra of the fields themselves reaches rank 3 at generic
    # points even though the constant-direction cone stops at rank 2
    m = nonexample3d()
    X1 = m.noise_fields()[0]
    b1 = lie_bracket(X1, m.drift)
    b2 = lie_bracket(b1, m.drift)
    pt = [0.3, 0.7, -0.2]
    A = np.array([compile_field(V)(pt) for V in (X1, b1, b2)]).T
    assert np.linalg.matrix_rank(A, tol=1e-9) == 3


def test_index_set_excludes_origin():
    ks = index_set(2)
    assert (0, 0) not in ks
    assert len(ks) == 24  # 5x5 grid minus origin
    assert len(shell1_forcing(2)) == 8


def test_burgers_dimensions():
    bg = get_builtin("burgers")
    assert bg.d == 96  # 4 reals per mode x 24 modes = 16 N (N+1) at N=2
    assert bg.r == 16  # 8 forced modes x (re, im)
    with pytest.raises(ModelError):
        burgers(1, 1)
    with pytest.raises(ModelError):
        burgers(2, 1, forced_sigma=[(3, 3)])


def test_burgers_quadratic_drift():
    bg = get_builtin("burgers")
    degs = {p.degree() for p in bg.drift.components}
    assert max(d for d in degs if isinstance(d, int)) == 2


def test_burgers_compressible_only_state_stays_compressible():
    # with w = 0 the incompressible drift components vanish: the
    # nonlinearity never regenerates w from q alone
    bg = get_builtin("burgers")
    layout = bg.layout
    rng = np.random.default_rng(3)
    x = np.zeros(bg.d)
    for k in layout.modes:
        x[layout.coord(k, "re_q")] = rng.normal()
        x[layout.coord(k, "im_q")] = rng.normal()
    v = compile_field(bg.drift)(x)
    for k in layout.modes:
        assert v[layout.coord(k, "re_w")] == pytest.approx(0.0, abs=1e-12)
        assert v[layout.coord(k, "im_w")] == pytest.approx(0.0, abs=1e-12)


# -- spectral bracket identities --------------------------------------


def _unit(bg, sym, k):
    return parse_bracket(f"{sym}({k[0]},{k[1]})", bg)


def _expected_pair(bg, j, m, plain_sym, tilde_sym, c_plain_fn, c_tilde_fn):
    k = (j[0] + m[0], j[1] + m[1])
    cp, ct = c_plain_fn(j, m), c_tilde_fn(j, m)
    out = PolyVectorField.zero(bg.d)
    if cp != 0:
        out = out + _unit(bg, plain_sym, k).scale(cp)
    if ct != 0:
        out = out + _unit(bg, tilde_sym, k).scale(ct)
    return out


def _perp(j):
    return (-j[1], j[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _n2(a):
    return a[0] * a[0] + a[1] * a[1]


PAIRS_SHELL = [
    ((1, 0), (0, 1)),
    ((1, 0), (0, -1)),
    ((-1, 0), (0, -1)),
    ((-1, 0), (0, 1)),
    ((1, 1), (0, -1)),
    ((1, 1), (-1, 0)),
]


@pytest.fixture(scope="module")
def bg():
    return get_builtin("burgers")


@pytest.mark.parametrize("j,m", PAIRS_SHELL)
def test_commutator_incompressible_re_golden(bg, j, m):
    # [X_m, [X_j, X0]] = <j_perp,m>(1/|j|^2 - 1/|m|^2) Y_{j+m}
    #                    - 2 <j_perp,m>^2/(|j|^2 |m|^2) Yt_{j+m}
    got = parse_bracket(f"[X({m[0]},{m[1]}),[X({j[0]},{j[1]}),X0]]", bg)
    want = _expected_pair(
        bg, j, m, "Y", "Yt",
        lambda j, m: F(_dot(_perp(j), m)) * (F(1, _n2(j)) - F(1, _n2(m))),
        lambda j, m: F(-2 * _dot(_perp(j), m) ** 2, _n2(j) * _n2(m)),
    )
    assert got == want


@pytest.mark.parametrize("j,m", PAIRS_SHELL)
def test_commutator_incompressible_im_golden(bg, j, m):
    # [Y_m, [X_j, X0]] = -<j_perp,m>(1/|j|^2 - 1/|m|^2) X_{j+m}
    #                    + 2 <j_perp,m>^2/(|j|^2 |m|^2) Xt_{j+m}
    got = parse_bracket(f"[Y({m[0]},{m[1]}),[X({j[0]},{j[1]}),X0]]", bg)
    want = _expected_pair(
        bg, j, m, "X", "Xt",
        lambda j, m: -F(_dot(_perp(j), m)) * (F(1, _n2(j)) - F(1, _n2(m))),
        lambda j, m: F(2 * _dot(_perp(j), m) ** 2, _n2(j) * _n2(m)),
    )
    assert got == want


@pytest.mark.parametrize("j,m", PAIRS_SHELL)
def test_commutator_compressible_re_golden(bg, j, m):
    # [Xt_m, [X_j, X0]] = <m, j+m>/|m|^2 Y_{j+m}
    #                     + <j_perp,m><m, m+2j>/(|j|^2 |m|^2) Yt_{j+m}
    got = parse_bracket(f"[Xt({m[0]},{m[1]}),[X({j[0]},{j[1]}),X0]]", bg)
    jm = (j[0] + m[0], j[1] + m[1])
    m2j = (m[0] + 2 * j[0], m[1] + 2 * j[1])
    want = _expected_pair(
        bg, j, m, "Y", "Yt",
        lambda j, m: F(_dot(m, jm), _n2(m)),
        lambda j, m: F(_dot(_perp(j), m) * _dot(m, m2j), _n2(j) * _n2(m)),
    )
    assert got == want


@pytest.mark.parametrize("j,m", PAIRS_SHELL)
def test_commutator_compressible_im_golden(bg, j, m):
    # [Yt_m, [X_j, X0]] = -<m, j+m>/|m|^2 X_{j+m}
    #                     - <j_perp,m><m, m+2j>/(|j|^2 |m|^2) Xt_{j+m}
    got = parse_bracket(f"[Yt({m[0]},{m[1]}),[X({j[0]},{j[1]}),X0]]", bg)
    jm = (j[0] + m[0], j[1] + m[1])
    m2j = (m[0] + 2 * j[0], m[1] + 2 * j[1])
    want = _expected_pair(
        bg, j, m, "X", "Xt",
        lambda j, m: -F(_dot(m, jm), _n2(m)),
        lambda j, m: -F(_dot(_perp(j), m) * _dot(m, m2j), _n2(j) * _n2(m)),
    )
    assert got == want


def test_spectral_relative_degree_is_one(bg):
    # n(X_m, [X_j, X0]) = 1 for forced j, m with j+m inside the truncation
    layout = bg.layout
    j, m = (1, 0), (0, 1)
    inner = lie_bracket(
        PolyVectorField.from_constant(layout.unit(j, "re_w")), bg.drift
    )
    assert relative_degree(layout.unit(m, "re_w"), inner) == (1, "odd")
    assert relative_degree(layout.unit(m, "im_w"), inner) == (1, "odd")


# -- bracket expression parser ----------------------------------------


def test_parse_bracket_noise_index(bhw_model):
    V = parse_bracket("X1", bhw_model)
    assert V.constant_value() == (F(0), F(1))
    assert parse_bracket("ad^2(X1)(X0)", bhw_model).constant_value() == (
        F(2),
        F(0),
    )


def test_parse_bracket_errors(bhw_model, bg):
    with pytest.raises(BracketParseError):
        parse_bracket("X5", bhw_model)
    with pytest.raises(BracketParseError):
        parse_bracket("[X1, X0", bhw_model)
    with pytest.raises(BracketParseError):
        parse_bracket("X(1,0)", bhw_model)  # spectral atom, planar model
    with pytest.raises(BracketParseError):
        parse_bracket("foo", bhw_model)
    with pytest.raises(BracketParseError):
        parse_bracket("X(X1,0)", bg)  # wavevector entry not an integer
    with pytest.raises(BracketParseError):
        parse_bracket("X(1,5)", bg)  # mode outside the truncation


def test_parse_bracket_combinations():
    m = get_builtin("langevin2d")  # two noise fields
    X0 = m.drift
    X1, X2 = (PolyVectorField.from_constant(v) for v in m.noise)
    assert parse_bracket("[X1, X0]", m) == lie_bracket(X1, X0)
    assert parse_bracket("(-1*(X1) + X2)", m) == X1.scale(-1) + X2
    assert parse_bracket("(2*((X1 + X2)) + X0)", m) == (X1 + X2).scale(2) + X0
    assert parse_bracket("ad^2((-1*(X1) + X2))(X0)", m) == ad_power(
        X2 + X1.scale(-1), X0, 2
    )


def test_pretty_field_spectral(bg):
    V = parse_bracket("[X(0,1),[X(1,0),X0]]", bg)
    assert pretty_field(V, bg) == "-2*Yt(1,1)"


# -- serialization ----------------------------------------------------


def test_model_json_roundtrip(tmp_path, bhw_model):
    path = tmp_path / "m.json"
    save_model(bhw_model, str(path))
    loaded = load_model(str(path))
    assert loaded.drift == bhw_model.drift
    assert loaded.noise == bhw_model.noise
    assert loaded.spec_hash() == bhw_model.spec_hash()


def test_model_from_json_diagnostics():
    with pytest.raises(ModelError, match="missing field"):
        model_from_json({"name": "x", "d": 2, "drift": []})
    with pytest.raises(ModelError, match="noise\\[0\\]"):
        model_from_json(
            {"name": "x", "d": 2, "drift": [[], []], "noise": [["1"]]}
        )
    with pytest.raises(ModelError, match="drift"):
        model_from_json(
            {"name": "x", "d": 2, "drift": [[{"coeff": "1/1", "exps": [9]}]],
             "noise": []}
        )


def test_model_from_json_accepts_good():
    assert model_from_json(GOOD_MODEL_JSON).d == 1


@pytest.mark.parametrize("data", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS)
def test_model_from_json_rejects_malformed(data):
    with pytest.raises(ModelError):
        model_from_json(data)


def test_spec_hash_distinguishes_params():
    assert bhw(0, 0, 1, 2, 1).spec_hash() != bhw(0, 0, 1, 3, 1).spec_hash()


def test_get_builtin_unknown():
    with pytest.raises(ModelError):
        get_builtin("nope")
    assert set(BUILTINS) == {
        "langevin", "langevin2d", "bhw", "nonexample3d", "burgers"
    }


# -- randomized structural property -----------------------------------


@given(st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2))
@settings(max_examples=20, deadline=None)
def test_bhw_equilibrium_parabola(a, b):
    # on the closed-form equilibrium curve the x-drift component vanishes
    m = bhw(a, b, 1, 2, 1)
    for y in (0.5, -1.25, 2.0):
        x = (a + np.sqrt(a * a + 4 * y * y)) / 2.0
        vx = compile_field(m.drift)([x, y])[0]
        assert vx == pytest.approx(0.0, abs=1e-9)
