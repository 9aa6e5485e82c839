"""Cross-version goldens: outputs pinned from an earlier release.

The other tests check that two runs in one process agree; these check
that a rewrite of the numerics reproduces the values the library gave
before it.  Monte Carlo counts are pinned exactly (the Philox streams
are part of the reproducibility contract); certificate figures are
pinned to a relative tolerance, since they rest on float quadrature.
The exact closure is pinned by the hash of its JSON report, and the RK4
flows bit for bit by the hash of their states and carried matrices.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import cubic_blowup, no_noise_model

import conecert
from conecert import (
    CertifyOptions,
    SimConfig,
    burgers,
    certify,
    choose_basis,
    compute_C,
    get_builtin,
    simulate,
)
from conecert.models import BUILTINS, shell1_forcing
from conecert.montecarlo import _simulate_endpoints
from conecert.polyfield import compile_field, compile_jacobian

SRC = str(Path(conecert.__file__).resolve().parents[1])

# (model, target, seed, stopping ball) -> (hits, stopped_fraction, nonfinite_paths)
SIMULATE_GOLDENS = [
    ("langevin", [1.0, 0.0], 3, 1.3, (12, 0.243, 0)),
    ("langevin", [1.0, 0.0], 11, 10.0, (13, 0.0, 0)),
    ("langevin2d", [0.0, 0.0, 0.0, 0.0], 3, 1.3, (12, 0.563, 0)),
    ("langevin2d", [0.0, 0.0, 0.0, 0.0], 11, 10.0, (14, 0.0, 0)),
]


@pytest.mark.parametrize("name,z,seed,ball,expected", SIMULATE_GOLDENS)
def test_simulate_goldens(name, z, seed, ball, expected):
    model = get_builtin(name)
    cfg = SimConfig.default(t=1.0, z=np.array(z), n_ball=ball, n_paths=1000, seed=seed)
    ev = simulate(model, np.zeros(model.d), cfg)
    assert (ev.hits, ev.stopped_fraction, ev.nonfinite_paths) == expected


# (model, x, SimConfig kwargs) -> (sha256 of endpoints + stopped mask,
# stopped paths, nonfinite_paths); the same at 1 and 2 BLAS threads.
# The cubic model overflows on 1855 of its 5000 paths.  The noiseless
# (r = 0) model leaves the 0.95 ball on its last steps; x1 starts at -0.0.
ENDPOINT_GOLDENS = [
    (lambda: get_builtin("langevin"), [0.0, 0.0],
     dict(t=1.0, dt=1e-3, n_ball=1.3, n_paths=5000, seed=0, z=[1.0, 0.0], delta=0.25),
     ("62d447552fd6144ebafa374fef630630c43cbfd9dc72e4a8356163066ade456f", 1262, 0)),
    (cubic_blowup, [0.5],
     dict(t=1.0, dt=1e-3, n_ball=1e300, n_paths=5000, seed=1, z=[0.0], delta=0.25),
     ("cdf0b92a88c60caa0e429c2b07f5eff1ad95e96ddba9afd431d4c2693fdbf6b6", 5000, 1855)),
    (no_noise_model, [0.5, -0.0],
     dict(t=1.0, dt=1e-3, n_ball=0.95, n_paths=3, seed=0, z=[0.0, 0.0], delta=0.25),
     ("e0b7b61a8d16e165cc2eb591bfc22894c7fc02618e7646a691bb2a0e0c5eb22e", 3, 0)),
]


@pytest.mark.parametrize("model,x,kwargs,expected", ENDPOINT_GOLDENS,
                         ids=["langevin_stop_heavy", "cubic_blowup", "no_noise"])
def test_simulate_endpoint_goldens(model, x, kwargs, expected):
    endpoints, stopped, nonfinite = _simulate_endpoints(model(), np.array(x), SimConfig(**kwargs))
    digest = hashlib.sha256(endpoints.tobytes() + stopped.tobytes()).hexdigest()
    assert (digest, int(stopped.sum()), nonfinite) == expected


# (model, x, z, via_equilibrium) -> (verdict, K_rank, sigma_min)
CERTIFY_GOLDENS = [
    ("langevin", [0.0, 0.0], [1.0, 0.0], False, ("positive", 2, 0.05305581916924009)),
    ("bhw", [0.0, 0.0], [1.0, 0.5], False, ("positive", 2, 0.12015323218198984)),
    ("bhw", [0.0, 0.0], [2.0, 1.0], True, ("positive", 2, 0.09270582762657338)),
]


@pytest.mark.parametrize("name,x,z,via,expected", CERTIFY_GOLDENS)
def test_certify_goldens(name, x, z, via, expected):
    model = get_builtin(name)
    basis = choose_basis(compute_C(model))
    cert = certify(model, basis, x, z, 1.0,
                   CertifyOptions(seed=0, n_steps=200, pieces=4, via_equilibrium=via))
    verdict, rank, sigma_min = expected
    assert cert.verdict == verdict
    assert cert.K_rank == rank
    assert cert.sigma_min == pytest.approx(sigma_min, rel=1e-6)


# sha256 of the sorted-key JSON report: values, derivation strings, rounds
BURGERS_CLOSURE_SHA256 = "9135e64cac05a266b77215507ded214160e665f738818d7af54090a9d3cbe987"


def test_burgers_closure_golden():
    cone = compute_C(get_builtin("burgers"), max_rounds=3, combo_budget=0)
    report = json.dumps(cone.to_json(), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == BURGERS_CLOSURE_SHA256


def test_burgers_closure_stops_at_full_odd_rank():
    # round 3 brings the odd span to rank 96; no later round can change the cone
    golden = compute_C(get_builtin("burgers"), max_rounds=3, combo_budget=0).to_json()
    cone = compute_C(get_builtin("burgers"), combo_budget=0)
    assert cone.rounds == 3 and cone.exhausted
    report = cone.to_json()
    for key in ("odd_basis", "even_generators", "derivations"):
        assert report[key] == golden[key]


# sha256 of the sorted-key JSON report of the default closure at N = 3 (d = 192)
BURGERS_N3_CLOSURE_SHA256 = "adb640abc0c04510e231376ac0d282ba43f9855bec599737f50dc85029f53be9"


def test_burgers_n3_closure_golden():
    cone = compute_C(burgers(3, 1, forced_sigma=shell1_forcing(3)))
    report = json.dumps(cone.to_json(), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == BURGERS_N3_CLOSURE_SHA256


# model -> (sha256 of its model JSON, sha256 of its default compute_C report):
# the term order that the closure and the small models' generated kernels follow
SMALL_MODEL_GOLDENS = {
    "langevin": ("fc7e7d40c30bb657395b16a5eb76fc7c35d05312698fb69adb39f7964f6387eb",
                 "71513d7e0605cc5d47dbe10ee4219f51c3059149e2caa339565ea4f5699997a3"),
    "langevin2d": ("db873cc1f4e5a6c72bf45de9b05ebb36df7f63020dffbf2d26c0bf16e70164e7",
                   "0f98553f3e3e5ea5599f455cef5164c43a9b0e4ffa2a4c8f6d771316ee77ac70"),
    "bhw": ("a0d509167903f253f6cafa77357deca5ef022badf6c894a201f421ab4b7e49c2",
            "bf1f3d042125b6b5801842135d25f890c92eff9de4ad4eb3500e18a5317b86be"),
    "nonexample3d": ("af8be72e4cfe41bb3737ed0422a5d372a5cc66f8111032eec9e0a2b777077ed7",
                     "920dda7bceeb0b35b6408ae17581ed50ce3e3143cfb4866357e8b008ab6a91ce"),
}


@pytest.mark.parametrize("name", sorted(SMALL_MODEL_GOLDENS))
def test_small_model_spec_and_closure_goldens(name):
    model = get_builtin(name)
    report = json.dumps(compute_C(model).to_json(), sort_keys=True)
    assert (model.spec_hash(), hashlib.sha256(report.encode()).hexdigest()) == \
        SMALL_MODEL_GOLDENS[name]


# sha256 of the model JSON: every drift term and coefficient of the truncation
BURGERS_SPEC_SHA256 = "0890a0bc01005d7bbb3bc7b39b6d8eb653de1013bafa7c49d1ba30436e2cc16d"
# N=3 (d=192), nu=1/2, forced incompressible and compressible modes (r=6)
BURGERS_N3_SPEC_SHA256 = "d4d0046337b8edcdd88f664505de2bb536ae506d1f69a1ee0125f9b98e837b62"


def test_burgers_spec_goldens():
    assert get_builtin("burgers").spec_hash() == BURGERS_SPEC_SHA256
    model = burgers(3, Fraction(1, 2), forced_sigma=[(1, 0)], forced_gamma=[(0, 1), (1, 1)])
    assert (model.d, model.r) == (192, 6)
    assert model.spec_hash() == BURGERS_N3_SPEC_SHA256


# sha256 of the states, then M or S, of one RK4 pass at 600 steps under
# a seeded 5-piece control; the same at 1 and 2 BLAS threads
FLOW_DIGESTS = """
import hashlib, json
import numpy as np
from conecert.models import get_builtin
from conecert.reach import ControlPath, _integrate_once

out = {}
for name in ("langevin", "bhw", "nonexample3d"):
    model = get_builtin(name)
    rng = np.random.default_rng(5)
    x = 0.3 * rng.normal(size=model.d)
    control = ControlPath.uniform(1.0, rng.normal(size=(5, model.r)))
    for carry in (None, "gramian", "sensitivity"):
        flow = _integrate_once(model, x, control, 600, carry)
        h = hashlib.sha256(flow.states.tobytes())
        for Y in (flow.M, flow.S):
            if Y is not None:
                h.update(Y.tobytes())
        out[f"{name}:{carry}"] = h.hexdigest()
print(json.dumps(out))
"""

FLOW_GOLDENS = {
    "langevin:None": "0ac68831c937f1d504259f947ce96a0e792e681df43363bd1af24ecee03a06c8",
    "langevin:gramian": "4749b4ee774457603d97258a1a134853184289c4a8ecb8dbbab03550e5f392c9",
    "langevin:sensitivity": "b616c507e1f1807d36985a9abdff77f46b1636bd8a3a5d937866418b6ae256cf",
    "bhw:None": "5d2082a30de1643508a15e74acd13b75c45b88478b60b471eba4063d836bce45",
    "bhw:gramian": "ba1f7d6ad3389e4952ab25926b5db41439d2807ee2316c0b2a863e0b10873b03",
    "bhw:sensitivity": "61863a5d7836d2920d350cc96c4b4b575fe074509394ff05177e00e553d3be0f",
    "nonexample3d:None": "c94337c96e29cdf0ab5ed7879cbbc70169b64bfb0fc372d1a1a393bad65ed7d8",
    "nonexample3d:gramian": "f2713ee4efc4e784920ce871a9cbdb4c0eb85c9b474108b0e5b76b45404df203",
    "nonexample3d:sensitivity": "bc2192607b8d9efc37eabbaa487d3f8d2e4d2bd034d9f1d2d62194acfa57db1b",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_flow_goldens(threads):
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads}
    proc = subprocess.run([sys.executable, "-c", FLOW_DIGESTS], capture_output=True,
                          text=True, check=True, timeout=120, env=env)
    assert json.loads(proc.stdout) == FLOW_GOLDENS


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_single_point_kernel_matches_batched_row(name):
    model = get_builtin(name)
    rng = np.random.default_rng(2)
    P = rng.normal(scale=0.7, size=(3, model.d))
    for kernel in (compile_field(model.drift), compile_jacobian(model.drift)):
        rows = kernel(P)
        for point, row in zip(P, rows):
            first = kernel(point)
            assert first.shape == row.shape and first.flags.writeable
            assert np.linalg.norm(first - row) <= 1e-15 * np.linalg.norm(row)
            expected = first.copy()
            first[...] = np.nan  # a fresh array: writing to it touches no cached data
            again = kernel(point)
            assert not np.may_share_memory(again, first)
            assert np.array_equal(again, expected)
