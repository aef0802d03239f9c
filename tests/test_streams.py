"""Frozen digests of the samplers' random streams at sizes past the exact
convolution: the FFT tables, their kept prefixes and a widening, the CDF
rows and the draws of one segment alone.

Each case hashes what a sampler returns together with the generator's
state after the call, so a change that moves a draw, or takes one uniform
more or less, fails here.  FFT rounding may depend on the numpy and scipy
builds, so the table records the versions it was made with, and a mismatch
names them.  A change that moves a stream on purpose prints a fresh table
with

    PYTHONPATH=src python tests/test_streams.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy

from looptrees import _bridge
from looptrees._bridge import cache_info, sample_conditioned_max, sample_conditioned_steps
from looptrees.dissection import sample_boltzmann
from looptrees.gw_tree import OffspringLaw, stable_offspring

VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
TABLE = {
    "sample_conditioned_steps alpha=1.05 n=5000": "9b3e32cb119f7656",
    "sample_conditioned_max alpha=1.05 n=5000": "e146d661ad6c8127",
    "sample_conditioned_steps alpha=1.05 n=131072": "14171615d5e5e796",
    "sample_conditioned_max alpha=1.05 n=131072": "f7914ce9caf7763b",
    "sample_conditioned_steps alpha=1.05 n=100000": "02c3e28f5dd02c46",
    "sample_conditioned_max alpha=1.05 n=100000": "0adb6d5ebbaa5ae6",
    "sample_conditioned_steps alpha=1.5 n=5000": "e27f783614792d28",
    "sample_conditioned_max alpha=1.5 n=5000": "43b172394005ee4f",
    "sample_conditioned_steps alpha=1.5 n=131072": "7361384ce5463dea",
    "sample_conditioned_max alpha=1.5 n=131072": "9a4b6f9bd49b0835",
    "sample_conditioned_steps alpha=1.5 n=100000": "3fcf7b677e9e0e2d",
    "sample_conditioned_max alpha=1.5 n=100000": "d1c820f3c39c471d",
    "sample_conditioned_steps alpha=1.95 n=5000": "b6b19e3c79038b8f",
    "sample_conditioned_max alpha=1.95 n=5000": "5aa3cc6349007487",
    "sample_conditioned_steps alpha=1.95 n=131072": "f4d02c6ebf68dbb1",
    "sample_conditioned_max alpha=1.95 n=131072": "344ba985f7d4c201",
    "sample_conditioned_steps alpha=1.95 n=100000": "197928ee4f83d5a6",
    "sample_conditioned_max alpha=1.95 n=100000": "dadcf3a63b8a1657",
    "sample_conditioned_steps finite n=5000": "53a7a72208dfc0e2",
    "sample_conditioned_max finite n=5000": "0a5a52bf472fba13",
    "sample_conditioned_steps finite n=131072": "23b007bad69a2bbf",
    "sample_conditioned_max finite n=131072": "e2585d82bdf605e6",
    "sample_conditioned_steps finite n=100000": "82f45c9700a59d51",
    "sample_conditioned_max finite n=100000": "4f978a94ced346da",
    "sample_boltzmann n=4097": "d32b66bbe824377e",
    "sample_boltzmann n=6000": "3dda9695c260e6e6",
    "sample_conditioned_steps widened": "da8445e4ce42af07",
    "sample_conditioned_max widened": "0f23faf506a85359",
}

_LAWS = {
    "alpha=1.05": lambda: stable_offspring(1.05),
    "alpha=1.5": lambda: stable_offspring(1.5),
    "alpha=1.95": lambda: stable_offspring(1.95),
    "finite": lambda: OffspringLaw.from_probabilities([0.4, 0.3, 0.2, 0.1]),
}
_SIZES = (5000, 2**17, 10**5)


def _digest(value, rng: np.random.Generator) -> str:
    data = np.asarray(value, dtype=np.int64).tobytes()
    data += repr(rng.bit_generator.state).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _sampled(sampler, law, n: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    return _digest(sampler(law, n, rng), rng)


def digests() -> dict:
    """The digest of every case, by name."""
    out = {}
    _bridge._TABLES.clear()
    try:
        for name, make in _LAWS.items():
            law = make()
            for seed, n in enumerate(_SIZES):
                for sampler in (sample_conditioned_steps, sample_conditioned_max):
                    out[f"{sampler.__name__} {name} n={n}"] = _sampled(sampler, law, n, seed)
        for seed, n in enumerate((4097, 6000)):
            rng = np.random.default_rng(seed)
            d = sample_boltzmann(stable_offspring(1.5, "no-unary"), n, rng)
            out[f"sample_boltzmann n={n}"] = _digest(d.chords.ravel(), rng)
        # tables kept to a reach of _ROW_TOTAL + 1 only, which the first
        # sample overflows and widens
        _bridge._TABLES.clear()
        slack, _bridge._SLACK = _bridge._SLACK, 0.0
        try:
            law = stable_offspring(1.5)
            for sampler in (sample_conditioned_steps, sample_conditioned_max):
                out[f"{sampler.__name__} widened"] = _sampled(sampler, law, 10**5, 7)
            assert cache_info()["widened"] >= 1
        finally:
            _bridge._SLACK = slack
    finally:
        _bridge._TABLES.clear()
    return out


def test_streams_match_the_frozen_table():
    got = digests()
    moved = sorted(k for k in TABLE.keys() | got.keys() if TABLE.get(k) != got.get(k))
    here = {"numpy": np.__version__, "scipy": scipy.__version__}
    assert not moved, (f"{len(moved)} stream digests differ from the table, made with "
                       f"numpy {VERSIONS['numpy']} and scipy {VERSIONS['scipy']}; this "
                       f"run has numpy {here['numpy']} and scipy {here['scipy']}: {moved}")


if __name__ == "__main__":
    print(f'VERSIONS = {{"numpy": "{np.__version__}", "scipy": "{scipy.__version__}"}}')
    print("TABLE = {")
    for key, value in digests().items():
        print(f'    "{key}": "{value}",')
    print("}")
