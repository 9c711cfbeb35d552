"""Answers of the exact oracle are pinned on a small grid of ordered pairs.

Each entry is (left, right, q, d, equal, dim_left, dim_right, side,
sha256 of certificate % q as int64 bytes).  The grid mixes equal family
pairs, one fixed-seed subsample plan (fe3:4 over F_11^2), and raw term lists
(additive Cauchy, Drygas, the cubic scaling law f(2x) = 8 f(x)) that differ
from the family on either side.  A change to `spaces_equal` that alters any
verdict, dimension, side or certificate fails here by name.
"""

import hashlib

import numpy as np
import pytest

import quadstab as qs
from quadstab import GroupSpec, parse_equation

RAW = {
    # f(x+y) = f(x) + f(y)
    "cauchy": [(1, (1, 1)), (-1, (1, 0)), (-1, (0, 1))],
    # f(x+y) + f(x-y) = 2f(x) + f(y) + f(-y)
    "drygas": [(1, (1, 1)), (1, (1, -1)), (-2, (1, 0)), (-1, (0, 1)), (-1, (0, -1))],
    # f(2x) = 8 f(x)
    "cubic": [(1, (2,)), (-8, (1,))],
}

GOLDEN = [
    ("fe3:3", "fe1", 5, 1, True, 1, 1, None, None),
    ("fe1", "fe3:3", 7, 1, True, 1, 1, None, None),
    ("fe2", "fe1", 5, 2, True, 3, 3, None, None),
    ("fe3_0:2", "fe1", 7, 1, True, 1, 1, None, None),
    ("fe1", "fe3_0:3", 11, 1, True, 1, 1, None, None),
    ("fe3:4", "fe1", 11, 1, True, 1, 1, None, None),
    ("fe3_0:0", "fe1", 5, 3, True, 6, 6, None, None),
    ("fe3:4", "fe1", 11, 2, True, 3, 3, None, None),
    # shifts whose argument weights overflow int32 unless reduced mod q
    ("fe3_0:1073741826", "fe1", 11, 1, True, 1, 1, None, None),
    ("fe3_0:1099511627778", "fe1", 11, 1, True, 1, 1, None, None),
    ("fe1", "cauchy", 5, 1, False, 1, 1, "right-only",
     "713ef470ed4dddb6736eb9cb61f15319f949a3ed8a0da8db30b840f5ed567d0b"),
    ("cauchy", "fe1", 7, 2, False, 2, 3, "right-only",
     "2b333143d6f5054ea1eb8311319624d0b0fbf01d369b0f243c5c23a88caa6021"),
    ("drygas", "fe1", 5, 1, False, 2, 1, "left-only",
     "156e6fa237c8f55ca8687fcd8f3d294a17af70dc0d9ec201f5227d08cac5f523"),
    ("fe1", "drygas", 5, 2, False, 3, 5, "right-only",
     "00c867fd8cc8237766bdf00b6c51a1b9547bacf0d456e3e3491f1856c78f5149"),
    ("fe1", "cubic", 5, 1, False, 1, 1, "right-only",
     "604310e217203adc538f344b52edf3c6540ffec13a7bc05ca7cc452ac55682e3"),
    ("cubic", "fe1", 7, 1, False, 3, 1, "right-only",
     "362b84a8adb91d857741e47c62916f51c83b691ebf9e55fab84e02c90fadd255"),
    ("cauchy", "drygas", 7, 1, False, 1, 2, "right-only",
     "0f76359fc2b4258511e43b5a2ffcc89197963fa3d8853afc13caffe6568acc31"),
    ("drygas", "cauchy", 11, 1, False, 2, 1, "left-only",
     "5f325435c1354a42d94911756b0cfb2fc5ed01e8f1baeb726d20c6b08176e85a"),
    ("cubic", "cauchy", 13, 1, False, 1, 1, "right-only",
     "ebd10ec63f01f53668c2c728a5798099f3e6f8c2e9b159e0d6977bfbcb5b6238"),
    ("fe3:3", "drygas", 5, 2, False, 3, 5, "right-only",
     "00c867fd8cc8237766bdf00b6c51a1b9547bacf0d456e3e3491f1856c78f5149"),
    ("drygas", "fe3:3", 7, 2, False, 5, 3, "left-only",
     "3c1abd89cccc6dca6207a70665f5d6cef4dce2d6db5b6ff532491e25a6422b03"),
    ("drygas", "fe2", 5, 3, False, 9, 6, "left-only",
     "7b3e8000c15d528735047e9a52e04c0b6df3ad00da441e0ab90c7078d25d4d3d"),
]


def _equation(name):
    return RAW[name] if name in RAW else parse_equation(name)


def _digest(cert, q):
    return hashlib.sha256(np.asarray(cert % q, dtype=np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize("left,right,q,d,equal,dim_left,dim_right,side,sha", GOLDEN,
                         ids=[f"{a}-{b}-F{q}^{d}" for a, b, q, d, *_ in GOLDEN])
def test_spaces_equal_pinned(left, right, q, d, equal, dim_left, dim_right, side, sha):
    g = GroupSpec(q, d)
    cmp = qs.spaces_equal(_equation(left), _equation(right), g)
    assert (cmp.equal, cmp.dim_left, cmp.dim_right, cmp.side) == (equal, dim_left, dim_right, side)
    if equal:
        assert cmp.certificate is None
        return
    assert _digest(cmp.certificate, q) == sha
    # the certificate solves its own side and violates the other
    holds = [bool(qs.constraints_hold(qs.ConstraintMatrix(_equation(name), g),
                                      [cmp.certificate])[0]) for name in (left, right)]
    assert holds == ([True, False] if side == "left-only" else [False, True])
