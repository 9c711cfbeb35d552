"""Result CSVs of every preset are pinned by sha256.

A change that alters any preset's bytes fails here by name.  When the
change is intended, update the table and say why in CHANGES.md.
"""

import hashlib
from collections import Counter

import quadstab.harness as h

GOLDEN = {
    "oracle-fe2-fe1": "5b435419fc97e996e89eade09f9028f4fa1abc7115a519365e8294dc3055dbec",
    "oracle-fe3-fe1": "9cf760a18097c0e093f931a101832d0e2735508edc63e3e885020bc063a5b5ff",
    "oracle-fe3_0-fe1": "6fc5f219331ef19f82e60f98fda8f6fec8f8f289bc3fa5da2d58e6ba1d34e79d",
    "fe1-dimension": "78c1630bcc48b6d6263c77477ac464c438b339ebf24416c51c0a02753b675323",
    "inner-product-pass": "feefa1ca4773a59884e3f4261d0d8515762c2e770af4da595aa69cf63c7aa1af",
    "inner-product-centroid": "c4788c26b935e3be12674b75a3e83244d6c01684be8cf8971b087281a6504e88",
    "inner-product-fail": "3a90add214499bd7dfd2b593618279e1643fc56415fac54cebf1a3ae829aa781",
    "power-forward": "45e6f34e74470fd8b1b7214fed6f11e325bc57efd6b0a337999eb05780e5ddff",
    "power-backward": "7b6f60c4b574b31bb4c4038cb9a23c169ec190cc894995c552b2f7ffe5bc7d77",
    "constant-quasinorm": "109451cd95ab8cce8d5485755f023653645c613f01d36b1019645b102fb09968",
    "pnorm-p1": "383aaa2d76f121241f41e5f51ac70a556cdbf91f858e1a6e2a425c15ef14450a",
    "pnorm-phalf": "0614feffa8d08951859c1465a7081725d3d2fa661dc50f11ef7fcdd15b4e682c",
    "k1-equals-p1": "6dcf8316c4524931f6f7d068ed82247d954eb3d3e3f6c56743c69c777c31e86c",
    "unitary-covariance": "d79ea638d4decb0aa5386b0aad3f380d005ca948fe979006e1e292b448f7fa19",
    "open-problem-deadzone": "d078da93c8aaee9fa8811b84eda41bc8991704ae438bcefc74ca9b9573b366e8",
}


# name -> (exit code, row count per status); a hash update must leave these as they are
OUTCOMES = {
    "oracle-fe2-fe1": (0, {"pass": 1}),
    "oracle-fe3-fe1": (0, {"pass": 1}),
    "oracle-fe3_0-fe1": (0, {"pass": 1}),
    "fe1-dimension": (0, {"pass": 1}),
    "inner-product-pass": (0, {"pass": 1}),
    "inner-product-centroid": (0, {"pass": 1}),
    "inner-product-fail": (0, {"pass": 1}),
    "power-forward": (0, {"pass": 100}),
    "power-backward": (0, {"pass": 100}),
    "constant-quasinorm": (0, {"pass": 60}),
    "pnorm-p1": (0, {"pass": 100}),
    "pnorm-phalf": (0, {"pass": 60}),
    "k1-equals-p1": (0, {"pass": 54}),
    "unitary-covariance": (0, {"pass": 1}),
    "open-problem-deadzone": (4, {"pass": 3, "rejected-open-problem": 3}),
}


def test_preset_csvs_match_pinned_hashes(tmp_path):
    assert sorted(GOLDEN) == sorted(name for name, _ in h.list_presets())
    changed = []
    for name in GOLDEN:
        res = h.run_preset(name, outdir=str(tmp_path))
        with open(res.csv_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if digest != GOLDEN[name]:
            changed.append(f"{name}: {digest}")
    assert not changed, "preset CSVs changed: " + "; ".join(changed)


def test_preset_exit_codes_and_row_statuses_are_pinned():
    assert sorted(OUTCOMES) == sorted(GOLDEN)
    for name, (code, statuses) in OUTCOMES.items():
        res = h.run_preset(name, write_csv=False)
        assert (res.exit_code, dict(Counter(r.status for r in res.rows))) == (code, statuses), name
