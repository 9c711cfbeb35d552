"""Result CSVs of every preset are pinned by sha256.

A change that alters any preset's bytes fails here by name.  When the
change is intended, update the table and say why in CHANGES.md.
"""

import hashlib

import quadstab.harness as h

GOLDEN = {
    "oracle-fe2-fe1": "5b435419fc97e996e89eade09f9028f4fa1abc7115a519365e8294dc3055dbec",
    "oracle-fe3-fe1": "9cf760a18097c0e093f931a101832d0e2735508edc63e3e885020bc063a5b5ff",
    "oracle-fe3_0-fe1": "6fc5f219331ef19f82e60f98fda8f6fec8f8f289bc3fa5da2d58e6ba1d34e79d",
    "fe1-dimension": "78c1630bcc48b6d6263c77477ac464c438b339ebf24416c51c0a02753b675323",
    "inner-product-pass": "feefa1ca4773a59884e3f4261d0d8515762c2e770af4da595aa69cf63c7aa1af",
    "inner-product-centroid": "c4788c26b935e3be12674b75a3e83244d6c01684be8cf8971b087281a6504e88",
    "inner-product-fail": "3a90add214499bd7dfd2b593618279e1643fc56415fac54cebf1a3ae829aa781",
    "power-forward": "a5d25c474eb5e962b90092781ecf3d713004ee93d5bb01936e75514d32369e9e",
    "power-backward": "2d520c2137fa2be630dd69d776bbf85baa0f711e3148355979e24fcc74f69eef",
    "constant-quasinorm": "6e3e76d490d56748256b67ef3352c13c296d051834b8b7b8d05dcfb18986388a",
    "pnorm-p1": "17e639ddc1aad40d601c905fa6d63f50cd746ba991cae189821bfa3524477161",
    "pnorm-phalf": "1b2399b65affb6492b31ca63079a06490f52d02d59acd59637e406ba00253a83",
    "k1-equals-p1": "6dcf8316c4524931f6f7d068ed82247d954eb3d3e3f6c56743c69c777c31e86c",
    "unitary-covariance": "12a87b8b5661926699e4412a37b0b88bd9114011b53d6b3149b9fe6a41d99e84",
    "open-problem-deadzone": "d078da93c8aaee9fa8811b84eda41bc8991704ae438bcefc74ca9b9573b366e8",
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
