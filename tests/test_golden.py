"""Golden fingerprints: the sha256 of every answer file of seven small runs.

``releasesim`` runs seven commands through ``cli.main``.  Five run on 16+16
cells to t = 4: ``simulate`` with the zero-flux wall, ``simulate --outer-bc
sink``, ``simulate`` with a finite membrane (pm = 3, sigma = 1.4),
``analytic`` and ``sweep --param ka --range 0.2 1.8 3``.  The other two take
no grid or solver flags, as the checks pin their own: ``verify all`` on the
default parameters and ``verify oracle`` on one stiff tissue draw (ka 4,
kd 1, kid 0.02), where the fast tissue mode's exp(-fast*t) underflows to 0
over most of the oracle's grid.
Every file each command writes is hashed, except ``run.json``, which holds
timestamps.  A refactor that keeps the numbers keeps these hashes, so
byte-identity of the answer files is checked by the suite itself.

The hashes were taken with Python 3.11, NumPy 2.4 and SciPy 1.17.  Another
NumPy/SciPy build may round differently and fail here without any fault in
the program.  A change meant to alter the numbers regenerates the hashes
(print ``_fingerprints`` of each case) and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from releasesim.cli import main

SMALL = ["--nx0", "16", "--nx1", "16", "--t-end", "4"]

GOLDEN = {
    "simulate": {
        "config.resolved.json":
            "20eafb0a3f47eb2f0199a4ad537f09e646904ea434e9bd58db728b8630b60d8e",
        "ledger.json":
            "3404208e1f96a70034658e9719e0ba55702ead0ea629638192985671597af929",
        "matrix.csv":
            "80b61915b8af20af6b03063f1bb1c65a48f79999e58b125fd6c72ea9ea42cd0e",
        "metrics.json":
            "e64b43c731e6f41fad63f67d1f67ef066a38579d738cd0ac05122bd9a552cd6b",
        "tissue.csv":
            "a76794676eb17890e4d80249b98d1234265dde0b94ad1b51f192aaad09ca1602",
    },
    "simulate_sink": {
        "config.resolved.json":
            "ec7a3e47e5e0efe03045f9e60a866a28b298e2a254018ed64adc3e5eb320a20c",
        "ledger.json":
            "a6cf1c4bf588ab81d9a5329d88151715bfcdce20a6d4e52c267e590b25e8db41",
        "matrix.csv":
            "cd09ed7288134db8916da646b216a949a491324f29ac4f591ef73d8ba817621d",
        "metrics.json":
            "6cac8f520d09e11b34182cb0871821a26e7f4ac2dca23580055b41a15e5f62d4",
        "tissue.csv":
            "ad4f5f0ee694d442a7ec88e23ad576fe985ab4fbeb238622e43b93e0f5ed358d",
    },
    "simulate_finite": {
        "config.resolved.json":
            "c0c9159f622b8dcf98deccefb74204fa6a148244b9e41a913e8f19a18d975c78",
        "ledger.json":
            "b4e1b5e2516c3a3b8ec02b607b36ff75d4bca8401d2e4b97a61260768f833ec6",
        "matrix.csv":
            "d3800d2c255799f18471ed196affbea427403e101f81fc22cf693c79b57f20bc",
        "metrics.json":
            "e192267e1c65c1043e3380470a59076bcf3173f87f92d15314910894e939e373",
        "tissue.csv":
            "cb4632760305c1cd403e4c349f025c775afd36cb140e7d834c2c3e2ba26d013b",
    },
    "analytic": {
        "analytic.csv":
            "41568f2ceb050f14dbf0c88c06ab35c4a116ca4a8ce0c43de8f876d03e1e0ec9",
        "config.resolved.json":
            "9bf8f2b3bd1412558580ba5db79deb74689a193ce80669c5f58265ace53ff8d6",
        "flux_mismatch.csv":
            "328d461397550c0909ab78c42f4a6dead014dfff20c70f829960380ea526a0aa",
        "residuals.json":
            "fddf37e66144d8eb5c86873f46060e5eb3362a22e3f4725aaecfd81e8696522d",
    },
    "sweep": {
        "config.resolved.json":
            "20eafb0a3f47eb2f0199a4ad537f09e646904ea434e9bd58db728b8630b60d8e",
        "sweep.csv":
            "7bb1a64ac27b81ad848d6095a61f8c4f05c9c21d6446434cf68b1a7cb63bc757",
    },
    "verify": {
        "config.resolved.json":
            "60cf8e19f4df49d29e7f08141ad20124a3be5859e87dda292af4ee40f7a25f16",
        "verify.json":
            "e111ce2ecad42b363cb0fa36bafc7f0b900759e01c27b4630b917a566e7c594e",
    },
    "verify_oracle": {
        "config.resolved.json":
            "6814d60b16fe5103012348be33204f7a14cc9ffe364c91d42c95227d2467dd4b",
        "verify.json":
            "831f5e4b587bd74ab75f643db31f27467851b53c168fb028be04553f040034cf",
    },
}


def _argv(case: str, tmp_path) -> list[str]:
    if case == "simulate":
        return ["simulate", *SMALL]
    if case == "simulate_sink":
        return ["simulate", *SMALL, "--outer-bc", "sink"]
    if case == "simulate_finite":
        config = tmp_path / "finite.json"
        config.write_text(json.dumps({"interface": {"pm": 3, "sigma": 1.4}}))
        return ["simulate", *SMALL, "--config", str(config)]
    if case == "sweep":
        return ["sweep", *SMALL, "--param", "ka", "--range", "0.2", "1.8", "3"]
    if case == "verify":
        return ["verify", "all"]
    if case == "verify_oracle":
        config = tmp_path / "stiff.json"
        config.write_text(json.dumps({"tissue": {"ka": 4.0, "kd": 1.0, "kid": 0.02}}))
        return ["verify", "oracle", "--config", str(config)]
    return ["analytic", *SMALL]


def _fingerprints(case: str, tmp_path) -> dict[str, str]:
    out = tmp_path / "out"
    assert main([*_argv(case, tmp_path), "--out", str(out)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir()) if path.name != "run.json"}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_answer_files_match_golden_hashes(case, tmp_path):
    assert _fingerprints(case, tmp_path) == GOLDEN[case]
