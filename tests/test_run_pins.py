"""Whole-run byte identity: the sha256 of every file `batteryauth run`
writes (report.json, report.csv and each model file) on the three
benchmark workload configs. A change meant to keep results keeps all of
them; a change to results names what moved and why, and records new pins.

The six QDA model files of dca-solvers are counted but not pinned: their
last bits depend on the number of BLAS threads. Its reports and its 18
other model files are pinned.
"""
import hashlib
import json
from pathlib import Path

import pytest

from batteryauth.cli import main

ROOT = Path(__file__).resolve().parents[1]

# Inline copies of the "config" entries of WORKLOADS in perfbench/run.py;
# the preset path is relative to the repository root, as there.
_PRESET = "perfbench/presets/hard_cells.json"
_EVAL = {"seed": 7, "balances": [50], "folds": 3, "train_ratio": 0.5}
CONFIGS = {
    "dca-trees": {
        "pipeline": "dca", "threads": 1,
        "synth": {"specs": _PRESET, "cells_per_spec": 2, "records_per_cell": 6,
                  "n_points": 256, "seed": 7},
        "selection": {"enabled": False},
        "models": [{"kind": "RandomForest", "grid": {"n_estimators": [50]}},
                   {"kind": "DecisionTree"}, {"kind": "KNN"}, {"kind": "GaussianNB"}],
        "eval": _EVAL,
    },
    "eis-screen": {
        "pipeline": "eis", "threads": 2,
        "synth": {"specs": _PRESET, "cells_per_spec": 2, "records_per_cell": 5, "seed": 7},
        "selection": {"enabled": True},
        "models": [{"kind": "RandomForest", "grid": {"n_estimators": [50]}}, {"kind": "KNN"}],
        "eval": {**_EVAL, "targets": ["architecture"]},
    },
    "dca-solvers": {
        "pipeline": "dca", "threads": 1,
        "synth": {"specs": _PRESET, "cells_per_spec": 2, "records_per_cell": 4,
                  "n_points": 256, "seed": 7},
        "selection": {"enabled": False},
        "models": [{"kind": "SVM", "grid": {"kernel": ["linear", "rbf"], "C": [0.1, 1.0],
                                            "gamma": ["scale"]}},
                   {"kind": "AdaBoost"}, {"kind": "QDA", "grid": {"reg": [0.1, 0.5]}},
                   {"kind": "NeuralNet", "grid": {"hidden": [50], "activation": ["relu"],
                                                  "solver": ["adam"]}}],
        "eval": {**_EVAL, "targets": ["model"]},
    },
}

# the number of QDA model files a run writes, which the pins leave out
QDA_FILES = {"dca-trees": 0, "eis-screen": 0, "dca-solvers": 6}

PINS = {
    "dca-solvers": {
        "model_auth_model_authentication_alpha_50_AdaBoost.json":
            "37827ddd34ae1f6e2dc3701b61d1c75b0805cdbac4b46df23442e5ebf82528c2",
        "model_auth_model_authentication_alpha_50_NeuralNet.json":
            "990ed98de4dde9c122fce6ba3965966ed09f51bf14759be564f05ae079674d75",
        "model_auth_model_authentication_alpha_50_SVM.json":
            "4974b582a495ece5b4de7a4c52bee263ab87384705f6e5d9296b7b6760435cbf",
        "model_auth_model_authentication_bravo_50_AdaBoost.json":
            "4bf04d149794d7bcbc9a67832d6da1adef6f6d038fed162dcd27bfae0b32006e",
        "model_auth_model_authentication_bravo_50_NeuralNet.json":
            "cdbeb2d27033a8d5179b9f4e4fafeaeaabac9feade5a539c85bcf17c29ab361e",
        "model_auth_model_authentication_bravo_50_SVM.json":
            "3f785d133f7521c7bff01792437d0685fc1fcfdb636ce5f67e8e2afdda54b3fe",
        "model_auth_model_authentication_charlie_50_AdaBoost.json":
            "a97e1236908ac96f1fcc6e0dfa973103c4ba531e118e02f4a37f812d37f840c3",
        "model_auth_model_authentication_charlie_50_NeuralNet.json":
            "f24fe8c14b31f832d02656b514ca0e2cb6f87821ab579985f1d66b166dfce999",
        "model_auth_model_authentication_charlie_50_SVM.json":
            "8219d97b8386b116d894b0ee518c7d269309a447ab4a57b1d78f657b81c132d5",
        "model_auth_model_authentication_delta_50_AdaBoost.json":
            "d08381ee935d024a6d21457efe714ac04f238f656c58954c16c036342f0efdf3",
        "model_auth_model_authentication_delta_50_NeuralNet.json":
            "69f46b7a6f2888176a727ac52e22c8f1593c1681fa117b694e894f86f62d6ddd",
        "model_auth_model_authentication_delta_50_SVM.json":
            "737daf3f044f10539ce337c13e1ada476b9b30f1344c7eb719bda8d8231144b9",
        "model_auth_model_authentication_echo_50_AdaBoost.json":
            "c1b8106f8ade95af6a96ab4224a4abcf5d1e8c112f3c8a62005a64d4aa6933ae",
        "model_auth_model_authentication_echo_50_NeuralNet.json":
            "c5254788d26e3778e48229692a05a5d7b1a3badefdeefcab1df03098e7d23986",
        "model_auth_model_authentication_echo_50_SVM.json":
            "442909186c2b19e73a0f1c6db27d253cdb29ece3fe7763914835b76e2c1a5b40",
        "model_ident_model_identification_AdaBoost.json":
            "57f2aee642223728f8e29aaaea4e3629ec6a65d3ec2326e0803479a5b9f0566f",
        "model_ident_model_identification_NeuralNet.json":
            "bf0e9ae6ebca67ebf4c57a4753316d22e9cfa4d72cecdc1f1e0f18a37b077a96",
        "model_ident_model_identification_SVM.json":
            "f2c1488d61400fb330e4a0b3f632da0ddadc29765d6e2cd05f84590be2f36ea6",
        "report.csv":
            "aa27f0197537175da2d55db0297a161d5f74efd2e2d352747f128baaf225bd13",
        "report.json":
            "253543910a9db4bd3241f17fce17e22535794968c9c2373fdf83a72dd54d0c86",
    },
    "dca-trees": {
        "model_auth_arch_authentication_layered-oxide_50_DecisionTree.json":
            "48c7905c826f22c7aea87ac0016f87e70bb98e87e3dadbc06f8e6e8ee4999367",
        "model_auth_arch_authentication_layered-oxide_50_GaussianNB.json":
            "76ef36412cc53c829414823a16b0da3e6d95eab825c6f2eb563f81f02c57e16a",
        "model_auth_arch_authentication_layered-oxide_50_KNN.json":
            "e4242cfbf71242d8cfb82981d7725c1fdc4af46288d771fbf94f1315f0bfe6e4",
        "model_auth_arch_authentication_layered-oxide_50_RandomForest.json":
            "fb074a0aa1a1197b50e92aa3ccc2f32f7b42ff11471e9ec8b0f851ecdea847d0",
        "model_auth_arch_authentication_olivine_50_DecisionTree.json":
            "5d2485bd14f7df136aa90d91c0a8f6e542259d087d241212082b93734da21350",
        "model_auth_arch_authentication_olivine_50_GaussianNB.json":
            "f2ac5cabdbea65df0e35696b109f1430c65963fc796513e8d8553c6a4e66cdb5",
        "model_auth_arch_authentication_olivine_50_KNN.json":
            "1463451879c69cac37dac7e177ed600bd96a73c5d53dd3cf7889e7d3a8ecccef",
        "model_auth_arch_authentication_olivine_50_RandomForest.json":
            "0ac8debeddd8f1f82175c595762b6213a7d70edd76eda356821d51c5991c4d71",
        "model_auth_arch_authentication_spinel_50_DecisionTree.json":
            "00b8dd424efcc6dd1aaed161fdc0a0424b40e28bcea0d7a0a777a5dee72dcd10",
        "model_auth_arch_authentication_spinel_50_GaussianNB.json":
            "3a841cd796ef271bfee3fd6f730cc3677ef81a85ab420143db77dac414aed681",
        "model_auth_arch_authentication_spinel_50_KNN.json":
            "b000ca7cebe2e73a6b841dc86de4d666debb17bde364ad4015901dfac49fc2c8",
        "model_auth_arch_authentication_spinel_50_RandomForest.json":
            "925401209e5c38902a500e1af255c4b0c11745e694c800744978a53897c4feeb",
        "model_auth_model_authentication_alpha_50_DecisionTree.json":
            "0c98a192984b5c81273112454f478b3c4d912733ed84fe3c04e3ec69ba884550",
        "model_auth_model_authentication_alpha_50_GaussianNB.json":
            "95b290aa2c2ceb4d23a030228f3f4899134fb38903c4eeb3edaaf7772042f6b5",
        "model_auth_model_authentication_alpha_50_KNN.json":
            "d9fa07adc91d8a8908429b26227f553e5b2f79ab766966f0a22348cf5256da96",
        "model_auth_model_authentication_alpha_50_RandomForest.json":
            "55e3a8317147caf2a68078f731fb631af7d771f6598e423e1596cbc293dee8f8",
        "model_auth_model_authentication_bravo_50_DecisionTree.json":
            "b34efcd119614e3df2a71305e882add5ca54a0bd67609c15aacf73f52dbf27c0",
        "model_auth_model_authentication_bravo_50_GaussianNB.json":
            "5b7f0524bbba6172f93edd4fe461dd4f93f4318a0d13b6746d503cae38dbb39c",
        "model_auth_model_authentication_bravo_50_KNN.json":
            "4579b617edd26deeb857aa5fe59efcebae491b4de882ceca079bf893dbb70dd6",
        "model_auth_model_authentication_bravo_50_RandomForest.json":
            "5b976ad18132793f64787f1f906d56157fdd27c678e1431053e8b8a8ca8f73c0",
        "model_auth_model_authentication_charlie_50_DecisionTree.json":
            "b5065d2618213611244ac3e3cbe94028d6a98ef80708d1146d5bbb362fd9e3e2",
        "model_auth_model_authentication_charlie_50_GaussianNB.json":
            "e26043d8e330dd4283063287d261a6c7b7cfd0d41abe80425d4e9401a6091c2f",
        "model_auth_model_authentication_charlie_50_KNN.json":
            "a9f87fc94e5fbeb33f53d90687b1cf2a3037b91ede7cbf5aa643d8c13876fcb8",
        "model_auth_model_authentication_charlie_50_RandomForest.json":
            "01b710f1eb2bfc14a130103e32c9b86d5ed2c8e3f0e7c5ea5d6c14aae0873934",
        "model_auth_model_authentication_delta_50_DecisionTree.json":
            "39c859cd7800c9caba570b7eddc5e89a3cfe6a55b421591cdcb9fb84f4714ad7",
        "model_auth_model_authentication_delta_50_GaussianNB.json":
            "5abbc04733b8c2537c40bda51c4b95fb6d1c20abaaadb9dc63f24b6cd5fd5d92",
        "model_auth_model_authentication_delta_50_KNN.json":
            "291ba992b1dd3845422b2d7098a1213ad09b02db3a00b002977de27743ba24d0",
        "model_auth_model_authentication_delta_50_RandomForest.json":
            "62068fbb72c8b143f0bdf39f3c129f5e1e0e1bbcef178b2f74d3a181b8943838",
        "model_auth_model_authentication_echo_50_DecisionTree.json":
            "4f775fd849e2b2256a0347e4e8456bdab77a298237387534c6472524072c7632",
        "model_auth_model_authentication_echo_50_GaussianNB.json":
            "806dc90c507fc204e38e41eea8e293275cc2a9aa5d3ba3a5434a25b5f414de5a",
        "model_auth_model_authentication_echo_50_KNN.json":
            "e66b9cd1834f154f561e0dd81a52cc8a3f12198253935462d34bf69359834c56",
        "model_auth_model_authentication_echo_50_RandomForest.json":
            "8dfcfe26047b5d32879ecd4afd573133cc4279235905cb4b63b0883a902a519b",
        "model_ident_arch_identification_DecisionTree.json":
            "d55608c6487aea32e120ed18065ca40ceeeaafc969469a6b7c9f410bd8d4cc23",
        "model_ident_arch_identification_GaussianNB.json":
            "5f3e2b6394996ee221c30dd61d50077daa28ce265eb787271a4497883fa60b74",
        "model_ident_arch_identification_KNN.json":
            "f7130094c8d1225273578d133f35d413db51cc81b736c44351c90a4221f5bf66",
        "model_ident_arch_identification_RandomForest.json":
            "774be41c4da87eb2bebbbb15b119a14fad3a39948216264ff8692ebf9ad4ab2b",
        "model_ident_model_identification_DecisionTree.json":
            "814d900c206f99322a717670e9d8fe350513c89e41628e5939b5bcf9daddad75",
        "model_ident_model_identification_GaussianNB.json":
            "ffe30bd0726fde0641f65a4078a8ef53bca50d57572aead8fe1d79ab1bf7c040",
        "model_ident_model_identification_KNN.json":
            "0a185f86c0784bf05112c2428652d2932c55117ff59d878e98c63d334b31efd0",
        "model_ident_model_identification_RandomForest.json":
            "bb5a95a0339218d1af1e3fefe60d616b6af756e5c9cdb349b7c799a526848664",
        "report.csv":
            "b1abb115b3307372fb19cad66ffc09f2be9b0fa4bb44952650b6fb0908cb2cca",
        "report.json":
            "bac9d781233fec329c152d61be349daec9b5aaee276bf6bb6f93d0a35db72e05",
    },
    "eis-screen": {
        "model_auth_arch_authentication_layered-oxide_50_KNN.json":
            "ae7e8b49eb04ca480a3cff2dbfb6e3729347f5fb00a6e73a13a117938a62c65d",
        "model_auth_arch_authentication_layered-oxide_50_RandomForest.json":
            "67578fa7a76f4bfcacd0e39ffd3998cc49a4f1773eb918086240c63da020e969",
        "model_auth_arch_authentication_olivine_50_KNN.json":
            "199478f4d3ae2e6b62545d90c664c6a1cfbca4c0f540c77deabb7c7f5da19b46",
        "model_auth_arch_authentication_olivine_50_RandomForest.json":
            "73a6ba1530839b14a8d3554a1dc8c3fc1cab74f2542557e99f04955db59b331f",
        "model_auth_arch_authentication_spinel_50_KNN.json":
            "49cdba3bf2799fbdf851184dd869befcba160514719ad4e1cb79fc34f140a360",
        "model_auth_arch_authentication_spinel_50_RandomForest.json":
            "7a5284abc7030504784584bc534490c4ce3c27de82a21e16be3a4779441e498b",
        "model_ident_arch_identification_KNN.json":
            "a182df63d54cd0e1a6e20b59ac336a2888166c0a9182652e31396e45921c689c",
        "model_ident_arch_identification_RandomForest.json":
            "4c046629d2453b3e6fc2abc4f259c17d10d94f21e714f4df680dce7fedff6eac",
        "report.csv":
            "2ce7f4e304b6bc7ff3fe1141cc7e655f2907bb8f91660f10542b02ffedb791a7",
        "report.json":
            "a568225bf913127b69c6f327eaf3368373f2304a64b094f6d8a01152967a88b4",
    },
}


def _run(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[workload]), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--output-dir", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workload", sorted(CONFIGS))
def test_run_writes_the_pinned_bytes(workload, tmp_path, monkeypatch, capsys):
    digests = _run(workload, tmp_path, monkeypatch)
    qda = [name for name in digests if name.endswith("_QDA.json")]
    assert len(qda) == QDA_FILES[workload]
    assert {name: h for name, h in digests.items() if name not in qda} == PINS[workload]
