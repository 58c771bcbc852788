"""Byte-level pins of run_experiment reports, per filter method.

Every FILTERS method runs with fold_safe off and on, under the tree and
the rule learner, after frequency and MDL discretization, on one small
seeded dataset with numeric and categorical features and about 10% of
its slots missing. Each report's canonical JSON (no timings) is pinned by
its SHA-256; a combination that raises is pinned by its DataError text.
The digests were recorded from the implementation with one fold loop per
fold_safe setting; any refactor of the experiment path must keep them.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from valsel import DataError, ExperimentConfig, LearnerSpec, dataset_from_rows, run_experiment
from valsel.evaluate import FILTERS


def pin_dataset():
    """48 rows: two numeric and two categorical features, 3 labels, ~10% missing."""
    rng = random.Random(16)
    rows, labels = [], []
    for _ in range(48):
        n1 = rng.gauss(0.0, 1.0)
        n2 = rng.uniform(0.0, 10.0)
        c1 = rng.choice("abc")
        c2 = rng.choice("pq")
        score = n1 + (0.8 if c1 == "a" else 0.0) + rng.gauss(0.0, 0.5)
        labels.append("lo" if score < -0.4 else ("mid" if score < 0.6 else "hi"))
        row = [f"{n1:.3f}", f"{n2:.2f}", c1, c2]
        rows.append([None if rng.random() < 0.1 else t for t in row])
    return dataset_from_rows("pin", ["n1", "n2", "c1", "c2"], rows, labels)


# the knobs each method reads; the rest keep their defaults
KNOBS = {
    "pvs": {"epsilon": 0.7},
    "pvs_plus": {"epsilon": 0.7, "iota": "infogain"},
    "reservoir": {"fraction": 0.3},
    "drop_columns": {"columns": ("n1", "c1")},
    "random_value": {"rate": 0.3},
}


def outcome(method, fold_safe, kind, disc_method, **knobs) -> str:
    cfg = ExperimentConfig(
        disc_method=disc_method, bins=3, method=method, seed=3, repeats=2,
        folds=knobs.pop("folds", 3), fold_safe=fold_safe, learner=LearnerSpec(kind),
        **{**KNOBS.get(method, {}), **knobs},
    )
    try:
        text = run_experiment(pin_dataset(), cfg).to_json()
    except DataError as e:
        return f"DataError: {e}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CASES = list(itertools.product(FILTERS, (False, True), ("tree", "rules"), ("frequency", "mdl")))

DIGESTS = {
    ("none", False, "tree", "frequency"):
        "15b3c337ceae7073228443e2f6b7688797fae4eedcc456a06e88a7a529ea5b71",
    ("none", False, "tree", "mdl"):
        "f0cca05c55f375a229809951dcf560459158c959c1679ae0a2de56d0794f5dd2",
    ("none", False, "rules", "frequency"):
        "7b723c7dbb8429e0cf393de000b095d2f9981eb0d0e963026b4376403638cfd5",
    ("none", False, "rules", "mdl"):
        "f4ba847d2332b6ebcffa90b998d9e89db6fca6acb47df272f9f759414f3dddd4",
    ("none", True, "tree", "frequency"):
        "ac21b2638db1309c612eaf338cdb61e1ab2957212eacce6578ddb74fe3940088",
    ("none", True, "tree", "mdl"):
        "64679e60289cbd6ed431d153629c3e34953647299353df314500939e1af41878",
    ("none", True, "rules", "frequency"):
        "d099aafeb43512650f5c6427cc3ae6b4c1eedddcd324098fef8304f87d26ce3e",
    ("none", True, "rules", "mdl"):
        "09848cd26719f5c60d90d4ad9671d7f2eda3bd0850d85f5ecd84949434d724cb",
    ("pvs", False, "tree", "frequency"):
        "75e92df09360140b1b96a088521c49051b76c89a720d7bbc9ea92cb478cffb7b",
    ("pvs", False, "tree", "mdl"):
        "DataError: filtered dataset left 0 instances, too few to cross-validate",
    ("pvs", False, "rules", "frequency"):
        "fa3c4d7e1768e3cc953177c67f66d7ceface72d0ea1e687e335df9b1a2da9e94",
    ("pvs", False, "rules", "mdl"):
        "DataError: filtered dataset left 0 instances, too few to cross-validate",
    ("pvs", True, "tree", "frequency"):
        "adc408e61164ade8cd18c1c44c3b55024e2eca1dbb64dc1e2d8edf355e713b12",
    ("pvs", True, "tree", "mdl"):
        "DataError: fold 0: filter removed every training instance",
    ("pvs", True, "rules", "frequency"):
        "0977e825dbd95ecc4605090d0504e58ac20286f95f2df2d4bf4bcc814d474941",
    ("pvs", True, "rules", "mdl"):
        "DataError: fold 0: filter removed every training instance",
    ("pvs_plus", False, "tree", "frequency"):
        "425cc049e10d1b5da2c7ebda84430f740a9c0ca9c15137ce382fe23ced34e64a",
    ("pvs_plus", False, "tree", "mdl"):
        "35b79906e29fe5bd2993ce2c533788c92d56c1406392c0fb9dc871e7cd7506ad",
    ("pvs_plus", False, "rules", "frequency"):
        "2f619f3e87675e1ff895baab6ccb93165ce93cf39b476940964f366acd28e8f5",
    ("pvs_plus", False, "rules", "mdl"):
        "9bd1348f1e7dd00b41cf44b60d966813bf3e061ce73a251caf0abdbaa80daae2",
    ("pvs_plus", True, "tree", "frequency"):
        "962a85373556e1f8bb78045d9807b15d78416810ea8b4414649540ff1f202e39",
    ("pvs_plus", True, "tree", "mdl"):
        "5c9b17b4feadb96804d0c931e83c76fd2dd672c64f36131257300398752de1bd",
    ("pvs_plus", True, "rules", "frequency"):
        "d3079330a2e0ff49672e927302c9a3e8eec3f736c87b5f9805dd64b62f313757",
    ("pvs_plus", True, "rules", "mdl"):
        "24c184b223d1c10732e543d80947faedadce5cf8a49d55d5101a634d77d43f3a",
    ("reservoir", False, "tree", "frequency"):
        "ee6fb0eb3b3f19999e29a7284144e08b946a42da32b9434e3b320598d22c755f",
    ("reservoir", False, "tree", "mdl"):
        "1d240c8548add43c679e2687a3eecda97585f9aea7e87f6e034748ac7589de57",
    ("reservoir", False, "rules", "frequency"):
        "c53c5c6448329a7f91b1ad81d3ddd176394ee491e5a52041ef8c9f4ded027be2",
    ("reservoir", False, "rules", "mdl"):
        "11f07cb3bf8c7c82dfd8841ed752f690965201bd12e001c6d382dd3171bd16be",
    ("reservoir", True, "tree", "frequency"):
        "58fe4d8877047dfbf32ae26da6fc43fcc2afcc77c85f1991a1385107536133a8",
    ("reservoir", True, "tree", "mdl"):
        "fbbb8d10c7edc3374da7215582c718ee0e1c18fc7b525efa9393aee7956a4339",
    ("reservoir", True, "rules", "frequency"):
        "32cda90c5d7af9ad61f4b1832415d88f449c2eae86b6b4878efa2bae0ddcd26b",
    ("reservoir", True, "rules", "mdl"):
        "611774461fbabae969d9672b9f7982d2d8aa5940e1cdb7cec24b9cb02683af18",
    ("misclassified", False, "tree", "frequency"):
        "129be8487f204ae0eebdee3565a4b2d07093a48e56ddf719b3630a0f945e2c83",
    ("misclassified", False, "tree", "mdl"):
        "1ee9570fff03439e975e124ad0e6cee72d1b1185d66f5416f050886c92b3a566",
    ("misclassified", False, "rules", "frequency"):
        "98616300562b18b13e7aa58caa0f35eff9b5cb7ab032ab9d63fbaa1da863537b",
    ("misclassified", False, "rules", "mdl"):
        "bab4e312b962065621d2a419318839400fb01dcbe66005e48ea45dfe36a0afc8",
    ("misclassified", True, "tree", "frequency"):
        "86d8edc0207944b8fbad8aa1b9056db6958fc13bf661e51803152c9d79020350",
    ("misclassified", True, "tree", "mdl"):
        "1db87e41f5bbbb0482e0c11c2394618b2254d085dacf08ac3c751d3201e47787",
    ("misclassified", True, "rules", "frequency"):
        "a37893c38f52484a2a975193de905c80df7d8539dec7dd96738214b0a3525691",
    ("misclassified", True, "rules", "mdl"):
        "d25f4ff99a0f86b27bc6986a25caa6aab636ca8d87acc1649b23a6d7638eee5f",
    ("drop_columns", False, "tree", "frequency"):
        "e09d1031dd426dcaba17f63c5b92f5bcb597ca9595b1d59d0306e15c901afd8f",
    ("drop_columns", False, "tree", "mdl"):
        "18f2b60a15700afc2611b42dba6399dee7403f649edfb8c764a0c8c01c051cc4",
    ("drop_columns", False, "rules", "frequency"):
        "eae6913de8558bd2f5893e1a578747e10cdc8347658d1be3cfb5f8cb77c70860",
    ("drop_columns", False, "rules", "mdl"):
        "81bd8777398f1b60addd73a550ce64b6d2ebbf7bae454a726c1b69b47dd6515e",
    ("drop_columns", True, "tree", "frequency"):
        "fcd5b4c5d64e1699239ec37e16e7590b63733386e9fe5626c4b81a5db56e4cf7",
    ("drop_columns", True, "tree", "mdl"):
        "25144e2e6f9fdf58830723c8e0be48853323289b9203e0ea8dc39592b632291d",
    ("drop_columns", True, "rules", "frequency"):
        "87c9914e8c10c621add910a0b389733275f2172f6c87bdb063bcc01655eb053c",
    ("drop_columns", True, "rules", "mdl"):
        "a2a6d95ceedf0ddf720eb3ad434d66e36fd087251d4a6330627201aeedb80773",
    ("random_value", False, "tree", "frequency"):
        "307cdbb3f93d51c489894470285fc34ae094885a875312f0e14c220af8e742f0",
    ("random_value", False, "tree", "mdl"):
        "a74f08239a2e9e6976fbd66ee480a21336ffc5d8725c2def30a8503cbf80fee1",
    ("random_value", False, "rules", "frequency"):
        "1b278040b44bce44dbe4d60ff75d8e00877e631e05c6ae72a870aa30a6b0a5f8",
    ("random_value", False, "rules", "mdl"):
        "54f7dd113ff53a6151fa54e029102cec750bac10bf865a4a57174a8461ab0bb1",
    ("random_value", True, "tree", "frequency"):
        "4a3ab9133b428bb8a12913ac16eda87c4aa41c9a245235953c83c45bf4cb2a99",
    ("random_value", True, "tree", "mdl"):
        "d96fba1cdd51729aca4cca9fb993fbe61b0a763f7168f10f4136d4c76337055d",
    ("random_value", True, "rules", "frequency"):
        "c09ec6f39891e956ceb07f58684acddd0d34958326574fef7d1cbbca3c281674",
    ("random_value", True, "rules", "mdl"):
        "19e5545d0d24ea10d2c16c8b906986422779c806b198dd83ae523b9382da26ac",
}
CLAMPED = {
    False: "cd85c73b9b2022a40dcaf1ff701b77d16eddc7daa36c228b1914e538c0371b96",
    True: "f23303836068ce5f561d3d92d8310323a43eb4af0571a4367792e69ef2312ff3",
}


@pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(map(str, case)))
def test_report_bytes_are_pinned(case):
    assert outcome(*case) == DIGESTS[case]


@pytest.mark.parametrize("fold_safe", [False, True])
def test_a_shrunken_filtered_dataset_is_pinned_too(fold_safe):
    # 48 rows at 4 folds: a 5% reservoir keeps 3 rows of the whole dataset,
    # so whole-dataset mode clamps its folds; a training fold keeps 2
    got = outcome("reservoir", fold_safe, "tree", "frequency", fraction=0.05, folds=4)
    assert got == CLAMPED[fold_safe]
