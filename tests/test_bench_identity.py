"""The benchmark's files keep their bytes.

Each of the three ``perfbench`` workloads is built at seed 7 as
``perfbench/run.py`` builds it, its inputs are written with the library's
writers, and each CLI step runs once. Every file it leaves, inputs and
outputs, must have the sha256 pinned below, so a change to a writer, a
reader or a pipeline that alters any byte of them shows here.
"""

import hashlib
import importlib
from pathlib import Path

import numpy as np
import pytest

from textdetkit import formats
from textdetkit.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# run.py seeds workload i of this tuple with default_rng([seed, i])
WORKLOADS = ("ensemble-mask", "curved-eval", "forward-ref")
SEED = 7

SHA256 = dict(line.split()[::-1] for line in """
2eee7db9443c5b4694ae5c023a7313376797df0f0ca5037cc725c1e5e609be42  ensemble-mask/f0-fused.json
db1c4040022005fb291bea26d612fcb01ae56b31239c694e7c34f9b1cf3589f9  ensemble-mask/f0-model0.json
043a90b74350a0883049b5ebed56c51f1ed01eae3156c8280689d79a62f4ba30  ensemble-mask/f0-model1.json
457f649ae0e18d068185fe6bc1f3a4423b5203845deebd25ba8b3cecfdbf5660  ensemble-mask/f0-model2.json
532f72f29e35c23fdb26babc2fb154cc6948cebdb3a7ed391db255835c76af23  ensemble-mask/f0-nms.json
e05cd8c92390ee4eb6234623c0f1dd27877a3034fe922ed50f342e10db8e1ccb  ensemble-mask/f1-fused.json
87d7fc7376e4124dad87d84117442bfa8ae01b565dc8f030a95b05ffa948fd59  ensemble-mask/f1-model0.json
536ebece1ad096e35ea4adb4bb8dea7733707ca4c16d703e5bf19ae61e57314c  ensemble-mask/f1-model1.json
e1a65f5808b5c7ffd6aaf3002a1bdcee1f06e1e3b2c9e34715783fba001fafe5  ensemble-mask/f1-model2.json
17bf7c14342c4fa43784c08ffcbe584a21b1bb952f92e78fe771aa42645d2e11  ensemble-mask/f1-nms.json
ac8f45c5e7d3747befafc9052b805195b70519be5de73d8eddf5191a5167a1b4  curved-eval/f0-gt.json
a87dbd0b17a0e1bef6ba01910b78b57e21de6d7ad7bd911b019970428adeed13  curved-eval/f0-model0.json
25b5651d70a377a30459b79ea8f8bb0dcf294fb71424867f4d6ab7da3787d7ad  curved-eval/f0-model1.json
f25e7b5f47d9c7cfe1ae12afc7e4598c4dace8115a493dbd3c4464ae66ff4dd5  curved-eval/f0-model2.json
ca4504e4678e28c225132ec58ffead202d3619adc2de8012a3928e621e13299b  curved-eval/f0-nms.json
a2775df994649a114a1ca6a9ed7a00eadb6cd465f87d183d686b0bc595f94273  curved-eval/f0-report.json
3eea8274678bb27fa0afcba188b86e86f96ce857fed3dd1778e942c91f497f8e  curved-eval/f1-gt.json
371319dfd00dfd23ac0021179343dcce356ccb4986782adc17f78a6432877fac  curved-eval/f1-model0.json
842dbf4ef5ba52043424822e41c7f9b2300d1540f260f9cda2ecdcf3cd62a1c8  curved-eval/f1-model1.json
0c40dab4efef473ffa8b4e47e289e055eeecd77cadcb822d6b3f228c19020ff0  curved-eval/f1-model2.json
76ceb5c1b9477c0f0aa389b2a8b757c60b1be577739c1bd61af2b5b477de79d8  curved-eval/f1-nms.json
7907f95166a41628e680a2bc4492bcf23cc1b619dea4b6124bfacf968df9d2d7  curved-eval/f1-report.json
8abec2070e0e3da7a18c6ca884a5a30f3f032cd50da0dd7aed63141b6053dc53  forward-ref/f0-inter-in.json
6acb49faa97bee4fd2ebbe7b31368267b8caad5fb73fe4c2d9aa8d6d55844e1e  forward-ref/f0-inter-out.json
8acdb2d83147fe846afe0795f070d9adf52674e2b76145c90f011258e92b8b7e  forward-ref/f0-intra-in.json
6e57eae1ee5cfd706a71565f701d05bb0f60a10652328507c2c90978beb3fbed  forward-ref/f0-intra-out.json
bd599b68b83dfe3b25442fcd352a2951d789d7836bb01f0ce4d350049fdfc4c2  forward-ref/f1-inter-in.json
135b24f03e513a9228aabb23cbe4abec01d975a083b90cf1f7455e99542f907e  forward-ref/f1-inter-out.json
e805d5dd019c118cb69b15e2a11ddbfd9f202327f86a624919836c7b795c7a0e  forward-ref/f1-intra-in.json
9401090c8bfe4cc604896e96617c1dc95956f37bbe193ace3eef43afd01af1b8  forward-ref/f1-intra-out.json
533f6bbf32f20f6442a33a1189a7b96a72a95987225acbe81af0729bc1b40fc5  forward-ref/inter-weights.json
39dc83d8274595addff983ec03ae8b2cb37063fe806403142679fd0ea7709ce9  forward-ref/intra-weights.json
""".strip().splitlines())


@pytest.mark.parametrize("index, name", enumerate(WORKLOADS), ids=WORKLOADS)
def test_seed_7_files_keep_their_bytes(tmp_path, monkeypatch, index, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.BUILDERS[name](np.random.default_rng([SEED, index]), tmp_path)
    workload.write_inputs(formats)
    for frame in workload.frames:
        for step in frame.steps:
            assert main(step.argv) == 0, f"{frame.name} {step.label}"
    got = {f"{name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.iterdir()}
    assert got == {k: v for k, v in SHA256.items() if k.startswith(name + "/")}
