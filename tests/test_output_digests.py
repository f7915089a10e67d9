"""Every output byte of two fixed command lists, pinned by sha256: a tiny-shape
list of every command, and training and evaluation at the shapes the desk and
paper workloads train at.

Each command runs as `python -m otzsl` in a fresh interpreter with the BLAS
thread variables set to 1, as perfbench runs it, inside one work directory
where every path a command is given or prints is relative, and with
OpenBLAS's kernel pinned (BLAS_CORE) whatever the caller's environment says.
The digests cover every file the commands write and every command's stdout,
so a change that is meant to keep the output bytes shows that it does. A change that alters them
on purpose replaces the dict of each failing test (DIGESTS,
WORKLOAD_DIGESTS) with the dict its assertion prints, and says so.

OpenBLAS built with DYNAMIC_ARCH, as numpy's wheels are, picks its kernel at
run time from the CPU, and kernels round float64 products differently: digests
recorded under the SkylakeX kernel fail under Haswell, Nehalem or Prescott.
So the children set OPENBLAS_CORETYPE to Prescott, the baseline kernel that
every x86-64 CPU runs (OPENBLAS_VERBOSE=2 reports it as `Core: Katmai`).
The digests were recorded under it with numpy 2.4.6 and OpenBLAS 0.3.31. An
aarch64 machine runs no x86 kernel and gives other bytes; so does another
OpenBLAS release or another BLAS.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import otzsl

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_CORE = {"OPENBLAS_CORETYPE": "Prescott"}

CONFIGS = {
    "gen.json": {"seen_classes": 3, "unseen_classes": 2, "attr_dim": 6, "feature_dim": 8,
                 "samples_per_class": 8, "noise_sigma": 0.2, "seed": 5},
    "train.json": {"hidden_dim": 8, "batch_size": 4, "epochs": 2},
    "eval.json": {"n_synth_per_class": 20, "classifier_epochs": 10},
}

# (output directory, argv after `python -m otzsl`, without --out)
COMMANDS = [
    ("data", ["gen-data", "--config", "gen.json"]),
    ("train", ["train", "--config", "train.json", "--data", "data"]),
    ("train_trans", ["train", "--config", "train.json", "--data", "data",
                     "--mode", "transductive", "--seed", "3"]),
    ("eval_standard", ["eval", "--config", "eval.json", "--data", "data",
                       "--checkpoint", "train/checkpoint.bin", "--mode", "standard"]),
    ("eval_generalized", ["eval", "--config", "eval.json", "--data", "data",
                          "--checkpoint", "train/checkpoint.bin", "--mode", "generalized"]),
    ("eval_trans", ["eval", "--config", "eval.json", "--data", "data",
                    "--checkpoint", "train_trans/checkpoint.bin", "--mode", "transductive",
                    "--seed", "2"]),
    ("export", ["export", "--data", "data", "--checkpoint", "train/checkpoint.bin",
                "--classes", "all", "--per-class", "3"]),
    ("solve_ipot", ["solve-ot", "--cost", "cost.csv"]),
    ("solve_sinkhorn", ["solve-ot", "--cost", "cost.csv", "--solver", "sinkhorn",
                        "--iters", "40"]),
    ("compare", ["compare-solvers", "--size", "4", "--instances", "2", "--iters", "30",
                 "--seed", "3"]),
]

DIGESTS = {
    "data stdout": "a35952ecfec65201683c146b7a5f150f1bd00b867d48b6fcb2421e7fc2f4dcff",
    "data/attributes.csv": "9ca3d2bb6f47eef7b68d82b07b023c698598137c26ce80bdcfe273a60999ed68",
    "data/config.json": "411c183cda14edef8e933ea6d89474b700cfc9b8d04c06b97fbc11cf6b7eb2f4",
    "data/features.csv": "9c4da880c97fe9657a671de525d9edffd7e69d3e3312d58a205f79ab781438fd",
    "data/split.json": "329c29277984628a678a28ea87555756bfbe9e83abe090fd855820cbd1947321",
    "train stdout": "3fa88fc8d1562c79372639aef7dcc1663e37d14c6a56c5466ee3b76c74bd53a3",
    "train/checkpoint.bin": "a4260a67bcf1b149e4d4da60370559f2dd14fa300e8e5ce4c0c05d17aca3badb",
    "train/config.json": "5050172eaeb8c32440668ba8f19235ee8755c4f25dcf8e1286bf4e1421935d36",
    "train/trace.csv": "bd9bb880f273cdcdde8a9e21f8032cd6b8037fd5a2e05461e3e021e9e429e70d",
    "train_trans stdout": "f3ee008758eccc637fbe772e3de958bf441a30a5ad45bac566b95054c6781c20",
    "train_trans/checkpoint.bin": "81cf119edb6578acecb01466ac61624bd3547f396dfbf8393edbed479057833b",
    "train_trans/config.json": "683c5d2172c6c8b6a6bf2c6c710b2dbad3648d0c12ff2f451005308ca91afc87",
    "train_trans/trace.csv": "225f9e0930c99144cbdd34001198144f52a2c61b0b9fb1bd1aaea314676450be",
    "eval_standard stdout": "875eb00c6f7ff9b07c5db62b5b8480d4cd488347622e54afeeacc42a4b78cd2d",
    "eval_standard/config.json": "47c2ec09f1d27903a9c2ac4c21a67a25e1541af2713dd06285cb6cb8ce16fc05",
    "eval_standard/report.json": "f9f50a5c2cd7ce1f4a431a648c3df263e34d7237562526ca253e5db32afc346b",
    "eval_generalized stdout": "112cba3b2c96e61cb7255b02d96d4754f12cc9c195325c50875bb5da5045495d",
    "eval_generalized/config.json": "3c788775553dc914cb1838d03e1455f5e22a5c2fd1de3d05c5340dce0254bf37",
    "eval_generalized/report.json": "86b08dedf815480b19c2c9ddb026d075a7a6d8ddcf6261588766f7e69f31594b",
    "eval_trans stdout": "f43d4aa2d8f77f783818855960aa1f471ffffaead0315a7a93376b5ceb9ab854",
    "eval_trans/config.json": "5da4d1b827c47b25b3b685cf68b15d8a97e258751d5046852ee225bb4f04e8d5",
    "eval_trans/report.json": "009b00b7db3a6a70bfaa8e151ee957932c9d1078ddf43e928317bbc37c8cb7a0",
    "export stdout": "12540220ea1a2d869090cd1839fc0bc275678e09a55382705d8d962bf6eb7799",
    "export/config.json": "ae36d06d798832fb99a486295a198bfb4cb076e59c0cc8da1476d3a455fdbb40",
    "export/generated_features.csv": "bdf2a2b1513ce88191332989251496c9ce424708a7266cef74ba026cfea4a50d",
    "solve_ipot stdout": "f5ee374bc6d94f5b732e1d1b575d50dfca3b142efad9f822d39050201848c81d",
    "solve_ipot/config.json": "3c4f8a9dd62901b649efbe09f82b6c5267fc26a6af0c7c760eae8df12b194605",
    "solve_ipot/plan.csv": "390060bf24ceb7198490fadd39e878e0c084b515cf253e622555c0d998fc4d28",
    "solve_ipot/solver_trace.csv": "583c11192f2cd52cfc37df365e101cb785e1a5595d4a593dfbb252d442c1c2c2",
    "solve_sinkhorn stdout": "5a0a04a897ff90dcf6ea0a251c65510352b54010f115ba57d0163c33b7c5d0ea",
    "solve_sinkhorn/config.json": "01a037c122c503691ed26e366f451e6ed37165778f4329e1a743667b0e1cab73",
    "solve_sinkhorn/plan.csv": "c3d8729b6b474aca443c1dca28f5a9e5a05c7bf2acac21284c2ef23ac2718e7b",
    "solve_sinkhorn/solver_trace.csv": "f1ab8e72aba055a7af52b7a1a527cec1e0e01977ba85dbf2a1f16cd58f8afd11",
    "compare stdout": "1c347298dcb0b07d30a79b3cfac98351c83546058b2b7d95b0b9057ff912770f",
    "compare/config.json": "07ed1ef7c3eae2c4c2285869b68ec8e29372220d9cd3e46f7033854b3cbdf05a",
    "compare/curves.csv": "8f2605a4bc883904f41ee99af9c60c3edf2a1a1903a066b9e8905b743c88435c",
}


# OpenBLAS picks its kernels by shape, and a product that keeps its bytes at
# batch 4 need not keep them at batch 32: slicing the columns of `r @ s.T`
# equals the product of the sliced rows at 4x8, 128x512 and 128x2048, never at
# 32x32 or 32x512. So the default desk shape (batch 32, 32-D) and one of
# batch 128 with 512-D features are pinned too, one epoch each. ot_prob 0.5,
# and at batch 128 training seed 1, make standard training take both branches
# within its epoch.
WORKLOAD_CONFIGS = {
    "wide.json": {"feature_dim": 512, "samples_per_class": 40, "seed": 2},
    "desk_train.json": {"epochs": 1, "ot_prob": 0.5},
    "wide_train.json": {"epochs": 1, "ot_prob": 0.5, "batch_size": 128, "seed": 1},
    "eval.json": {"classifier_epochs": 2},
}

WORKLOAD_COMMANDS = [
    ("desk", ["gen-data"]),
    ("desk_train", ["train", "--config", "desk_train.json", "--data", "desk"]),
    ("desk_trans", ["train", "--config", "desk_train.json", "--data", "desk",
                    "--mode", "transductive"]),
    ("desk_standard", ["eval", "--config", "eval.json", "--data", "desk",
                       "--checkpoint", "desk_train/checkpoint.bin", "--mode", "standard"]),
    ("desk_generalized", ["eval", "--config", "eval.json", "--data", "desk",
                          "--checkpoint", "desk_train/checkpoint.bin", "--mode", "generalized"]),
    ("wide", ["gen-data", "--config", "wide.json"]),
    ("wide_train", ["train", "--config", "wide_train.json", "--data", "wide"]),
    ("wide_trans", ["train", "--config", "wide_train.json", "--data", "wide",
                    "--mode", "transductive"]),
    ("wide_generalized", ["eval", "--config", "eval.json", "--data", "wide",
                          "--checkpoint", "wide_train/checkpoint.bin", "--mode", "generalized"]),
]

WORKLOAD_DIGESTS = {
    "desk stdout": "81776ce32d9ef4484ffaea3f342e9453de51678bb216dd83fc8f67432e360498",
    "desk/attributes.csv": "894822ad36823e5a4baa14ec2100bbaa51e6b59f1ab45848b010a1dd638f010e",
    "desk/config.json": "34ba0159fca6f32a7ff2580bc4a586871cb27cd1f8acdf53ceb327fc56beacc1",
    "desk/features.csv": "db4fa430203d1dbdd35d592f17c5fb10dfa35b2dd8fe9597ac22e27c04378feb",
    "desk/split.json": "376f15c49aeea581f95db77b3d5f8ed6c3327a734e16c5049b448cc350b65126",
    "desk_train stdout": "753e1355cdd11455bcfdb037318154415159aedb1e5eb9a2191b596d53ae9342",
    "desk_train/checkpoint.bin": "b94b1f03ac6c360978a2852e3cf2413f5ea72f91c6878b0ead4919ae964ef927",
    "desk_train/config.json": "e0d468c86a6f64514362aa779441277177bb1bb67280ac260b1f900dedeba312",
    "desk_train/trace.csv": "b52e7b83c4bb5460ba3dac5f8bd224d9477a0d5ca57514aa619aff3f8b7578c3",
    "desk_trans stdout": "9756fff82e6859deeb73303f48bfd240e357c589446b85cb6e986156aad3fa4a",
    "desk_trans/checkpoint.bin": "82365006caf26f3234c1c803705b1c5e80f40bea8535d18ef615d59ab9f9f73d",
    "desk_trans/config.json": "dfb005ea1eda504c9b25ac7e39b99ff10327a941188bbeb26965441d31833376",
    "desk_trans/trace.csv": "58ae7da5e53ce911fff7456d42f38cbb763adba044d2431e95e02cea32471afa",
    "desk_standard stdout": "7d25eb5778b9e69ba82ea91040d3a3a3fcc417e6cb35e2d33ef72490871c4334",
    "desk_standard/config.json": "85825ebf12519bac096d137d928f535d9eaac7c3deebc7ed93254600289737aa",
    "desk_standard/report.json": "7909206e33e529a4d24f28df31046efa24881e363964c9a55a86417b854f4df4",
    "desk_generalized stdout": "4e3ef3801fadef6732d171e5294e3aae57978a30db90f6670bbd2536415d633e",
    "desk_generalized/config.json": "d8f9cf3e826f0fab0a53a7cc0871e0c956fe32ab10c9c731e525d2a0e1c8cf0c",
    "desk_generalized/report.json": "f5adbd837d50644759064b9f0e09d9cea55ed0f677fc438a810ff96169520d31",
    "wide stdout": "de8a13157a3a8fbd8c642444ee1f8e3d9d82c03893424b7d862ec79a061b4c17",
    "wide/attributes.csv": "89012db0fdf0ecf266328293a317c3334a1d077d5bd3617d8a1983bbb032ceae",
    "wide/config.json": "ead4f34aa8bcd8d8e31a3411f029b938d843a71ba1c3ed166e6c23084645463e",
    "wide/features.csv": "3d7038a8100ef998b92a56a734871f37e81beac4a12ca9eb68f6d8a90fe3c1c1",
    "wide/split.json": "bb301e5a04babf063911f9f7defe7aecee94e1ec768c80bcab819a1a77042661",
    "wide_train stdout": "aa1e2f5ef04b96f10c3aabbe7e2563cc9858a5847d59fabf9045558877698dbe",
    "wide_train/checkpoint.bin": "bf508848760345390233a574e91833d626e659f903fc59599f908b056735a830",
    "wide_train/config.json": "15672a07f95597bb0a2787108fcc0cf16c2d951155eb0f5a4139f8152a2836e8",
    "wide_train/trace.csv": "d0297d2e04b412565aec992c5a6fb234502d0e685753f56cfaedbb371262f0b0",
    "wide_trans stdout": "674d5e67e9595ebda789ac688f8833398b26d8751279c73479f152c891e21c95",
    "wide_trans/checkpoint.bin": "830d50e531c66d0dece1307ad3d3470e65e029ed3ecc387c3ae8d7657b1f9b0b",
    "wide_trans/config.json": "a1fa1fad45638d82432a91b549ea2a975e0c6af96ebc1fcc03204800808b3494",
    "wide_trans/trace.csv": "d9e76f2a6eba32b643e55a4ec77485bb252006e7ca14d6e73ac77c3ac3faa8f2",
    "wide_generalized stdout": "8122911028bd290a726d53cf795f3fd90aa8a7df9f715479286b7551055ecf93",
    "wide_generalized/config.json": "50b8955cbacc807f8bf01a6685acc78133aaa0925d50690e2a8a0146374efef5",
    "wide_generalized/report.json": "03c9b24c12856cbf7997b28876bfa5cc5b453e031ddac1616374d46e01716872",
}


def write_inputs(work: Path, configs: dict) -> None:
    for name, cfg in configs.items():
        (work / name).write_text(json.dumps(cfg))
    rows = [",".join(repr(((3 * i + 5 * j) % 7) / 4) for j in range(4)) for i in range(5)]
    (work / "cost.csv").write_text("rows,cols\n5,4\n" + "\n".join(rows) + "\n")


def output_digests(work: Path, configs: dict, commands: list) -> dict:
    """The sha256 of each command's stdout and of every file it writes."""
    src = Path(otzsl.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), **{var: "1" for var in THREAD_VARS},
           **BLAS_CORE}
    write_inputs(work, configs)
    digests = {}
    for out, argv in commands:
        proc = subprocess.run([sys.executable, "-m", "otzsl", *argv, "--out", out],
                              cwd=work, env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0 and proc.stderr == b"", (argv, proc.stderr.decode())
        digests[f"{out} stdout"] = hashlib.sha256(proc.stdout).hexdigest()
        for path in sorted((work / out).iterdir()):
            digests[f"{out}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_output_bytes_are_pinned(tmp_path):
    digests = output_digests(tmp_path, CONFIGS, COMMANDS)
    assert digests == DIGESTS, json.dumps(digests, indent=4)


def test_output_bytes_are_pinned_at_workload_shapes(tmp_path):
    digests = output_digests(tmp_path, WORKLOAD_CONFIGS, WORKLOAD_COMMANDS)
    assert digests == WORKLOAD_DIGESTS, json.dumps(digests, indent=4)
