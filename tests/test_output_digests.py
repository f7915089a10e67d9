"""Every output byte of a fixed tiny-shape command list, pinned by sha256.

Each command runs as `python -m otzsl` in a fresh interpreter with the BLAS
thread variables set to 1, as perfbench runs it, inside one work directory
where every path a command is given or prints is relative. The digests cover
every file the commands write and every command's stdout, so a change that is
meant to keep the output bytes shows that it does. A change that alters them
on purpose replaces DIGESTS with the dict the failing assertion prints, and
says so.

The digests were recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64; a
BLAS build whose kernels round differently gives other bytes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import otzsl

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

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
    "train/checkpoint.bin": "bf9a3c20b1cbcbd819dd12e3cf195a7334d7b617c965aab9101f3137a1d87dfc",
    "train/config.json": "40f9dd2581de82d4aedeab1d8534c59791ac6a792fd5b8a3beafe5d247518630",
    "train/trace.csv": "33e05ae3c1850c34ba62de2d14d7ba8d5669dadd5b1e85644e26da3b7a80bde3",
    "train_trans stdout": "f3ee008758eccc637fbe772e3de958bf441a30a5ad45bac566b95054c6781c20",
    "train_trans/checkpoint.bin": "d5b57fd62aa7afc7b9b62df6d545d7b42674e336bc5d416cfc6db8902b8a12a0",
    "train_trans/config.json": "f94049c16501514366fc8a32ca558761173409243a5e7739aedc1b13df9e335f",
    "train_trans/trace.csv": "b15f0b9146398f98d67dc5e244967ef952d54369435cfefddfc5632078a70dd9",
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
    "export/generated_features.csv": "683d5fff73fe3ab4cd8a487a8ae33173ddece0788419ec5f087b1c41320702df",
    "solve_ipot stdout": "0eb2205f985c4fd08cd126c37a3d60ed3e595c19444d15c807e37b942658b01a",
    "solve_ipot/config.json": "3c4f8a9dd62901b649efbe09f82b6c5267fc26a6af0c7c760eae8df12b194605",
    "solve_ipot/plan.csv": "45a52a3d06b295fcdf84b29edb53b19385666b27b6f541ef09438b96a15cae1a",
    "solve_ipot/solver_trace.csv": "c19d1633ac82e81e09d3c6f28bb9b1b01ae109e0f3cdd728d40c0b95bc3637f3",
    "solve_sinkhorn stdout": "5a0a04a897ff90dcf6ea0a251c65510352b54010f115ba57d0163c33b7c5d0ea",
    "solve_sinkhorn/config.json": "01a037c122c503691ed26e366f451e6ed37165778f4329e1a743667b0e1cab73",
    "solve_sinkhorn/plan.csv": "e08aa71431c0220f0324e2310df041c8f211f2e96619ce0bb7cc8760a7952fca",
    "solve_sinkhorn/solver_trace.csv": "b9bb614db728934549dbfd9765770554c67b312e2f42a50cb085812614c47494",
    "compare stdout": "1c347298dcb0b07d30a79b3cfac98351c83546058b2b7d95b0b9057ff912770f",
    "compare/config.json": "07ed1ef7c3eae2c4c2285869b68ec8e29372220d9cd3e46f7033854b3cbdf05a",
    "compare/curves.csv": "4b71addc6039e6b3080dcdc4cbdeef0ee1a27a1c14fcef433df63daf40a27d86",
}


def write_inputs(work: Path) -> None:
    for name, cfg in CONFIGS.items():
        (work / name).write_text(json.dumps(cfg))
    rows = [",".join(repr(((3 * i + 5 * j) % 7) / 4) for j in range(4)) for i in range(5)]
    (work / "cost.csv").write_text("rows,cols\n5,4\n" + "\n".join(rows) + "\n")


def test_output_bytes_are_pinned(tmp_path):
    src = Path(otzsl.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), **{var: "1" for var in THREAD_VARS}}
    write_inputs(tmp_path)
    digests = {}
    for out, argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "otzsl", *argv, "--out", out],
                              cwd=tmp_path, env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0 and proc.stderr == b"", (argv, proc.stderr.decode())
        digests[f"{out} stdout"] = hashlib.sha256(proc.stdout).hexdigest()
        for path in sorted((tmp_path / out).iterdir()):
            digests[f"{out}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == DIGESTS, json.dumps(digests, indent=4)
