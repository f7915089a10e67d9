"""Where the traced run wraps otzsl: one row per call site.

A module that did `from .ot import ipot_solve` holds its own binding, so a
wrapper goes where the caller looks the name up (otzsl.training.ipot_solve),
not where the function is defined. Two sites may share a span name; a
function with callers worth telling apart gets one name per caller.
The last column names a counter that the traced run reads from the call's
arguments or result.
"""

DATASET_FILES = ("attributes.csv", "features.csv", "split.json")

# (module where the caller looks the name up, attribute, span name, counter)
SITES = [
    ("otzsl.cli", "cmd_gen_data", "cli.cmd_gen_data", None),
    ("otzsl.cli", "cmd_train", "cli.cmd_train", None),
    ("otzsl.cli", "cmd_eval", "cli.cmd_eval", None),
    ("otzsl.cli", "cmd_solve_ot", "cli.cmd_solve_ot", None),
    ("otzsl.cli", "train", "training.train", None),
    ("otzsl.cli", "write_trace_csv", "training.write_trace_csv", None),
    ("otzsl.cli", "evaluate", "evaluate.evaluate", None),
    ("otzsl.cli", "save_report", "evaluate.save_report", None),
    ("otzsl.data", "make_synthetic_dataset", "data.make_synthetic_dataset", None),
    ("otzsl.data", "save_dataset", "data.save_dataset", "dataset_bytes"),
    ("otzsl.data", "load_dataset", "data.load_dataset", "dataset_bytes"),
    ("otzsl.data", "load_matrix_csv", "data.load_matrix_csv", None),
    ("otzsl.data", "save_matrix_csv", "data.save_matrix_csv", None),
    ("otzsl.ot", "ipot_solve", "ot.ipot_solve", "plan_counts"),
    ("otzsl.ot", "sinkhorn_solve", "ot.sinkhorn_solve", "plan_counts"),
    ("otzsl.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", "file_bytes"),
    ("otzsl.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", None),
    ("otzsl.training", "ipot_solve", "ot.ipot_solve", "plan_counts"),
    ("otzsl.training", "cosine_cost_matrix", "ot.cosine_cost_matrix", None),
    ("otzsl.training", "transition_plan", "ot.transition_plan", None),
    ("otzsl.training", "backward", "generator.backward", None),
    ("otzsl.training", "adam_step", "mlp.adam_step.training", None),
    ("otzsl.training", "sample_real_batch", "training.sample_real_batch", None),
    ("otzsl.training", "sample_synth_batch", "training.sample_synth_batch", None),
    ("otzsl.generator", "mlp_forward_cache", "mlp.mlp_forward_cache", None),
    ("otzsl.generator", "mlp_backward", "mlp.mlp_backward", None),
    ("otzsl.evaluate", "train_softmax", "evaluate.train_softmax", "softmax_steps"),
    ("otzsl.evaluate", "adam_step", "mlp.adam_step.evaluate", None),
    ("otzsl.evaluate", "synthesize_class_features", "training.synthesize_class_features", None),
    ("otzsl.evaluate", "predict_ids", "evaluate.predict_ids", None),
]
