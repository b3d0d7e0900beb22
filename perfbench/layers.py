"""Which visitrep functions the traced run wraps, and the per-layer metrics
computed from their spans.

Span names are '<module>.<function>'; metric names follow
'<module>.<function>.<calls|s|us_per_call|bytes>' plus a few named ratios.
Per-layer values are per iteration of the measured loop, except
synth.generate_cohort.s and cli.generate.*, which are per set-up repetition.
"""

from __future__ import annotations

from .tracing import file_size, rebind

# The twenty autodiff kernels; every one counts toward numerics.kernel.calls.
KERNELS = (
    "add", "mul", "scale", "shift", "matmul", "concat", "sigmoid", "tanh", "relu",
    "softmax", "masked_fill", "layer_norm", "mean", "tsum", "log", "clip",
    "transpose", "reshape", "gather_rows", "slice_axis",
)
# Kernels reported one by one.
REPORTED_KERNELS = (
    "matmul", "add", "mul", "sigmoid", "tanh", "softmax", "masked_fill",
    "layer_norm", "concat", "slice_axis", "reshape", "gather_rows", "log", "clip",
)

SPANS = (
    ("numerics.backward", "visitrep.numerics.tensor:Tensor.backward"),
    ("numerics.adam_step", "visitrep.numerics.optim:adam_step"),
    ("code_embedder.train_code_embedder", "visitrep.code_embedder:train_code_embedder"),
    ("code_embedder.forward", "visitrep.code_embedder:CodeEmbedderModel.forward"),
    ("code_embedder.skip_gram_loss", "visitrep.code_embedder:skip_gram_loss"),
    ("code_embedder.predict_next_codes", "visitrep.code_embedder:predict_next_codes"),
    ("code_embedder.encode_history", "visitrep.code_embedder:encode_history"),
    ("text_embedder.train_summarizer", "visitrep.text_embedder:train_summarizer"),
    ("text_embedder.encode", "visitrep.text_embedder:SummarizerModel.encode"),
    ("text_embedder.decode", "visitrep.text_embedder:SummarizerModel.decode"),
    ("text_embedder.encode_batch", "visitrep.text_embedder:BagEncoder.encode_batch"),
    ("text_embedder.summarize", "visitrep.text_embedder:summarize"),
    ("text_embedder.sentence_matrix", "visitrep.text_embedder:sentence_matrix"),
    ("patient_rep.represent_cohort", "visitrep.patient_rep:RepresentationPipeline.represent_cohort"),
    ("patient_rep.write_representations", "visitrep.patient_rep:write_representations"),
    ("patient_rep.read_representations", "visitrep.patient_rep:read_representations"),
    ("tasks.train_task", "visitrep.tasks:train_task"),
    ("tasks.predict", "visitrep.tasks:predict"),
    ("evaluation.next_code_recall", "visitrep.evaluation:next_code_recall"),
    ("cohort.ingest_cohort", "visitrep.cohort:ingest_cohort"),
    ("cohort.write_cohort_jsonl", "visitrep.cohort:write_cohort_jsonl"),
    ("cohort.preprocess", "visitrep.cohort:preprocess"),
    ("cohort.extract_labels", "visitrep.cohort:extract_labels"),
    ("cohort.encode_visit_codes", "visitrep.cohort:encode_visit_codes"),
    ("synth.generate_cohort", "visitrep.synth:generate_cohort"),
    ("checkpoint.write_checkpoint", "visitrep.checkpoint:write_checkpoint"),
    ("checkpoint.read_checkpoint", "visitrep.checkpoint:read_checkpoint"),
)

MODULES = (
    "numerics", "code_embedder", "text_embedder", "patient_rep", "tasks",
    "evaluation", "cohort", "synth", "checkpoint", "cli",
)

CLI_STAGES = (
    "generate", "preprocess", "train-code", "train-text", "represent",
    "train-task", "evaluate", "evaluate-codes", "export",
)


def graph_nodes(root) -> int:
    """Nodes a backward pass from `root` visits: every tensor reachable
    through the recorded parent links, leaves included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent, _ in getattr(stack.pop(), "_vjps", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def next_code_prefixes(cohort) -> int:
    """Visit prefixes whose next visit can be scored: one per non-final visit."""
    return sum(len(p.visits) - 1 for p in cohort.patients if len(p.visits) >= 2)


def install(tracer) -> None:
    """Wrap every kernel and every function in SPANS, with counting hooks."""
    for op in KERNELS:
        rebind(f"visitrep.numerics.tensor:{op}", tracer.kernel(op))

    def bytes_after(key, position):
        return lambda args, result: tracer.count(key, file_size(args[position]))

    def padded(args):
        real = args[1].real
        tracer.count("forward.slots", real.size)
        tracer.count("forward.padded", real.size - int(real.sum()))

    def prefixes(args):
        if args[0] is not None:
            tracer.count("prefixes", next_code_prefixes(args[1]))

    hooks = {
        "numerics.backward": {"before": lambda args: tracer.count("nodes", graph_nodes(args[0]))},
        "numerics.adam_step": {"before": lambda args: tracer.count("params", len(args[0]))},
        "code_embedder.forward": {"before": padded},
        "patient_rep.represent_cohort": {
            "before": lambda args: tracer.count("visits_represented", args[1].n_visits())
        },
        "evaluation.next_code_recall": {"before": prefixes},
        "patient_rep.write_representations": {"after": bytes_after("write_representations", 0)},
        "patient_rep.read_representations": {"after": bytes_after("read_representations", 0)},
        "cohort.ingest_cohort": {"after": bytes_after("ingest_cohort", 0)},
        "cohort.write_cohort_jsonl": {"after": bytes_after("write_cohort_jsonl", 1)},
        "checkpoint.write_checkpoint": {"after": bytes_after("write_checkpoint", 0)},
        "checkpoint.read_checkpoint": {"after": bytes_after("read_checkpoint", 0)},
    }
    for name, target in SPANS:
        rebind(target, tracer.span(name, **hooks.get(name, {})))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, iterations: int, setup_reps: int, cli_stages: dict) -> dict:
    """Every per-layer metric, as {name: value}. cli_stages maps a stage to
    its (wall seconds, cpu seconds) summed over the measured iterations."""
    run = tracer.summary("run")
    counts = tracer.counts.get("run", {})
    setup = tracer.summary("setup")
    per_iter = 1.0 / iterations
    m: dict = {}

    def calls(name):
        return run.get(name, {}).get("calls", 0)

    def secs(name):
        return run.get(name, {}).get("s", 0.0)

    kernel_calls = sum(c for c, _ in tracer.kernels.values())
    kernel_s = sum(s for _, s in tracer.kernels.values())
    m["numerics.kernel.calls"] = kernel_calls * per_iter
    m["numerics.kernel.s"] = kernel_s * per_iter
    for op in REPORTED_KERNELS:
        n, s = tracer.kernels.get(op, (0, 0.0))
        m[f"numerics.{op}.calls"] = n * per_iter
        m[f"numerics.{op}.us_per_call"] = _ratio(s * 1e6, n)
    nodes = counts.get("nodes", 0)
    m["numerics.backward.calls"] = calls("numerics.backward") * per_iter
    m["numerics.backward.s"] = secs("numerics.backward") * per_iter
    m["numerics.backward.nodes_per_call"] = _ratio(nodes, calls("numerics.backward"))
    m["numerics.backward.us_per_node"] = _ratio(secs("numerics.backward") * 1e6, nodes)
    m["numerics.adam_step.calls"] = calls("numerics.adam_step") * per_iter
    m["numerics.adam_step.us_per_call"] = _ratio(
        secs("numerics.adam_step") * 1e6, calls("numerics.adam_step")
    )
    m["numerics.adam_step.params_per_call"] = _ratio(
        counts.get("params", 0), calls("numerics.adam_step")
    )

    timed_calls = (
        "code_embedder.forward", "code_embedder.skip_gram_loss",
        "code_embedder.predict_next_codes", "code_embedder.encode_history",
        "text_embedder.encode", "text_embedder.decode", "text_embedder.encode_batch",
        "text_embedder.summarize", "text_embedder.sentence_matrix",
        "tasks.train_task", "tasks.predict", "cohort.encode_visit_codes",
        "checkpoint.write_checkpoint", "checkpoint.read_checkpoint",
    )
    for name in timed_calls:
        m[f"{name}.calls"] = calls(name) * per_iter
        m[f"{name}.s"] = secs(name) * per_iter
    for name in (
        "code_embedder.train_code_embedder", "text_embedder.train_summarizer",
        "patient_rep.represent_cohort", "patient_rep.write_representations",
        "patient_rep.read_representations", "evaluation.next_code_recall",
        "cohort.ingest_cohort", "cohort.write_cohort_jsonl",
        "cohort.preprocess", "cohort.extract_labels",
    ):
        m[f"{name}.s"] = secs(name) * per_iter
    for key, module in (
        ("write_representations", "patient_rep"), ("read_representations", "patient_rep"),
        ("ingest_cohort", "cohort"), ("write_cohort_jsonl", "cohort"),
        ("write_checkpoint", "checkpoint"), ("read_checkpoint", "checkpoint"),
    ):
        m[f"{module}.{key}.bytes"] = counts.get(key, 0) * per_iter

    m["code_embedder.forward.padded_slot_frac"] = _ratio(
        counts.get("forward.padded", 0), counts.get("forward.slots", 0)
    )
    m["patient_rep.summaries_per_visit"] = _ratio(
        calls("text_embedder.summarize"), counts.get("visits_represented", 0)
    )
    prefixes = counts.get("prefixes", 0)
    m["evaluation.prefixes_scored"] = prefixes * per_iter
    m["evaluation.forwards_per_prefix"] = _ratio(
        tracer.calls_under("code_embedder.forward", "evaluation.next_code_recall", "run"),
        prefixes,
    )
    m["synth.generate_cohort.s"] = _ratio(
        setup.get("synth.generate_cohort", {}).get("s", 0.0), setup_reps
    )

    self_s = dict.fromkeys(MODULES, 0.0)
    self_s["numerics"] += kernel_s
    for name, entry in run.items():
        self_s[name.split(".", 1)[0]] += entry["self_s"]
    for module, seconds in self_s.items():
        m[f"{module}.self_s"] = seconds * per_iter

    for stage in CLI_STAGES:
        wall, cpu = cli_stages.get(stage, (0.0, 0.0))
        scale = 1.0 / setup_reps if stage == "generate" else per_iter
        m[f"cli.{stage}.wall_s"] = wall * scale
        m[f"cli.{stage}.cpu_s"] = cpu * scale
    return m


def top_self_time(tracer, n: int = 8) -> list:
    """The n span names (plus one entry per kernel) with most self time in
    the measured phase, as [name, seconds] summed over all iterations."""
    rows = [(name, e["self_s"]) for name, e in tracer.summary("run").items()]
    rows += [(f"numerics.{op}", s) for op, (_, s) in tracer.kernels.items()]
    rows.sort(key=lambda r: -r[1])
    return [[name, seconds] for name, seconds in rows[:n]]
