"""Calls that have one home in src/visitrep. Like tests/test_imports.py,
this walks each module's syntax tree.

- `.validate()`: configs are checked once, when they are built, so
  `JsonConfig.__post_init__` is the one caller and no caller re-checks a
  config it was handed.
- `.backward()` and `recording()`: only `numerics.optim.fit` and
  `numerics.gradcheck.max_relative_error` open the tape and walk it, so
  every other forward records nothing.
- `encode_visit_codes()`: `cohort.visit_matrix` is the one rule that turns a
  patient's visits into code rows.
- `build_batch()`: `code_embedder.forward_histories` is the one place that
  batches patients for code-model inference.
- `random_raw()`: `synth._block_words` is the one place that replays numpy's
  random stream word by word, next to the scalar calls it must match.
- `from_cohort()` and `extract_labels()`: a `patient_rep.RepresentationPipeline`
  fits the demographics codec on its training patients, and
  `patient_rep.join_representations` labels the rows, for the CLI stages
  and for every cross-validation fold alike.
- `recorded=`: a reader skips its shape walk only on bytes that match the
  digest manifest.json records, so `cli._recorded`, which reads it there, is
  the one caller that passes one.
"""

import ast
import inspect
from pathlib import Path

from visitrep.cohort import ingest_cohort
from visitrep.patient_rep import read_representations

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "visitrep"
THE_CALLER = "JsonConfig.__post_init__"
TAPE = {"backward", "recording"}
TAPE_OWNERS = {"numerics/optim.py": "fit", "numerics/gradcheck.py": "max_relative_error"}
ONE_HOME = {
    "encode_visit_codes": ("cohort.py", "visit_matrix"),
    "build_batch": ("code_embedder.py", "forward_histories"),
    "random_raw": ("synth.py", "_block_words"),
    "from_cohort": ("patient_rep.py", "RepresentationPipeline.__init__"),
    "extract_labels": ("patient_rep.py", "join_representations"),
}


def matching_calls(source: str, match) -> list:
    """(line, enclosing class and function names) of each call for which
    match(the ast.Call node) holds."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and match(child):
                found.append((child.lineno, ".".join(scope)))
            walk(child, scope)

    walk(ast.parse(source), ())
    return found


def refused_calls(source: str, names) -> list:
    """(line, scope) of each call to one of `names`, as a method (`x.name()`)
    or as a function (`name()`)."""

    def called(call):
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in names

    return matching_calls(source, called)


def keyword_calls(source: str, keyword: str) -> list:
    """(line, scope) of each call that passes `keyword=`."""
    return matching_calls(source, lambda call: any(k.arg == keyword for k in call.keywords))


def package_calls(names, find=refused_calls) -> list:
    """(module path under src/visitrep, line, scope) of each call find()
    reports for `names`."""
    return [
        (path.relative_to(PACKAGE).as_posix(), line, scope)
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, scope in find(path.read_text(encoding="utf-8"), names)
    ]


def test_oracle_finds_every_call_and_its_scope():
    source = (
        "class JsonConfig:\n"
        "    def __post_init__(self):\n"
        "        self.validate()\n"
        "def train(config):\n"
        "    config.validate()\n"
        "    return [s.validate() for s in config.sections]\n"
        "class Other:\n"
        "    def __post_init__(self):\n"
        "        self.validate()\n"
        "validate()\n"
    )
    assert refused_calls(source, {"validate"}) == [
        (3, THE_CALLER), (5, "train"), (6, "train"), (9, "Other.__post_init__"), (10, ""),
    ]


def test_oracle_finds_every_tape_call_and_its_scope():
    source = (
        "def fit(params):\n"
        "    def step(loss):\n"
        "        loss.backward()\n"
        "    with recording():\n"
        "        step(None)\n"
        "def represent(model):\n"
        "    with nm.recording():\n"
        "        model.forward().backward()\n"
        "forward, backward = run(fwd), run(bwd)\n"
        "rows = backward[0]\n"
    )
    assert refused_calls(source, TAPE) == [
        (3, "fit.step"), (4, "fit"), (7, "represent"), (8, "represent"),
    ]


def test_oracle_finds_every_visit_encoding_and_its_scope():
    source = (
        "def visit_matrix(record, vocab):\n"
        "    return np.stack([encode_visit_codes(v, vocab) for v in record.visits])\n"
        "class Pipeline:\n"
        "    def represent_cohort(self, cohort):\n"
        "        rows = [cohort_mod.encode_visit_codes(v, self.vocab) for v in visits]\n"
        "encode = encode_visit_codes\n"
    )
    assert refused_calls(source, {"encode_visit_codes"}) == [
        (2, "visit_matrix"), (5, "Pipeline.represent_cohort"),
    ]


def test_oracle_finds_every_batch_build_and_its_scope():
    source = (
        "def forward_histories(model, matrices):\n"
        "    for start in range(0, len(matrices), step):\n"
        "        model.forward(build_batch(matrices[start : start + step]))\n"
        "def next_code_recall(model, matrices):\n"
        "    def chunk(mats):\n"
        "        return model.forward(code_embedder.build_batch(mats))\n"
        "    return [chunk(m) for m in matrices]\n"
    )
    assert refused_calls(source, {"build_batch"}) == [
        (3, "forward_histories"), (6, "next_code_recall.chunk"),
    ]


def test_oracle_finds_every_raw_draw_and_its_scope():
    source = (
        "def _block_words(rng, count, rate, n_noise, template):\n"
        "    raw = iter(rng.bit_generator.random_raw(count + count // 2).tolist())\n"
        "def generate_cohort(config):\n"
        "    bits = np.random.default_rng(config.seed).bit_generator\n"
        "    skip = lambda k: bits.random_raw(k)\n"
        "draw = PCG64().random_raw\n"
    )
    assert refused_calls(source, {"random_raw"}) == [
        (2, "_block_words"), (5, "generate_cohort"),
    ]


def test_oracle_finds_every_digest_offer_and_its_scope():
    source = (
        "def _recorded(cfg, name, reader):\n"
        "    return functools.partial(reader, recorded=manifest(cfg).get(name))\n"
        "def cmd_train_code(cfg):\n"
        "    cohort = ingest_cohort(path, recorded=digest)\n"
        "    reps = read_representations(path, task, recorded=None)\n"
        "recorded = ingest_cohort(path)\n"
        "ingest_cohort(path, walk=False)\n"
    )
    assert keyword_calls(source, "recorded") == [
        (2, "_recorded"), (4, "cmd_train_code"), (5, "cmd_train_code"),
    ]


def test_only_the_config_mixin_calls_validate():
    calls = package_calls({"validate"})
    assert [scope for _, _, scope in calls] == [THE_CALLER], calls


def test_only_fit_and_gradcheck_open_and_walk_the_tape():
    calls = package_calls(TAPE)
    stray = [c for c in calls if TAPE_OWNERS.get(c[0]) != c[2].split(".")[0]]
    assert not stray, stray
    assert {(path, scope.split(".")[0]) for path, _, scope in calls} == set(TAPE_OWNERS.items())


def test_visit_encoding_and_batch_building_have_one_home():
    for name, home in ONE_HOME.items():
        calls = package_calls({name})
        assert {(path, scope) for path, _, scope in calls} == {home}, (name, calls)


def test_only_the_cli_digest_helper_requests_the_unwalked_parse():
    """The readers take the digest by keyword only, so the keyword finds
    every offer of one."""
    for reader in (ingest_cohort, read_representations):
        kind = inspect.signature(reader).parameters["recorded"].kind
        assert kind is inspect.Parameter.KEYWORD_ONLY, reader
    calls = package_calls("recorded", keyword_calls)
    assert [(path, scope) for path, _, scope in calls] == [("cli.py", "_recorded")], calls
