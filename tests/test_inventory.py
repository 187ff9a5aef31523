"""Every public top-level name in src/sca is used by the program; oracles live in tests/oracles.py.

A function, class or constant that no code in src/sca references is either
left over (a setting nothing reads, a second copy of a job the program
already does) or a reference implementation; the references live
in tests/oracles.py, which imports nothing from sca, so an oracle cannot run
the code it checks. Likewise every dataclass field is read in src/sca: a field that only tests
read is a value the program computes and discards. The signatures that benchmarks/child.py
hooks into and the names the benchmark traces are pinned here too, and so are the one function
that writes files (and makes directories), the one that reads a clock, the one place that fails
training (run_epochs, through check_finite), the one report function of train and eval, the
CLI's use of the epoch logs as its record of batch scores, KNOBS as the one source of train and
eval flags, cli.py as the one module whose messages name a flag, and kernel.py and cli.py as the
only modules that compare against a kernel family name.
"""

import argparse
import ast
import inspect
import re
from pathlib import Path

from sca import cli, coherence, kernel, lm, trainer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sca"
ORACLE_FILE = ROOT / "tests" / "oracles.py"


def _parse_modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _defined_names(node):
    """The names a module-level statement defines: a function, a class, or assigned constants."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _public_definitions(modules):
    return {
        f"{name}.{defined}"
        for name, tree in modules.items()
        for node in tree.body
        for defined in _defined_names(node)
        if not defined.startswith("_")
    }


def _referenced_names(modules):
    names = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)  # a Store is the definition itself
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_used_or_an_oracle():
    modules = _parse_modules()
    referenced = _referenced_names(modules)
    unused = sorted(
        qualified
        for qualified in _public_definitions(modules)
        if qualified.split(".", 1)[1] not in referenced
    )
    assert unused == []


def _dataclass_fields(modules):
    """Class.field for each annotated field of every @dataclass class in src/sca."""
    return {
        f"{node.name}.{item.target.id}"
        for tree in modules.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in (d.func.id if isinstance(d, ast.Call) else d.id)
            for d in node.decorator_list
        )
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def _read_attributes(modules):
    """Attribute names loaded anywhere in src/sca, other than as a called method (X.mean(...)
    reads no field), and every string constant, as getattr reads a field by name."""
    reads = set()
    for tree in modules.values():
        methods = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in methods):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
    return reads


def test_every_dataclass_field_is_read():
    modules = _parse_modules()
    fields = _dataclass_fields(modules)
    assert {"TrainConfig.lr", "KernelSpec.bandwidth", "EpochLog.scores"} <= fields
    reads = _read_attributes(modules)
    assert sorted(f for f in fields if f.split(".", 1)[1] not in reads) == []


def _calls(node, callee, function=None):
    """(innermost enclosing function, callee(func)) of each call under node that callee names.

    None stands for module level.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        function = getattr(node, "name", "<lambda>")
    if isinstance(node, ast.Call) and (called := callee(node.func)):
        yield function, called
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, callee, function)


def _called_in_src(callee):
    return {
        (f"{name}.{function}", called)
        for name, tree in _parse_modules().items()
        for function, called in _calls(tree, callee)
    }


def _file_callee(func):
    """open(...) and the methods open, fdopen, write_text and write_bytes.

    A bare write_text(...) calls the program's writer, corpus.write_text.
    """
    if isinstance(func, ast.Name) and func.id == "open":
        return "open"
    if isinstance(func, ast.Attribute) and func.attr in ("open", "fdopen", "write_text",
                                                         "write_bytes"):
        return func.attr
    return None


CLOCKS = ("time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
          "process_time", "process_time_ns", "thread_time", "thread_time_ns")


def _clock_callee(func):
    """Any time.* or datetime.* call (datetime.datetime.now too), and a bare clock name."""
    if isinstance(func, ast.Name):
        return func.id if func.id in CLOCKS else None
    root = func
    while isinstance(root, ast.Attribute):
        root = root.value
    if isinstance(root, ast.Name) and root.id in ("time", "datetime"):
        return func.attr
    return None


def test_one_function_writes_files():
    # every artifact goes through corpus.write_text, which writes whole files or none
    assert _called_in_src(_file_callee) == {("corpus.write_text", "open")}


def _mkdir_callee(func):
    """The methods mkdir and makedirs (Path.mkdir, os.makedirs)."""
    if isinstance(func, ast.Attribute) and func.attr in ("mkdir", "makedirs"):
        return func.attr
    return None


def test_one_function_makes_directories():
    # write_text creates each file's parent, so a run directory appears with its first file
    assert _called_in_src(_mkdir_callee) == {("corpus.write_text", "mkdir")}


def test_one_function_reads_a_clock():
    # clock readings reach a run directory only through EpochLog.seconds, which cli writes to
    # timing.json alone; a new reading must change this pin
    assert _called_in_src(_clock_callee) == {("trainer.run_epochs", "perf_counter")}


def _failure_callee(func):
    """A call of TrainingError or check_finite, bare or as an attribute."""
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name if name in ("TrainingError", "check_finite") else None


def test_one_function_fails_training():
    # run_epochs checks the loss and the rows each step wrote right after its update, so a
    # failure names the step that broke the model; a second check site must change this pin
    assert _called_in_src(_failure_callee) == {
        ("trainer.check_finite", "TrainingError"), ("trainer.run_epochs", "check_finite"),
    }


REPORT_CALLS = ("evaluate_coherence", "score_pairs", "rare_word_report", "pca_project")


def _report_callee(func):
    """A call of a REPORT_CALLS name, bare or as an attribute."""
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name if name in REPORT_CALLS else None


def test_one_function_scores_the_reports():
    # cmd_train and cmd_eval both report through cli._score, so train's coherence and metric
    # keys equal those of eval --before initial --after trained by construction
    assert _called_in_src(_report_callee) == {("cli._score", name) for name in REPORT_CALLS}


def test_cli_observes_no_batch():
    # each EpochLog keeps its batch scores, the one record that coherence_hist.csv is built from;
    # a per-batch observer in the CLI must change this pin
    assert "on_batch" not in (SRC / "cli.py").read_text(encoding="utf-8")


def test_oracles_import_nothing_from_sca():
    imported = set()
    for node in ast.walk(ast.parse(ORACLE_FILE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert sorted(m for m in imported if m.split(".")[0] in ("sca", "")) == []


def test_every_knob_is_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    spelled = [f"--{k.name.replace('_', '-')}" if k.help else f"`{k.name}`" for k in cli.KNOBS]
    assert [word for word in spelled if word not in readme] == []


def _docstrings(tree):
    """The docstring node of the module and of each class and function in it."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def test_only_cli_names_a_flag():
    # a message that names a flag (--lr) belongs to the range check of that flag's knob, which
    # cli._resolve_config runs once for every knob; docstrings may still mention flags
    named = []
    for module, tree in _parse_modules().items():
        docs = _docstrings(tree)
        named += [
            f"{module}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docs and re.search(r"--[a-z]", node.value)
        ]
    assert sorted(name for name in named if not name.startswith("cli:")) == []


def test_only_kernel_and_cli_compare_against_a_family():
    # the family decision lives in kernel.py, behind KernelSpec; cli.py only picks rbf's
    # bandwidth when it resolves the spec, so no other module branches on a family name
    def constants(node):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return [item.value for item in items if isinstance(item, ast.Constant)]

    compared = [
        f"{module}:{node.lineno}"
        for module, tree in _parse_modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and set(kernel.FAMILIES) & {value for operand in (node.left, *node.comparators)
                                    for value in constants(operand)}
    ]
    assert sorted(name for name in compared if not name.startswith(("kernel:", "cli:"))) == []
    assert any(name.startswith("cli:") for name in compared)  # the pin still sees a comparison


def test_every_train_and_eval_flag_is_a_knob():
    # one input path: a train or eval setting is a KNOBS row, so the config file and the
    # manifest carry it too; a flag added with its own add_argument would bypass both
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command in ("train", "eval"):
        flags = {option for action in commands.choices[command]._actions
                 for option in action.option_strings} - {"-h", "--help", "--config"}
        knobs = {f"--{k.name.replace('_', '-')}" for k in cli.KNOBS
                 if command in k.commands and k.help is not None}
        assert flags == knobs


# traced names whose code is gone: their metrics read 0 until the benchmark retires or repoints
# them; corpus.encode_documents' work now runs inside corpus.read_manifest, which ingest_s traces
DEAD_TRACED_NAMES = {
    "field.dense_mean", "coherence.batch_coherence", "trainer._project_scales",
    "lm.corpus_perplexity", "lm.classification_accuracy", "corpus.encode_documents",
}


def _traced_names():
    """The names benchmarks/run.py passes to calls, total and self_s, and the TRAINING, PRIVATE
    and PEAK_SAMPLES names of benchmarks/child.py."""
    run = ast.parse((ROOT / "benchmarks" / "run.py").read_text(encoding="utf-8"))
    names = {
        arg.value
        for node in ast.walk(run)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("calls", "total", "self_s")
        for arg in node.args
        if isinstance(arg, ast.Constant)
    }
    child = ast.parse((ROOT / "benchmarks" / "child.py").read_text(encoding="utf-8"))
    for node in child.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] in (
            ["TRAINING"], ["PRIVATE"], ["PEAK_SAMPLES"]
        ):
            value = node.value
            elements = value.keys if isinstance(value, ast.Dict) else value.elts
            names.update(element.value for element in elements)
    return names


def test_every_traced_name_is_defined_or_known_dead():
    # a metric whose traced function is renamed or deleted reads 0 without failing; this names it
    defined = {
        f"{module}.{name}"
        for module, tree in _parse_modules().items()
        for node in tree.body
        for name in _defined_names(node)
    }
    traced = _traced_names()
    assert "corpus.token_pools" in traced and "lm.train_joint" in traced
    assert sorted(traced - defined) == sorted(DEAD_TRACED_NAMES)


def test_benchmark_hooks_keep_their_signatures():
    # benchmarks/child.py wraps trainer.train_sca and lm.train_joint by name, passes its own
    # on_batch and on_epoch keywords to both, and reads the ids of coherence.compute_batch_state
    # as args[2] or kwargs["token_ids"]. The suite never runs the benchmark, so only this test
    # stops a signature change from breaking it silently.
    keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    for module, name in ((trainer, "train_sca"), (lm, "train_joint")):
        params = inspect.signature(getattr(module, name)).parameters
        assert [params[k].kind in keyword for k in ("on_batch", "on_epoch")] == [True, True]
    ids = list(inspect.signature(coherence.compute_batch_state).parameters.values())[2]
    assert (ids.name, ids.kind) == ("token_ids", inspect.Parameter.POSITIONAL_OR_KEYWORD)
    # The metrics lm.ce_calls and lm.ce_s trace lm.ce_batch_gradients by name, which train_joint's
    # step calls; a call with (model, pairs) alone returns (loss, grad), grad (n, d+1) like [E | b].
    params = list(inspect.signature(lm.ce_batch_gradients).parameters.values())
    assert [(p.name, p.kind) for p in params[:2]] == [
        ("model", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("pairs", inspect.Parameter.POSITIONAL_OR_KEYWORD),
    ]
    assert all(p.default is not inspect.Parameter.empty for p in params[2:])
