"""Every stateful class in the job closure declares its state exactly once.

:mod:`repro.checkpoint.state` captures and restores whatever a class
lists in ``STATE_FIELDS``; ``DERIVED_FIELDS`` names what the constructor
or ``prepare()`` rebuilds instead.  A field in neither list would be
silently dropped from snapshots, so this test walks the project model
over the closure roots and requires, for every class that declares state
or assigns a ``self.<attr>`` outside ``__init__`` (plain, augmented or
subscript assignment), that each attribute it assigns sits in exactly
one of the two lists.  A base class's writes count as its subclasses'
writes: a base that declares nothing itself (a shared surface whose
subclasses hold the state) is checked against each subclass's lists.
Classes that hold no simulation state are listed in :data:`EXEMPT`,
each with its reason.
"""

import ast
import importlib
from typing import Callable, Dict, Iterable, List, Set, Tuple

from repro.analysis.lint.closure import CLOSURE_EXCLUDES, CLOSURE_ROOTS
from repro.analysis.lint.project import ProjectModel

#: Closure classes that assign attributes outside ``__init__`` but are
#: not simulation state, with the reason each is left undeclared.
EXEMPT: Tuple[Tuple[str, str], ...] = (
    (
        "repro.checkpoint.runtime.Checkpointer",
        "checkpointer: the run-loop hook that writes snapshots, not part of one",
    ),
    (
        "repro.checkpoint.state._Encoder",
        "checkpoint codec: its identity memo lives for one capture",
    ),
    (
        "repro.experiments.engine.cache.ResultCache",
        "result cache: an on-disk store outside any simulation",
    ),
    (
        "repro.ioutil.ContentMemo",
        "process memo: an on-disk store outside any simulation",
    ),
    (
        "repro.obs.manifest.RunManifest",
        "manifest: describes a finished sweep's artefacts",
    ),
    (
        "repro.perf.timer.SectionTimer",
        "timer: wall-clock accounting, never part of a trajectory",
    ),
    (
        "repro.obs.metrics.Counter",
        "metric instrument: captured by the named instrumentation encoder",
    ),
    (
        "repro.obs.metrics.Gauge",
        "metric instrument: captured by the named instrumentation encoder",
    ),
    (
        "repro.obs.metrics.Histogram",
        "metric instrument: captured by the named instrumentation encoder",
    ),
    (
        "repro.obs.metrics.MetricsRegistry",
        "metric registry: captured by the named instrumentation encoder",
    ),
    (
        "repro.obs.trace.TraceEmitter",
        "trace events: captured by the named instrumentation encoder",
    ),
)


def _self_targets(node: ast.AST) -> List[str]:
    """Names of the ``self.<attr>`` an assignment statement writes."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    names: List[str] = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
            continue
        if isinstance(target, ast.Starred):
            target = target.value
        while isinstance(target, ast.Subscript):
            target = target.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            names.append(target.attr)
    return names


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        name = getattr(decorator, "id", getattr(decorator, "attr", None))
        if name == "dataclass":
            return True
    return False


def _assignments(node: ast.ClassDef) -> Tuple[Set[str], bool]:
    """(attributes the class body assigns, whether any is outside __init__)."""
    assigned: Set[str] = set()
    outside_init = False
    if _is_dataclass(node):
        assigned.update(
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        )
    for method in node.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        for stmt in ast.walk(method):
            names = _self_targets(stmt)
            assigned.update(names)
            if names and method.name != "__init__":
                outside_init = True
    return assigned, outside_init


def _imported(module: str, name: str) -> type:
    return getattr(importlib.import_module(module), name)


def closure_classes(
    model: ProjectModel,
    roots: Iterable[str],
    excludes: Tuple[str, ...],
    resolve: Callable[[str, str], type] = _imported,
) -> Dict[str, Tuple[type, ast.ClassDef]]:
    """Every top-level class of the closure: qualified name -> (class, AST).

    ``resolve(module, name)`` returns the live class, whose (inherited)
    declarations the check reads.
    """
    found: Dict[str, Tuple[type, ast.ClassDef]] = {}
    for module in model.reachable(tuple(roots), exclude_prefixes=excludes):
        for node in model.module(module).ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                found[f"{module}.{node.name}"] = (resolve(module, node.name), node)
    return found


def declaration_problems(
    model: ProjectModel,
    roots: Iterable[str],
    excludes: Tuple[str, ...] = (),
    exempt: Iterable[str] = (),
    resolve: Callable[[str, str], type] = _imported,
) -> List[str]:
    """One line per closure class whose state declaration is incomplete."""
    classes = closure_classes(model, roots, excludes, resolve)
    nodes = {cls: node for cls, node in classes.values()}
    skipped = set(exempt)
    problems: List[str] = []
    for name, (cls, node) in sorted(classes.items()):
        if name in skipped:
            continue
        assigned, outside_init = _assignments(node)
        # Attributes assigned by in-closure base classes live on this
        # class's instances too.
        for base in cls.__mro__[1:]:
            if base in nodes:
                base_assigned, base_outside_init = _assignments(nodes[base])
                assigned |= base_assigned
                outside_init = outside_init or base_outside_init
        declares = hasattr(cls, "STATE_FIELDS") or hasattr(cls, "DERIVED_FIELDS")
        if not (declares or outside_init):
            continue
        state = tuple(getattr(cls, "STATE_FIELDS", ()))
        derived = tuple(getattr(cls, "DERIVED_FIELDS", ()))
        if not declares:
            if not any(cls in sub.__mro__[1:] for sub in nodes):
                problems.append(f"{name}: assigns outside __init__ but declares nothing")
            continue
        listed = state + derived
        for field in sorted({f for f in listed if listed.count(f) > 1}):
            problems.append(f"{name}.{field}: listed more than once")
        for field in sorted(assigned - set(listed)):
            problems.append(f"{name}.{field}: in neither STATE_FIELDS nor DERIVED_FIELDS")
        for field in sorted(set(listed) - assigned):
            if not (field in state and isinstance(getattr(cls, field, None), property)):
                problems.append(f"{name}.{field}: declared but never assigned")
    return problems


def test_every_closure_class_declares_its_state_once():
    model = ProjectModel.build()
    problems = declaration_problems(
        model, CLOSURE_ROOTS, CLOSURE_EXCLUDES, [name for name, _ in EXEMPT]
    )
    assert problems == []


def test_exemptions_are_live_and_stateless():
    model = ProjectModel.build()
    classes = closure_classes(model, CLOSURE_ROOTS, CLOSURE_EXCLUDES)
    for name, reason in EXEMPT:
        assert reason
        assert name in classes, f"stale exemption {name}"
        cls, node = classes[name]
        assert not hasattr(cls, "STATE_FIELDS"), f"{name} declares state"
        assert _assignments(node)[1], f"{name} no longer needs an exemption"


SYNTHETIC = '''
class Declared:
    STATE_FIELDS = ("now",)
    DERIVED_FIELDS = ("dt",)

    def __init__(self):
        self.now = 0.0
        self.dt = 1.0
        self.cache = None

    def step(self):
        self.now += self.dt
        self.cache = [self.now]


class Undeclared:
    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1


class Complete:
    STATE_FIELDS = ("values", "samples")
    DERIVED_FIELDS = ("scratch",)

    def __init__(self):
        self.values = [0.0]
        self.scratch = None

    def tick(self):
        self.values[0] += 1.0

    @property
    def samples(self):
        return list(self.values)


class Immutable:
    def __init__(self):
        self.name = "fixed"


class Surface:
    def park(self):
        self.parked = True


class Kept(Surface):
    STATE_FIELDS = ("parked",)


class Dropped(Surface):
    STATE_FIELDS = ()


class Bare(Surface):
    pass
'''


def test_check_flags_an_undeclared_attribute(tmp_path):
    # Project-model fixtures are packages named ``repro``; the live
    # classes come from executing the same source in a namespace, so the
    # fixture never shadows the real package.
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "model.py").write_text(SYNTHETIC)
    namespace: Dict[str, type] = {}
    exec(compile(SYNTHETIC, "model.py", "exec"), namespace)

    model = ProjectModel.build(package)
    problems = declaration_problems(
        model, ["repro.model"], resolve=lambda module, name: namespace[name]
    )
    # Surface declares nothing but is checked through its subclasses.
    assert problems == [
        "repro.model.Bare: assigns outside __init__ but declares nothing",
        "repro.model.Declared.cache: in neither STATE_FIELDS nor DERIVED_FIELDS",
        "repro.model.Dropped.parked: in neither STATE_FIELDS nor DERIVED_FIELDS",
        "repro.model.Undeclared: assigns outside __init__ but declares nothing",
    ]
