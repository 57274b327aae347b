"""Every parameter of every function in the duet package is read in its body.

A parameter that nothing reads is one that every caller must still pass. Two
protocols fix a signature for all their implementations, so their parameters
may go unread: the `batches(epoch)` callback a fit nests and hands to
`core.descend`, and a stage body `(cfg, seed, ws)` registered by
`pipeline._stage`.
"""

import ast
from pathlib import Path

import duet

STAGE_PARAMS = ["cfg", "seed", "ws"]


def _params(fn) -> list[str]:
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    return names + [p.arg for p in (a.vararg, a.kwarg) if p is not None]


def _called(node, name: str) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def _descend_callbacks(fn) -> set:
    """The nested one-parameter defs that fn passes to descend as `batches`."""
    names = set()
    for call in ast.walk(fn):
        if _called(call, "descend"):
            args = call.args[3:4] + [k.value for k in call.keywords if k.arg == "batches"]
            names |= {a.id for a in args if isinstance(a, ast.Name)}
    return {id(inner) for inner in ast.walk(fn)
            if inner is not fn and isinstance(inner, ast.FunctionDef)
            and inner.name in names and len(_params(inner)) == 1}


def unread_parameters(source: str, module: str) -> list[str]:
    """'module.function.parameter' for each parameter no statement of its
    function's body reads, outside the two protocols."""
    defs = [n for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    exempt = set().union(*(_descend_callbacks(fn) for fn in defs))
    unread = []
    for fn in defs:
        if id(fn) in exempt or (_params(fn) == STAGE_PARAMS and any(
                _called(d, "_stage") for d in fn.decorator_list)):
            continue
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{module}.{fn.name}.{p}" for p in _params(fn) if p not in read]
    return unread


# one case of each kind: read, unread, and either protocol, met or missed
SAMPLE = '''
def fit(data, epochs, rng, *extra, scale=1.0, **opts):
    def batches(epoch):
        yield data
    def helper(step):
        return scale
    return descend(opts, [], epochs, batches, "fit"), helper

def batches(epoch):
    return 0

@_stage((), ("a.tsv",))
def stage_a(cfg, seed, ws):
    return ws

@_stage((), ("b.tsv",))
def stage_b(cfg, seed, workspace):
    return workspace
'''


def test_every_parameter_in_the_package_is_read():
    assert sorted(unread_parameters(SAMPLE, "m")) == [
        "m.batches.epoch", "m.fit.extra", "m.fit.rng", "m.helper.step",
        "m.stage_b.cfg", "m.stage_b.seed"]
    unread = []
    for src in sorted(Path(duet.__file__).parent.glob("*.py")):
        unread += unread_parameters(src.read_text(encoding="utf-8"), src.stem)
    assert unread == []
