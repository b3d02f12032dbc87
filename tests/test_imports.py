"""A clean install can start: numpy is the one third-party package the
program loads (``pyproject.toml`` declares nothing else)."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _top_level_modules(statements: str) -> set:
    """Top-level names in ``sys.modules`` of a fresh interpreter after
    running ``statements``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    code = (
        "import json, sys\n"
        f"{statements}\n"
        "print(json.dumps(sorted({name.partition('.')[0] for name, module"
        " in sys.modules.items() if module is not None})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, timeout=120,
        capture_output=True, text=True,
    )
    return set(json.loads(out.stdout))


def test_only_numpy_beyond_the_standard_library():
    # networkx is what the package once imported without declaring it;
    # blocked, so an environment that happens to have it proves nothing.
    loaded = _top_level_modules(
        "sys.modules['networkx'] = None\n"
        "import repro, repro.__main__, repro.serving, repro.shard, "
        "repro.segments"
    )
    # Whatever `import numpy` alone drags in — .pth and site hooks of
    # this environment included — cancels out.
    extra = loaded - _top_level_modules("import numpy")
    # __mp_main__ is multiprocessing's alias for __main__.
    ours = {"repro", "__mp_main__"}
    assert sorted(extra - sys.stdlib_module_names - ours) == []
