"""Set-up cost: `import chiralwalk` timed in fresh interpreters.

Every CLI call pays this import, so it is measured in a new process each
time, from the checkout's own `src/`.  One untimed import first compiles the
bytecode, which a user pays once per install, not once per call.  Bytecode
is written even where PYTHONDONTWRITEBYTECODE is set, so the figure does not
depend on the caller's environment.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

PROBE = (
    "import time; t0 = time.perf_counter(); import chiralwalk; "
    "t1 = time.perf_counter(); print(t1 - t0); print(chiralwalk.__file__)"
)
GROUPS = ("numpy", "scipy", "chiralwalk")
TIMEOUT_S = 120


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def _python(src: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_env(src), capture_output=True,
                          text=True, timeout=TIMEOUT_S, check=True)


def import_seconds(src: Path, repeats: int) -> list[float]:
    """Wall time of `import chiralwalk` in `repeats` fresh interpreters."""
    times = []
    for i in range(repeats + 1):
        seconds, path = _python(src, "-c", PROBE).stdout.split()
        if not Path(path).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"imported chiralwalk from {path}, not from {src}")
        if i:
            times.append(float(seconds))
    return times


def parse_importtime(text: str) -> dict:
    """Seconds of `python -X importtime` output attributed to each group.

    A module's own time goes to the nearest enclosing module (itself
    included) that belongs to numpy, scipy or chiralwalk, so a standard
    library module that scipy pulls in counts as scipy's cost.  Modules
    outside all three, such as interpreter start-up, are left out.
    """
    pending: dict[int, list] = {}
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        self_field = parts[0].split(":", 1)[1].strip()
        if not self_field.isdigit():
            continue  # the header line
        label = parts[2].rstrip()
        depth = (len(label) - len(label.lstrip()) - 1) // 2
        # children are printed before their parent, one level deeper
        node = (label.strip(), int(self_field), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    totals = dict.fromkeys(GROUPS, 0)
    stack = [(root, None) for root in pending.get(0, [])]
    while stack:
        (name, self_us, children), inherited = stack.pop()
        top = name.split(".")[0]
        group = top if top in totals else inherited
        if group is not None:
            totals[group] += self_us
        stack.extend((child, group) for child in children)
    return {f"setup.{'chiralwalk_self' if g == 'chiralwalk' else g}_s": us * 1e-6
            for g, us in totals.items()}


def import_breakdown(src: Path) -> dict:
    """setup.numpy_s, setup.scipy_s and setup.chiralwalk_self_s of one fresh import."""
    return parse_importtime(_python(src, "-X", "importtime", "-c", "import chiralwalk").stderr)
