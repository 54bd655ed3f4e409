"""repro.analysis: rule battery, suppressions, CLI, and the self-check.

Fixture trees reproduce the package layout (``<tmp>/repro/core/...``) so
path-scoped rules see the same relpaths they see in ``src/``.  The two
closing tests are the ones the subsystem exists for: the shipped tree
must lint clean, and the bank-equivalence declaration must match both
the statically-discovered ``bank_forward`` definers (BANK001) and the
layers actually instantiated by the equivalence matrix (runtime walk).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import BANK_EQUIVALENCE_LAYERS, equivalence_cases
from repro.analysis import RULES, run_analysis
from repro.analysis.cli import main as cli_main
from repro.analysis.cli import rules_table_markdown
from repro.analysis.findings import suppressions_for_line

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
CONFTEST = REPO_ROOT / "tests" / "conftest.py"


def _write_tree(base: Path, files: dict) -> Path:
    for relpath, source in files.items():
        target = base / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return base


def _run(tmp_path: Path, files: dict, select=None, conftest=None, ignore=None):
    """Analyze a fixture tree; rules are selected explicitly per test."""
    root = _write_tree(tmp_path / "tree", files)
    return run_analysis([root], select=select, ignore=ignore, conftest=conftest)


def _rules_of(report) -> list:
    return [f.rule for f in report.findings]


# -- DET001 ------------------------------------------------------------------


def test_det001_flags_legacy_global_numpy_rng(tmp_path):
    report = _run(
        tmp_path,
        {"repro/core/x.py": "import numpy as np\nv = np.random.rand(3)\n"},
        select=["DET001"],
    )
    (finding,) = report.findings
    assert finding.rule == "DET001"
    assert finding.line == 2
    assert finding.file.endswith("repro/core/x.py")


def test_det001_flags_unseeded_default_rng(tmp_path):
    report = _run(
        tmp_path,
        {"repro/x.py": "import numpy as np\nrng = np.random.default_rng()\n"},
        select=["DET001"],
    )
    assert _rules_of(report) == ["DET001"]
    assert "without a seed" in report.findings[0].message


def test_det001_steers_seeded_default_rng_to_check_random_state(tmp_path):
    report = _run(
        tmp_path,
        {"repro/x.py": "import numpy as np\nrng = np.random.default_rng(7)\n"},
        select=["DET001"],
    )
    assert _rules_of(report) == ["DET001"]
    assert "check_random_state" in report.findings[0].message


def test_det001_flags_stdlib_random(tmp_path):
    report = _run(
        tmp_path,
        {
            "repro/a.py": "import random\nx = random.random()\n",
            "repro/b.py": "from random import shuffle\n",
        },
        select=["DET001"],
    )
    assert sorted(_rules_of(report)) == ["DET001", "DET001"]


def test_det001_allows_generator_plumbing(tmp_path):
    source = (
        "import numpy as np\n"
        "from repro.utils.seeding import check_random_state\n"
        "def f(rng):\n"
        "    gen = check_random_state(rng)\n"
        "    assert isinstance(gen, np.random.Generator)\n"
        "    return gen.normal(size=3)\n"
    )
    report = _run(tmp_path, {"repro/x.py": source}, select=["DET001"])
    assert report.ok


# -- DET002 ------------------------------------------------------------------


def test_det002_flags_wall_clock_in_core(tmp_path):
    report = _run(
        tmp_path,
        {"repro/core/sim.py": "import time\nstart = time.time()\n"},
        select=["DET002"],
    )
    (finding,) = report.findings
    assert finding.rule == "DET002"
    assert finding.line == 2


def test_det002_flags_datetime_and_from_imports(tmp_path):
    report = _run(
        tmp_path,
        {
            "repro/runtime/a.py": "import datetime\nstamp = datetime.datetime.now()\n",
            "repro/distributed/b.py": "from time import perf_counter\nt = perf_counter()\n",
        },
        select=["DET002"],
    )
    assert sorted(_rules_of(report)) == ["DET002", "DET002"]


def test_det002_scope_excludes_presentation_code(tmp_path):
    report = _run(
        tmp_path,
        {"repro/viz/plots.py": "import time\nstart = time.time()\n"},
        select=["DET002"],
    )
    assert report.ok


def test_det002_covers_utils_with_suppression_escape(tmp_path):
    """utils/ is in scope (virtual time lives there); suppressions still work."""
    flagged = "import time\nstart = time.perf_counter()\n"
    sanctioned = (
        "import time\n"
        "start = time.perf_counter()  # repro: ignore[DET002] profiler wall time\n"
    )
    report = _run(
        tmp_path,
        {"repro/utils/timing.py": flagged, "repro/utils/prof.py": sanctioned},
        select=["DET002"],
    )
    assert _rules_of(report) == ["DET002"]
    assert report.findings[0].file.endswith("repro/utils/timing.py")
    assert report.suppressed == 1


# -- PERF001 -----------------------------------------------------------------


def test_perf001_flags_float64_coercion_in_bank_forward(tmp_path):
    source = (
        "import numpy as np\n"
        "class Layer:\n"
        "    def bank_forward(self, x, params, prefix=''):\n"
        "        data = np.asarray(x, dtype=float)\n"
        "        return data\n"
    )
    report = _run(tmp_path, {"repro/nn/x.py": source}, select=["PERF001"])
    (finding,) = report.findings
    assert finding.rule == "PERF001"
    assert finding.line == 4
    assert "bank_forward" in finding.message


def test_perf001_flags_np_float64_in_step(tmp_path):
    source = (
        "import numpy as np\n"
        "class Opt:\n"
        "    def step(self):\n"
        "        g = np.array(self.grad, dtype=np.float64)\n"
        "        self.p -= g\n"
    )
    report = _run(tmp_path, {"repro/optim/x.py": source}, select=["PERF001"])
    assert _rules_of(report) == ["PERF001"]


def test_perf001_allows_coercion_outside_hot_paths_and_dtype_preserving_calls(tmp_path):
    source = (
        "import numpy as np\n"
        "def broadcast_state(flat):\n"
        "    return np.asarray(flat, dtype=float)\n"
        "class Layer:\n"
        "    def bank_forward(self, x, params, prefix=''):\n"
        "        data = np.ascontiguousarray(x)\n"
        "        return np.asarray(data)\n"
    )
    report = _run(tmp_path, {"repro/nn/x.py": source}, select=["PERF001"])
    assert report.ok


# -- SPAWN001 ----------------------------------------------------------------


def test_spawn001_flags_lambda_target(tmp_path):
    source = (
        "import multiprocessing as mp\n"
        "p = mp.Process(target=lambda: 1, daemon=True)\n"
    )
    report = _run(tmp_path, {"repro/x.py": source}, select=["SPAWN001"])
    assert _rules_of(report) == ["SPAWN001"]


def test_spawn001_flags_nested_function_payload(tmp_path):
    source = (
        "def launch(pool, items):\n"
        "    def work(item):\n"
        "        return item + 1\n"
        "    return list(pool.imap_unordered(work, items))\n"
    )
    report = _run(tmp_path, {"repro/x.py": source}, select=["SPAWN001"])
    (finding,) = report.findings
    assert "another function" in finding.message
    assert finding.line == 4


def test_spawn001_flags_lambda_bound_name_and_lambda_args(tmp_path):
    source = (
        "work = lambda item: item + 1\n"  # noqa: E731 - fixture under test
        "def launch(pool, items):\n"
        "    return pool.map(work, items, key=lambda i: i)\n"
    )
    report = _run(tmp_path, {"repro/x.py": source}, select=["SPAWN001"])
    assert sorted(_rules_of(report)) == ["SPAWN001", "SPAWN001"]


def test_spawn001_allows_module_level_and_partial(tmp_path):
    source = (
        "import functools\n"
        "def work(item, scale):\n"
        "    return item * scale\n"
        "def launch(pool, items):\n"
        "    return pool.map(functools.partial(work, scale=2), items)\n"
        "def launch2(ctx, conn):\n"
        "    return ctx.Process(target=work, args=(conn, 1), daemon=True)\n"
    )
    report = _run(tmp_path, {"repro/x.py": source}, select=["SPAWN001"])
    assert report.ok


# -- SHM001 ------------------------------------------------------------------


def test_shm001_flags_class_creating_without_unlink(tmp_path):
    source = (
        "from multiprocessing import shared_memory\n"
        "class Plane:\n"
        "    def __init__(self, size):\n"
        "        self.seg = shared_memory.SharedMemory(create=True, size=size)\n"
        "    def close(self):\n"
        "        self.seg.close()\n"
    )
    report = _run(tmp_path, {"repro/x.py": source}, select=["SHM001"])
    (finding,) = report.findings
    assert finding.rule == "SHM001"
    assert "unlink()" in finding.message
    assert "close()" not in finding.message  # close IS present


def test_shm001_flags_module_level_create_with_no_teardown(tmp_path):
    source = (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "SEG = SharedMemory('scratch', True, 64)\n"  # positional create=True
    )
    report = _run(tmp_path, {"repro/x.py": source}, select=["SHM001"])
    (finding,) = report.findings
    assert "close()" in finding.message and "unlink()" in finding.message
    assert finding.line == 2


def test_shm001_allows_owner_with_full_teardown_and_attach(tmp_path):
    source = (
        "from multiprocessing import shared_memory\n"
        "class Plane:\n"
        "    def __init__(self, size):\n"
        "        self.seg = shared_memory.SharedMemory(create=True, size=size)\n"
        "    def destroy(self):\n"
        "        self.seg.close()\n"
        "        self.seg.unlink()\n"
        "def attach(name):\n"
        "    return shared_memory.SharedMemory(name=name, create=False)\n"
    )
    report = _run(tmp_path, {"repro/x.py": source}, select=["SHM001"])
    assert report.ok


def test_shm001_ships_clean_on_the_real_transport_module(tmp_path):
    # The actual transport layer must satisfy its own rule.
    from pathlib import Path as _Path

    source = _Path("src/repro/distributed/transport.py").read_text()
    report = _run(tmp_path, {"repro/distributed/transport.py": source}, select=["SHM001"])
    assert report.ok


# -- HASH001 -----------------------------------------------------------------


def test_hash001_flags_unsorted_dumps_feeding_hash(tmp_path):
    source = (
        "import hashlib, json\n"
        "def address(payload):\n"
        "    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()\n"
    )
    report = _run(tmp_path, {"repro/anywhere.py": source}, select=["HASH001"])
    assert _rules_of(report) == ["HASH001"]
    assert "insertion order" in report.findings[0].message


def test_hash001_flags_any_unsorted_dumps_in_store_modules(tmp_path):
    report = _run(
        tmp_path,
        {"repro/sweep/store.py": "import json\ndef save(p, d):\n    p.write_text(json.dumps(d))\n"},
        select=["HASH001"],
    )
    # A bare dumps in a store module breaks both contracts at once:
    # canonical key order and RFC 8259 float portability.
    assert _rules_of(report) == ["HASH001", "HASH001"]
    messages = sorted(f.message for f in report.findings)
    assert "allow_nan=False" in messages[0]
    assert "sort_keys=True" in messages[1]


def test_hash001_flags_allow_nan_regression_in_store_modules(tmp_path):
    source = (
        "import json\n"
        "def save(p, d):\n"
        "    p.write_text(json.dumps(d, sort_keys=True))\n"
    )
    report = _run(tmp_path, {"repro/sweep/store.py": source}, select=["HASH001"])
    assert _rules_of(report) == ["HASH001"]
    assert "allow_nan=False" in report.findings[0].message
    assert "NaN" in report.findings[0].message


def test_hash001_flags_raw_set_iteration_in_store_modules(tmp_path):
    source = (
        "def tags(cells):\n"
        "    out = []\n"
        "    for tag in {c.tag for c in cells}:\n"
        "        out.append(tag)\n"
        "    return out\n"
    )
    report = _run(tmp_path, {"repro/sweep/q.py": source}, select=["HASH001"])
    assert _rules_of(report) == ["HASH001"]


def test_hash001_accepts_canonical_forms(tmp_path):
    source = (
        "import hashlib, json\n"
        "def address(payload):\n"
        "    blob = json.dumps(payload, sort_keys=True, allow_nan=False)\n"
        "    return hashlib.sha256(blob.encode()).hexdigest()\n"
        "def tags(cells):\n"
        "    return [t for t in sorted({c.tag for c in cells})]\n"
    )
    report = _run(tmp_path, {"repro/sweep/store.py": source}, select=["HASH001"])
    assert report.ok


# -- BANK001 -----------------------------------------------------------------

_BANK_LAYER = (
    "class Blur:\n"
    "    def bank_forward(self, x, params, prefix=''):\n"
    "        return x\n"
)
_ABSTRACT_LAYER = (
    "class Base:\n"
    "    def bank_forward(self, x, params, prefix=''):\n"
    "        \"\"\"Stub.\"\"\"\n"
    "        raise NotImplementedError\n"
)


def _bank_conftest(tmp_path: Path, names) -> Path:
    path = tmp_path / "tests" / "conftest.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    body = ",\n".join(f'    "{name}"' for name in names)
    path.write_text("BANK_EQUIVALENCE_LAYERS = frozenset([\n%s\n])\n" % body)
    return path


def test_bank001_clean_when_declaration_matches(tmp_path):
    conftest = _bank_conftest(tmp_path, ["Blur"])
    report = _run(
        tmp_path,
        {"repro/nn/layers.py": _ABSTRACT_LAYER + _BANK_LAYER},
        select=["BANK001"],
        conftest=conftest,
    )
    assert report.ok  # the abstract stub is exempt, Blur is declared


def test_bank001_flags_undeclared_definer_at_class(tmp_path):
    conftest = _bank_conftest(tmp_path, [])
    report = _run(
        tmp_path,
        {"repro/nn/layers.py": _BANK_LAYER},
        select=["BANK001"],
        conftest=conftest,
    )
    (finding,) = report.findings
    assert "Blur" in finding.message
    assert finding.file.endswith("repro/nn/layers.py")
    assert finding.line == 1


def test_bank001_flags_stale_declaration_at_conftest(tmp_path):
    conftest = _bank_conftest(tmp_path, ["Blur", "Ghost"])
    report = _run(
        tmp_path,
        {"repro/nn/layers.py": _BANK_LAYER},
        select=["BANK001"],
        conftest=conftest,
    )
    (finding,) = report.findings
    assert "Ghost" in finding.message
    assert finding.file == str(conftest)


def test_bank001_catches_layer_dropped_from_real_matrix(tmp_path):
    """Acceptance check: removing a declared layer fails the real-tree lint."""
    pruned = sorted(BANK_EQUIVALENCE_LAYERS - {"Tanh"})
    conftest = _bank_conftest(tmp_path, pruned)
    report = run_analysis([SRC_ROOT / "repro"], select=["BANK001"], conftest=conftest)
    assert not report.ok
    assert any("Tanh" in f.message for f in report.findings)


# -- OBS001 ------------------------------------------------------------------

_OBS_EVENTS = (
    'EVENTS: dict[str, Event] = {\n'
    '    "round": Event(counter="rounds_total"),\n'
    '    "eval": Event(),\n'
    '    "im2col": _kernel("im2col"),\n'
    '}\n'
)


def test_obs001_clean_when_names_are_registered(tmp_path):
    report = _run(
        tmp_path,
        {
            "repro/obs/events.py": _OBS_EVENTS,
            "repro/core/t.py": (
                "from repro.obs.emit import span, instant\n"
                "def f(clock):\n"
                "    with span('round', clock=clock, round=1), span('im2col'):\n"
                "        instant('eval')\n"
            ),
        },
        select=["OBS001"],
    )
    assert report.ok


def test_obs001_flags_unregistered_literal_name(tmp_path):
    report = _run(
        tmp_path,
        {
            "repro/obs/events.py": _OBS_EVENTS,
            "repro/core/t.py": (
                "from repro.obs.emit import instant\n"
                "instant('bogus_event')\n"
            ),
        },
        select=["OBS001"],
    )
    (finding,) = report.findings
    assert "bogus_event" in finding.message and finding.line == 2


def test_obs001_flags_computed_name_through_imported_helper(tmp_path):
    report = _run(
        tmp_path,
        {
            "repro/obs/events.py": _OBS_EVENTS,
            "repro/core/t.py": (
                "from repro.obs.emit import span as sp\n"
                "def f(name):\n"
                "    return sp(name)\n"
            ),
        },
        select=["OBS001"],
    )
    (finding,) = report.findings
    assert "string literal" in finding.message


def test_obs001_checks_method_calls_but_not_argless_span(tmp_path):
    report = _run(
        tmp_path,
        {
            "repro/obs/events.py": _OBS_EVENTS,
            "repro/core/t.py": (
                "def f(tracer, match):\n"
                "    tracer.span('mystery')\n"
                "    return match.span(0)\n"   # re.Match.span: not an event
            ),
        },
        select=["OBS001"],
    )
    (finding,) = report.findings
    assert "mystery" in finding.message


def test_obs001_exempts_the_obs_package_itself(tmp_path):
    report = _run(
        tmp_path,
        {
            "repro/obs/events.py": _OBS_EVENTS,
            "repro/obs/emit.py": (
                "def span(name):\n"
                "    return name\n"
                "def forward(self, name):\n"
                "    return self.span(name)\n"
            ),
        },
        select=["OBS001"],
    )
    assert report.ok


def test_obs001_flags_missing_registry_declaration(tmp_path):
    report = _run(
        tmp_path,
        {
            "repro/core/t.py": (
                "from repro.obs.emit import instant\n"
                "instant('round')\n"
            ),
        },
        select=["OBS001"],
    )
    (finding,) = report.findings
    assert "EVENTS" in finding.message


def test_obs001_catches_name_dropped_from_real_registry(tmp_path):
    """Acceptance check: dropping "round" from the registry fails the real
    emission sites (copied verbatim into a fixture tree — the analysis is
    purely syntactic, so their imports never run)."""
    events_py = (SRC_ROOT / "repro" / "obs" / "events.py").read_text()
    pruned = events_py.replace('    "round": Event(counter="rounds_total"),\n', "")
    assert pruned != events_py
    report = _run(
        tmp_path,
        {
            "repro/obs/events.py": pruned,
            "repro/core/trainer.py": (SRC_ROOT / "repro" / "core" / "trainer.py").read_text(),
        },
        select=["OBS001"],
    )
    assert not report.ok
    assert all("'round'" in f.message for f in report.findings)


# -- API001 ------------------------------------------------------------------


def test_api001_flags_duplicate_registration_across_files(tmp_path):
    report = _run(
        tmp_path,
        {
            "repro/models/a.py": 'MODELS.register("mlp", build_a)\n',
            "repro/models/b.py": 'MODELS.register("mlp", build_b)\n',
        },
        select=["API001"],
    )
    (finding,) = report.findings
    assert "duplicate registration" in finding.message
    assert "a.py:1" in finding.message  # points back at the first site
    assert finding.file.endswith("b.py")


def test_api001_allows_explicit_overwrite(tmp_path):
    report = _run(
        tmp_path,
        {
            "repro/models/a.py": 'MODELS.register("mlp", build_a)\n',
            "repro/models/b.py": 'MODELS.register("mlp", build_b, overwrite=True)\n',
        },
        select=["API001"],
    )
    assert report.ok


def test_api001_flags_stale_and_duplicate_all_entries(tmp_path):
    source = 'def f():\n    pass\n__all__ = ["f", "f", "ghost"]\n'
    report = _run(tmp_path, {"repro/x.py": source}, select=["API001"])
    messages = sorted(f.message for f in report.findings)
    assert len(messages) == 2
    assert "more than once" in messages[0]
    assert "ghost" in messages[1]


def test_api001_lazy_getattr_module_is_exempt_from_existence(tmp_path):
    source = (
        "def __getattr__(name):\n"
        "    raise AttributeError(name)\n"
        '__all__ = ["Lazy", "Lazy"]\n'
    )
    report = _run(tmp_path, {"repro/x.py": source}, select=["API001"])
    # existence of "Lazy" is unknowable, but the duplicate still counts
    assert len(report.findings) == 1
    assert "more than once" in report.findings[0].message


# -- PY001 / PY002 -----------------------------------------------------------


def test_py001_flags_mutable_defaults(tmp_path):
    source = (
        "def f(history=[]):\n"
        "    return history\n"
        "def g(*, cache=dict()):\n"
        "    return cache\n"
        "def h(items=None, scale=1.0):\n"
        "    return items\n"
    )
    report = _run(tmp_path, {"repro/x.py": source}, select=["PY001"])
    assert sorted(_rules_of(report)) == ["PY001", "PY001"]


def test_py002_flags_bare_except(tmp_path):
    source = (
        "try:\n    x = 1\nexcept:\n    pass\n"
        "try:\n    y = 2\nexcept ValueError:\n    pass\n"
    )
    report = _run(tmp_path, {"repro/x.py": source}, select=["PY002"])
    assert _rules_of(report) == ["PY002"]
    assert report.findings[0].line == 3


# -- suppressions ------------------------------------------------------------


def test_suppression_comment_silences_named_rule(tmp_path):
    source = "import numpy as np\nrng = np.random.default_rng()  # repro: ignore[DET001] fixture\n"
    report = _run(tmp_path, {"repro/x.py": source}, select=["DET001"])
    assert report.ok
    assert report.suppressed == 1


def test_suppression_of_other_rule_does_not_silence(tmp_path):
    source = "import numpy as np\nrng = np.random.default_rng()  # repro: ignore[PY001]\n"
    report = _run(tmp_path, {"repro/x.py": source}, select=["DET001"])
    assert _rules_of(report) == ["DET001"]
    assert report.suppressed == 0


def test_bare_suppression_silences_every_rule_on_line(tmp_path):
    source = "import numpy as np\nrng = np.random.default_rng()  # repro: ignore\n"
    report = _run(tmp_path, {"repro/x.py": source}, select=["DET001"])
    assert report.ok
    assert report.suppressed == 1


def test_suppressions_for_line_grammar():
    assert suppressions_for_line("x = 1") == set()
    assert suppressions_for_line("x = 1  # repro: ignore") == {"*"}
    assert suppressions_for_line("x = 1  # repro: ignore[DET001]") == {"DET001"}
    assert suppressions_for_line("x = 1  # repro: ignore[DET001, PY002] why") == {
        "DET001",
        "PY002",
    }


# -- engine / selection / errors --------------------------------------------


def test_syntax_error_becomes_e999_finding(tmp_path):
    report = _run(tmp_path, {"repro/x.py": "def broken(:\n"}, select=["PY002"])
    assert _rules_of(report) == ["E999"]


def test_unknown_rule_raises(tmp_path):
    with pytest.raises(ValueError, match="NOPE001"):
        _run(tmp_path, {"repro/x.py": "x = 1\n"}, select=["NOPE001"])


def test_select_and_ignore_control_rules_run(tmp_path):
    files = {"repro/x.py": "import numpy as np\nv = np.random.rand(3)\n"}
    selected = _run(tmp_path, dict(files), select=["DET001", "PY002"])
    assert selected.rules_run == ["DET001", "PY002"]
    ignored = _run(tmp_path, dict(files), ignore=["DET001"])
    assert "DET001" not in ignored.rules_run
    assert ignored.ok


def test_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        run_analysis([tmp_path / "nope"])


def test_findings_sorted_and_deduped_scan(tmp_path):
    files = {
        "repro/b.py": "import numpy as np\nv = np.random.rand(3)\nw = np.random.rand(3)\n",
        "repro/a.py": "import numpy as np\nv = np.random.rand(3)\n",
    }
    root = _write_tree(tmp_path / "tree", files)
    # the same file reached through two roots is scanned once
    report = run_analysis([root, root / "repro" / "a.py"], select=["DET001"])
    assert report.files_scanned == 2
    assert [Path(f.file).name for f in report.findings] == ["a.py", "b.py", "b.py"]


# -- CLI ---------------------------------------------------------------------


def test_cli_exit_codes(tmp_path, capsys):
    bad = _write_tree(tmp_path / "tree", {"repro/x.py": "import random\nrandom.random()\n"})
    clean = _write_tree(tmp_path / "clean", {"repro/y.py": "x = 1\n"})
    assert cli_main([str(clean), "--rules", "DET001"]) == 0
    assert cli_main([str(bad), "--rules", "DET001"]) == 1
    assert cli_main([str(tmp_path / "missing")]) == 2
    assert cli_main([str(clean), "--rules", "NOPE001"]) == 2
    capsys.readouterr()


def test_cli_text_output_is_clickable(tmp_path, capsys):
    bad = _write_tree(tmp_path / "tree", {"repro/x.py": "import random\nrandom.random()\n"})
    assert cli_main([str(bad), "--rules", "DET001"]) == 1
    out = capsys.readouterr().out
    assert "repro/x.py:2:" in out
    assert "DET001" in out
    assert "1 finding(s)" in out


def test_cli_json_schema(tmp_path, capsys):
    bad = _write_tree(tmp_path / "tree", {"repro/x.py": "import random\nrandom.random()\n"})
    assert cli_main([str(bad), "--rules", "DET001", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["files_scanned"] == 1
    assert payload["suppressed"] == 0
    assert payload["rules"] == ["DET001"]
    (finding,) = payload["findings"]
    assert set(finding) == {"rule", "message", "file", "line", "col"}
    assert finding["line"] == 2


def test_cli_list_rules_matches_registry(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == rules_table_markdown().strip()
    for rule_id in RULES.names():
        assert f"`{rule_id}`" in out


def test_readme_rule_table_is_generated_output():
    """The README's rule table is ``--list-rules`` verbatim — no drift."""
    readme = (REPO_ROOT / "README.md").read_text()
    assert rules_table_markdown() in readme


# -- the shipped tree --------------------------------------------------------


def test_shipped_tree_lints_clean():
    """`python -m repro.analysis src/` must exit 0 on the repo itself."""
    report = run_analysis([SRC_ROOT / "repro"], conftest=CONFTEST)
    assert report.findings == [], "\n".join(f.render() for f in report.findings)
    assert report.files_scanned > 50


def test_shipped_tree_lints_clean_via_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(SRC_ROOT)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_bank_declaration_matches_runtime_matrix():
    """BANK_EQUIVALENCE_LAYERS == layers the equivalence cases instantiate.

    The static side (BANK001) pins declaration == definers; this pins
    declaration == exercised, so a bank-capable layer cannot silently
    drop out of the matrix while staying declared.
    """
    from repro.nn.layers import Module

    def walk(module):
        yield module
        for child in module._modules.values():
            yield from walk(child)

    observed = set()
    for case in equivalence_cases():
        model = case.model_fn()
        for mod in walk(model):
            for klass in type(mod).__mro__:
                if klass is Module or not klass.__module__.startswith("repro."):
                    continue
                if "bank_forward" in vars(klass):
                    observed.add(klass.__name__)
    assert observed == BANK_EQUIVALENCE_LAYERS


# -- ruff (satellite lint gate) ---------------------------------------------


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = subprocess.run(
        ["ruff", "check", "."], cwd=REPO_ROOT, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
