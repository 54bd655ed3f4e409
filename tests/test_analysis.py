"""repro.analysis: rule battery, suppressions, CLI, and the self-check.

Fixture trees reproduce the package layout (``<tmp>/repro/core/...``) so
path-scoped rules see the same relpaths they see in ``src/``.  The
closing tests are the ones the subsystem exists for: the shipped tree
must lint clean, through the API and through the CLI.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import RULES, run_analysis
from repro.analysis.cli import main as cli_main
from repro.analysis.cli import rules_table_markdown
from repro.analysis.findings import suppressions_for_line

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"


def _write_tree(base: Path, files: dict) -> Path:
    for relpath, source in files.items():
        target = base / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return base


def _run(tmp_path: Path, files: dict, select=None, ignore=None):
    """Analyze a fixture tree; rules are selected explicitly per test."""
    root = _write_tree(tmp_path / "tree", files)
    return run_analysis([root], select=select, ignore=ignore)


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


# -- suppressions ------------------------------------------------------------


def test_suppression_comment_silences_named_rule(tmp_path):
    source = "import numpy as np\nrng = np.random.default_rng()  # repro: ignore[DET001] fixture\n"
    report = _run(tmp_path, {"repro/x.py": source}, select=["DET001"])
    assert report.ok
    assert report.suppressed == 1


def test_suppression_of_other_rule_does_not_silence(tmp_path):
    source = "import numpy as np\nrng = np.random.default_rng()  # repro: ignore[DET002]\n"
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
    assert suppressions_for_line("x = 1  # repro: ignore[DET001, DET002] why") == {
        "DET001",
        "DET002",
    }


# -- engine / selection / errors --------------------------------------------


def test_syntax_error_becomes_e999_finding(tmp_path):
    report = _run(tmp_path, {"repro/x.py": "def broken(:\n"}, select=["DET001"])
    assert _rules_of(report) == ["E999"]


def test_unknown_rule_raises(tmp_path):
    with pytest.raises(ValueError, match="NOPE001"):
        _run(tmp_path, {"repro/x.py": "x = 1\n"}, select=["NOPE001"])


def test_select_and_ignore_control_rules_run(tmp_path):
    files = {"repro/x.py": "import numpy as np\nv = np.random.rand(3)\n"}
    selected = _run(tmp_path, dict(files), select=["DET001", "HASH001"])
    assert selected.rules_run == ["DET001", "HASH001"]
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
    report = run_analysis([SRC_ROOT / "repro"])
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


# -- ruff (satellite lint gate) ---------------------------------------------


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = subprocess.run(
        ["ruff", "check", "."], cwd=REPO_ROOT, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
