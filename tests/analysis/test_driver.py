"""The ``python -m repro.analysis`` driver: formats, exit codes, audits.

Synthetic trees are injected by monkeypatching ``_default_src_root`` so
every exit path is exercised without touching the real source tree.
"""

from __future__ import annotations

import json
import textwrap

import pytest

import repro.analysis.__main__ as driver

UNITS = """
    Seconds = float
    Bits = float
    BitsPerSecond = float
"""

CLEAN = {
    "units.py": UNITS,
    "ok.py": """
        from .units import Bits, BitsPerSecond, Seconds

        def transfer_time(size: Bits, capacity: BitsPerSecond) -> Seconds:
            return size / capacity
    """,
}

MIXED_UNITS = {
    "units.py": UNITS,
    "bad.py": """
        from .units import BitsPerSecond, Seconds

        def broken(delay: Seconds, capacity: BitsPerSecond):
            return delay + capacity
    """,
}

COLD_ALLOC = {
    "slow.py": """
        import numpy as np

        def per_round(n, rounds):
            total = 0.0
            for _ in range(rounds):
                total += np.zeros(n).sum()
            return total
    """,
}


@pytest.fixture
def fake_tree(monkeypatch, tmp_path):
    """Write {relpath: source} under a fake src root and point main() at it."""

    def build(files):
        root = tmp_path / "srcroot"
        (root / "proj").mkdir(parents=True, exist_ok=True)
        (root / "proj" / "__init__.py").write_text("")
        for rel, source in files.items():
            path = root / "proj" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        monkeypatch.setattr(driver, "_default_src_root", lambda: root)
        # The tape dataflow pass records the *real* model — meaningless
        # (and slow) against a fake source tree, so stub it out here; the
        # real-tree tests below exercise it for real.
        import repro.analysis.dataflow as dataflow_pkg

        monkeypatch.setattr(
            dataflow_pkg, "run_dataflow",
            lambda repo_root=None, families=None: ([], {"stubbed": True}),
        )
        return root

    return build


def run_json(capsys, argv):
    rc = driver.main([*argv, "--format", "json"])
    return rc, json.loads(capsys.readouterr().out)


class TestFormats:
    def test_json_payload_shape(self, fake_tree, capsys):
        fake_tree(CLEAN)
        rc, payload = run_json(capsys, [])
        assert rc == 0
        assert set(payload) >= {"findings", "counts", "elapsed_seconds"}
        assert not {"lint", "shapes"} & set(payload)
        assert payload["counts"] == {"errors": 0, "warnings": 0}
        assert payload["findings"] == []

    def test_json_finding_fields(self, fake_tree, capsys):
        fake_tree(MIXED_UNITS)
        rc, payload = run_json(capsys, [])
        assert rc == 0  # non-strict: findings never gate
        (finding,) = payload["findings"]
        assert finding["code"] == "RP301"
        assert finding["severity"] == "error"
        assert finding["path"].endswith("proj/bad.py")
        assert {"line", "col", "message"} <= set(finding)

    def test_github_annotations(self, fake_tree, capsys):
        fake_tree(MIXED_UNITS)
        rc = driver.main(["--format", "github"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("::error ")]
        assert len(lines) == 1
        assert "file=" in lines[0] and "line=" in lines[0]
        assert "RP301" in lines[0]

    def test_github_warning_level(self, fake_tree, capsys):
        fake_tree(COLD_ALLOC)
        driver.main(["--format", "github"])
        out = capsys.readouterr().out
        assert any(ln.startswith("::warning ") and "RP402" in ln
                   for ln in out.splitlines())

    def test_text_hides_warnings_by_default(self, fake_tree, capsys):
        fake_tree(COLD_ALLOC)
        rc = driver.main(["--strict"])
        out = capsys.readouterr().out
        assert rc == 0  # warnings never gate, even under --strict
        assert "warning(s) hidden" in out
        assert "RP402" not in out

    def test_text_show_warnings(self, fake_tree, capsys):
        fake_tree(COLD_ALLOC)
        driver.main(["--show-warnings"])
        out = capsys.readouterr().out
        assert "RP402" in out


class TestExitCodes:
    def test_strict_gates_on_errors(self, fake_tree, capsys):
        fake_tree(MIXED_UNITS)
        assert driver.main(["--strict"]) == 1
        capsys.readouterr()

    def test_non_strict_reports_but_passes(self, fake_tree, capsys):
        fake_tree(MIXED_UNITS)
        assert driver.main([]) == 0
        assert "non-strict" in capsys.readouterr().out

    def test_unknown_rule_is_config_error(self, fake_tree, capsys):
        fake_tree(CLEAN)
        assert driver.main(["--rules", "RP999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_unparsable_source_is_config_error(self, fake_tree, capsys):
        fake_tree({"broken.py": "def nope(:\n"})
        assert driver.main([]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_max_seconds_budget_failure(self, fake_tree, capsys):
        fake_tree(CLEAN)
        assert driver.main(["--max-seconds", "0.0"]) == 1
        assert "budget" in capsys.readouterr().err


class TestStaleSuppressionAudit:
    def test_stale_disable_reported_rp008(self, fake_tree, capsys):
        fake_tree({
            "m.py": """
                def fine():
                    return 1  # repro-lint: disable=RP002
            """,
        })
        rc, payload = run_json(capsys, ["--strict"])
        assert rc == 1
        codes = [f["code"] for f in payload["findings"]]
        assert codes == ["RP008"]
        assert "disable=RP002" in payload["findings"][0]["message"]

    def test_used_disable_not_stale(self, fake_tree, capsys):
        fake_tree({
            "units.py": UNITS,
            "m.py": """
                from .units import Bits, Seconds

                def known(size: Bits, horizon: Seconds):
                    return size + horizon  # repro-lint: disable=RP301
            """,
        })
        rc, payload = run_json(capsys, ["--strict"])
        assert rc == 0
        assert payload["findings"] == []

    def test_audit_skipped_with_rule_subset(self, fake_tree, capsys):
        """A subset run cannot distinguish stale from not-yet-checked."""
        fake_tree({
            "m.py": """
                def fine():
                    return 1  # repro-lint: disable=RP002
            """,
        })
        rc, payload = run_json(capsys, ["--strict", "--rules", "RP002"])
        assert rc == 0
        assert payload["findings"] == []


class TestLockOrderPayload:
    def test_json_payload_carries_the_lock_order_graph(self, fake_tree, capsys):
        fake_tree({
            "svc.py": """
                import threading

                class Service:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def nested(self):
                        with self._a:
                            with self._b:
                                pass
            """,
        })
        rc, payload = run_json(capsys, [])
        assert rc == 0
        graph = payload["lock_order"]
        assert set(graph) == {"roots", "locks", "edges", "cycles"}
        assert {"proj.svc.Service._a", "proj.svc.Service._b"} <= set(graph["locks"])
        assert [(e["from"], e["to"]) for e in graph["edges"]] == [
            ("proj.svc.Service._a", "proj.svc.Service._b")
        ]
        assert graph["edges"][0]["sites"]  # witness acquisition sites
        assert graph["cycles"] == []

    def test_rp504_cycle_fails_strict_and_lands_in_payload(
            self, fake_tree, capsys):
        fake_tree({
            "svc.py": """
                import threading

                class Service:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def ab(self):
                        with self._a:
                            with self._b:
                                pass

                    def ba(self):
                        with self._b:
                            with self._a:
                                pass
            """,
        })
        rc, payload = run_json(capsys, [])
        assert rc == 0  # non-strict; RP5xx is a warning outside serving/runner
        assert payload["lock_order"]["cycles"] == [
            ["proj.svc.Service._a", "proj.svc.Service._b"]
        ]
        assert "RP504" in {f["code"] for f in payload["findings"]}


class TestCache:
    def test_cache_dir_populated_and_reused(self, fake_tree, tmp_path, capsys):
        fake_tree(CLEAN)
        cache = tmp_path / "cache"
        rc1, _ = run_json(capsys, ["--cache-dir", str(cache)])
        assert rc1 == 0
        cached = set(cache.glob("*.pkl"))
        assert cached
        rc2, payload = run_json(capsys, ["--cache-dir", str(cache)])
        assert rc2 == 0 and payload["counts"]["errors"] == 0
        assert set(cache.glob("*.pkl")) == cached


class TestRealTree:
    def test_repo_passes_strict(self, capsys):
        """Acceptance: the full suite over the real tree is clean.

        Includes the tape dataflow pass (RP6xx) recording the real model —
        the repo's own tape must be free of RP601/RP602/RP603 findings.
        """
        assert driver.main(["--strict"]) == 0
        capsys.readouterr()

    def test_dataflow_payload_and_flag(self, capsys):
        rc = driver.main(
            ["--format", "json", "--no-flow", "--no-lint"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        plans = payload["dataflow"]["arena_plans"]
        assert set(plans) == {"nsfnet", "geant2", "synthetic50"}
        for family in plans.values():
            proof = family["tape"]["proof"]
            assert proof["violations"] == []
            assert proof["pairs_checked"] >= proof["live_pairs"]

        rc = driver.main([
            "--format", "json", "--no-flow", "--no-lint",
            "--no-dataflow",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0 and "dataflow" not in payload

    def test_forward_failure_is_one_rp605_per_family(self, monkeypatch, capsys):
        """A kernel bug fails --strict with one localized finding per family.

        The transposed path-cell input raises a raw numpy ValueError inside
        ``GRUCell.precompute_input``; ``main`` must report it, not crash.
        """
        from repro.analysis import paper_signatures
        from repro.core import HyperParams
        from repro.nn.rnn import GRUCell

        original = GRUCell.precompute_input
        monkeypatch.setattr(
            GRUCell, "precompute_input", lambda self, x: original(self, x.T)
        )
        rc = driver.main(
            ["--strict", "--no-lint", "--no-flow", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        rp605 = [f for f in payload["findings"] if f["code"] == "RP605"]
        signatures = paper_signatures()
        assert sorted(f["path"] for f in rp605) == sorted(
            f"<tape:{family}>" for family in signatures
        )
        state_dim = HyperParams().link_state_dim
        for finding in rp605:
            family = finding["path"][len("<tape:"):-1]
            assert finding["severity"] == "error"
            assert "precompute_input" in finding["message"]
            transposed = (state_dim, signatures[family].num_links)
            assert f"operand shapes: {transposed}" in finding["message"]
            assert "last ops before failure" in finding["message"]
