"""RP4xx numpy hot-path perf lints: detection, hot/cold severity, exemptions."""

from __future__ import annotations

from repro.analysis.flow.perf import check_perf, hot_functions


def findings_for(make_graph, files, pkg="proj"):
    index, graph = make_graph(files, pkg=pkg)
    return check_perf(index, graph)


class TestDetection:
    def test_rp401_concatenate_in_loop(self, make_graph):
        findings = findings_for(make_graph, {
            "m.py": """
                import numpy as np

                def accumulate(chunks):
                    out = np.zeros(4)
                    for chunk in chunks:
                        out = np.concatenate([out, chunk])
                    return out
            """,
        })
        assert [v.code for v in findings] == ["RP401"]
        assert findings[0].severity == "warning"

    def test_rp402_allocation_in_loop(self, make_graph):
        findings = findings_for(make_graph, {
            "m.py": """
                import numpy as np

                def per_round(n, rounds):
                    total = 0.0
                    for _ in range(rounds):
                        buf = np.zeros(n)
                        total += buf.sum()
                    return total
            """,
        })
        assert [v.code for v in findings] == ["RP402"]

    def test_hoisted_allocation_is_clean(self, make_graph):
        findings = findings_for(make_graph, {
            "m.py": """
                import numpy as np

                def per_round(n, rounds):
                    buf = np.zeros(n)
                    total = 0.0
                    for _ in range(rounds):
                        buf[:] = 0.0
                        total += buf.sum()
                    return total
            """,
        })
        assert findings == []

    def test_rp403_loop_over_annotated_ndarray(self, make_graph):
        findings = findings_for(make_graph, {
            "m.py": """
                import numpy as np

                def total(values: np.ndarray):
                    acc = 0.0
                    for v in values:
                        acc += v
                    return acc
            """,
        })
        assert [v.code for v in findings] == ["RP403"]

    def test_rp403_container_of_arrays_is_clean(self, make_graph):
        """Regression: ``Sequence[np.ndarray]`` is a Python container — only
        the outer annotation type may classify an argument as an ndarray.
        (Walking the whole annotation flagged the gradient-reduction loops
        in ``repro.nn.grads``.)"""
        findings = findings_for(make_graph, {
            "m.py": """
                from typing import Optional, Sequence
                import numpy as np

                def reduce_all(grads: Sequence[np.ndarray],
                               extras: list[np.ndarray],
                               direct: np.ndarray,
                               maybe: Optional[np.ndarray]):
                    acc = 0.0
                    for g in grads:
                        acc += float(g.sum())
                    for e in extras:
                        acc += float(e.sum())
                    for v in direct:
                        acc += v
                    for v in maybe:
                        acc += v
                    return acc
            """,
        })
        # Only the two genuinely-ndarray arguments are flagged.
        assert [v.code for v in findings] == ["RP403", "RP403"]
        assert "direct" in findings[0].message
        assert "maybe" in findings[1].message

    def test_rp403_through_enumerate(self, make_graph):
        findings = findings_for(make_graph, {
            "m.py": """
                import numpy as np

                def scan(n):
                    xs = np.arange(n)
                    acc = 0.0
                    for i, v in enumerate(xs):
                        acc += i * v
                    return acc
            """,
        })
        assert [v.code for v in findings] == ["RP403"]

    def test_rebound_local_no_longer_tracked(self, make_graph):
        """Rebinding the name to a non-array clears the ndarray fact."""
        findings = findings_for(make_graph, {
            "m.py": """
                import numpy as np

                def scan(n):
                    xs = np.arange(n)
                    xs = list(range(n))
                    acc = 0
                    for v in xs:
                        acc += v
                    return acc
            """,
        })
        assert findings == []

    def test_rp404_astype_and_dtype(self, make_graph):
        findings = findings_for(make_graph, {
            "m.py": """
                import numpy as np

                def widen(x):
                    return x.astype(np.float64)

                def alloc(n):
                    return np.zeros(n, dtype=float)
            """,
        })
        assert sorted(v.code for v in findings) == ["RP404", "RP404"]


class TestHotPath:
    def test_forward_method_seeds_hot_set(self, make_graph):
        index, graph = make_graph({
            "model.py": """
                import numpy as np
                from .helpers import gather

                class Layer:
                    def forward(self, x):
                        return gather(x)
            """,
            "helpers.py": """
                import numpy as np

                def gather(xs):
                    out = np.zeros(3)
                    for x in xs:
                        out = np.concatenate([out, x])
                    return out
            """,
        })
        hot = hot_functions(index, graph)
        assert "proj.helpers.gather" in hot
        findings = check_perf(index, graph)
        concat = [v for v in findings if v.code == "RP401"]
        assert len(concat) == 1
        assert concat[0].severity == "error"
        assert "hot path via proj.helpers.gather" in concat[0].message

    def test_serving_module_is_hot(self, make_graph):
        findings = findings_for(make_graph, {
            "/repro/__init__.py": "",
            "/repro/serving/__init__.py": "",
            "/repro/serving/engine.py": """
                import numpy as np

                def batch(rounds, n):
                    for _ in range(rounds):
                        buf = np.zeros(n)
                    return buf
            """,
        })
        alloc = [v for v in findings if v.code == "RP402"]
        assert len(alloc) == 1
        assert alloc[0].severity == "error"

    def test_cold_module_is_warning_only(self, make_graph):
        findings = findings_for(make_graph, {
            "scripts.py": """
                import numpy as np

                def plot_prep(chunks):
                    rows = np.zeros(1)
                    for c in chunks:
                        rows = np.vstack([rows, c])
                    return rows
            """,
        })
        assert all(v.severity == "warning" for v in findings)

    def test_nn_dtype_exemption(self, make_graph):
        """float64 inside repro.nn is engine policy, not a perf bug."""
        findings = findings_for(make_graph, {
            "/repro/__init__.py": "",
            "/repro/nn/__init__.py": "",
            "/repro/nn/ops.py": """
                import numpy as np

                def promote(x):
                    return x.astype(np.float64)
            """,
        })
        assert [v.code for v in findings] == []


class TestRealTree:
    def test_no_hot_path_errors_in_repo(self, repo_index_and_graph):
        """The hot set must be free of error-severity RP4xx findings."""
        index, graph = repo_index_and_graph
        findings = check_perf(index, graph)
        hard = [v for v in findings if v.severity == "error"]
        assert hard == [], [v.format() for v in hard]

    def test_serving_fastpath_is_in_hot_set(self, repo_index_and_graph):
        """Serving runs the one RouteNet forward: the engine's entry point
        and the forward it calls are both under the hot-path lints."""
        index, graph = repo_index_and_graph
        hot = hot_functions(index, graph)
        assert "repro.serving.engine.fast_forward" in hot
        assert "repro.core.routenet.RouteNet.forward" in hot

    def test_serving_service_is_in_hot_set(self, repo_index_and_graph):
        """The request-queue service (worker loop, coalescing, admission)
        runs per request and per batch: it must stay under the RP401-RP404
        perf lints along with the rest of repro.serving."""
        index, graph = repo_index_and_graph
        hot = hot_functions(index, graph)
        assert "repro.serving.service.ServingService.submit" in hot
        assert any(q.startswith("repro.serving.engine.") for q in hot)

    def test_training_step_closure_is_hot(self, repo_index_and_graph):
        """The RP401-RP404 hot set covers everything reachable from the
        training step entry points, not just serving/nn code: the loss and
        both trainer step methods must land in it."""
        index, graph = repo_index_and_graph
        hot = hot_functions(index, graph)
        assert "repro.training.trainer.Trainer.train_step" in hot
        assert "repro.training.trainer.Trainer.train_step_batch" in hot
        assert "repro.training.loss.huber_loss" in hot
