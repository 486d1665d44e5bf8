"""Tape recorder + RP6xx checks: alias classes, liveness, injected bugs."""

import json

import numpy as np

from repro import nn
from repro.analysis import TopologySignature
from repro.analysis.dataflow import (
    RecordedStep,
    TapeRecorder,
    check_tape,
    record_fused_step,
    run_dataflow,
    tape_arena_plan,
)
from repro.core import HyperParams, RouteNet


def tiny_signature():
    link_indices = np.array([[0, 1, -1], [1, 2, 0], [2, -1, -1]])
    return TopologySignature(
        name="tiny",
        num_nodes=4,
        num_links=3,
        num_paths=3,
        link_indices=link_indices,
        mask=link_indices >= 0,
    )


def tiny_model():
    return RouteNet(
        HyperParams(
            link_state_dim=4,
            path_state_dim=4,
            message_passing_steps=2,
            readout_hidden=(4,),
        ),
        seed=0,
    )


def record(build):
    """Run ``build`` under a recorder; returns the finished RecordedStep."""
    recorder = TapeRecorder()
    with recorder.recording():
        keep = build(recorder)
    mutations = recorder.verify_retained()
    recorder.graph.finalize()
    recorder.release()
    del keep
    return RecordedStep(
        graph=recorder.graph,
        mutations=mutations,
        escaped=recorder.escaped_values(),
    )


def by_op(graph, op):
    return [v for v in graph.values if v.op == op]


class TestAliasClasses:
    def test_view_chain_shares_storage(self):
        def build(recorder):
            x = nn.tensor(np.arange(24.0).reshape(4, 6), requires_grad=True)
            r = x.reshape(6, 4)   # view
            t = r.T               # view of view
            s = t[1:3]            # basic slice: still a view
            loss = s.sum()
            recorder.mark_loss(loss)
            loss.backward()
            return x, r, t, s, loss

        graph = record(build).graph
        (leaf,) = [v for v in graph.values if v.is_leaf and v.shape == (4, 6)]
        (reshape,) = by_op(graph, "reshape")
        (transpose,) = by_op(graph, "T")
        (getitem,) = by_op(graph, "getitem")
        assert reshape.storage == leaf.storage
        assert transpose.storage == leaf.storage
        assert getitem.storage == leaf.storage
        assert set(graph.alias_class(leaf.vid)) >= {
            leaf.vid, reshape.vid, transpose.vid, getitem.vid
        }

    def test_fancy_index_copies_into_new_storage(self):
        def build(recorder):
            x = nn.tensor(np.arange(8.0), requires_grad=True)
            # Integer-array indexing may repeat positions
            # (_indexes_unique_positions is False): numpy copies, so the
            # result must land in its own alias class.
            gathered = x[np.array([0, 3, 3, 5])]
            loss = gathered.sum()
            recorder.mark_loss(loss)
            loss.backward()
            return x, gathered, loss

        graph = record(build).graph
        (leaf,) = [v for v in graph.values if v.is_leaf]
        (getitem,) = by_op(graph, "getitem")
        assert getitem.storage != leaf.storage
        assert graph.alias_class(getitem.vid) == [getitem.vid]

    def test_boolean_mask_copies_too(self):
        def build(recorder):
            x = nn.tensor(np.arange(6.0), requires_grad=True)
            # Boolean masks select unique positions (fast backward path)
            # but still copy on the forward side.
            picked = x[np.array([1, 0, 1, 0, 1, 0], dtype=bool)]
            loss = picked.sum()
            recorder.mark_loss(loss)
            loss.backward()
            return x, picked, loss

        graph = record(build).graph
        (leaf,) = [v for v in graph.values if v.is_leaf]
        (getitem,) = by_op(graph, "getitem")
        assert getitem.storage != leaf.storage


class TestLiveness:
    def test_retained_value_lives_to_its_backward_point(self):
        def build(recorder):
            x = nn.tensor(np.ones(4), requires_grad=True)
            y = nn.ops.exp(x)  # exp retains its own output for backward
            loss = y.sum()
            recorder.mark_loss(loss)
            loss.backward()
            return x, y, loss

        graph = record(build).graph
        (expv,) = by_op(graph, "exp")
        live = graph.liveness()
        assert live[expv.vid][1] == graph.backward_point(expv.vid)

    def test_leaves_span_whole_timeline(self):
        def build(recorder):
            x = nn.tensor(np.ones(4), requires_grad=True)
            loss = (x * 2.0).sum()
            recorder.mark_loss(loss)
            loss.backward()
            return x, loss

        graph = record(build).graph
        live = graph.liveness()
        for v in graph.values:
            if v.is_leaf:
                assert live[v.vid] == (0, graph.num_points - 1)

    def test_phases_segment_the_model_tape(self):
        step = record_fused_step(
            tiny_model(), tiny_signature().model_input(), np.zeros((3, 2))
        )
        phases = {v.phase for v in step.graph.values}
        assert {"round/0", "round/1"} <= phases

    def test_tape_arena_plan_verifies(self):
        step = record_fused_step(
            tiny_model(), tiny_signature().model_input(), np.zeros((3, 2))
        )
        plan = tape_arena_plan(step.graph)
        proof = plan.verify()
        assert proof["violations"] == []
        assert 0 < plan.total_bytes <= sum(
            iv.nbytes for iv in plan.intervals
        ) + plan.alignment * len(plan.intervals)


class TestInjectedRP601:
    def test_early_adam_scratch_write_is_caught(self):
        """The classic bug: optimizer scratch aliased onto a live tape
        buffer, updated in place between forward and backward."""
        model = tiny_model()

        def early_adam_step(loss):
            stack = [loss]
            while stack:
                t = stack.pop()
                for arr in t.backward_retains:
                    if arr.size and arr.flags.writeable:
                        scratch = arr.reshape(-1)  # aliased "moment" buffer
                        scratch += 0.123           # in-place update
                        return
                stack.extend(t._parents)
            raise AssertionError("no retained buffer found to corrupt")

        step = record_fused_step(
            model,
            tiny_signature().model_input(),
            np.zeros((3, 2)),
            between_forward_and_backward=early_adam_step,
        )
        assert step.mutations
        findings = check_tape(step, "tiny")
        rp601 = [f for f in findings if f.code == "RP601"]
        assert rp601
        message = rp601[0].message
        assert "in-place write" in message
        assert "crc" in message
        assert "def  " in message  # full def–use chain attached
        assert rp601[0].severity == "error"

    def test_clean_step_has_no_mutations(self):
        step = record_fused_step(
            tiny_model(), tiny_signature().model_input(), np.zeros((3, 2))
        )
        assert step.mutations == []
        assert not [f for f in check_tape(step, "tiny") if f.code == "RP601"]


class TestInjectedRP602:
    def test_dead_store_is_reported_with_chain(self):
        def build(recorder):
            x = nn.tensor(np.ones(8), requires_grad=True)
            dead = nn.ops.exp(x) * 2.0  # computed, never consumed
            loss = (x * 3.0).sum()
            recorder.mark_loss(loss)
            loss.backward()
            return x, dead, loss

        step = record(build)
        findings = check_tape(step, "inject")
        rp602 = [f for f in findings if f.code == "RP602"]
        assert rp602
        assert all(f.severity == "warning" for f in rp602)
        assert any("dead store" in f.message and "def  " in f.message
                   for f in rp602)


class TestInjectedRP603:
    def test_escaped_buffer_is_reported(self):
        leak = []

        def build(recorder):
            x = nn.tensor(np.ones(16), requires_grad=True)
            y = nn.ops.exp(x)
            leak.append(y.data)  # a "cache" holds the interior buffer
            loss = y.sum()
            recorder.mark_loss(loss)
            loss.backward()
            return x, y, loss

        step = record(build)
        assert step.escaped
        findings = check_tape(step, "inject")
        rp603 = [f for f in findings if f.code == "RP603"]
        assert rp603
        assert "escaped its tape scope" in rp603[0].message
        assert "def  " in rp603[0].message
        leak.clear()

    def test_clean_step_has_no_escapes(self):
        step = record_fused_step(
            tiny_model(), tiny_signature().model_input(), np.zeros((3, 2))
        )
        assert step.escaped == []


class TestInjectedRP604:
    def _run(self, tmp_path, budget):
        bench = {"arena": {"budgets": {"tiny": {"tape_arena_bytes": budget}}}}
        (tmp_path / "BENCH_training.json").write_text(json.dumps(bench))
        return run_dataflow(
            repo_root=tmp_path, families={"tiny": tiny_signature()}
        )

    def test_over_budget_fires(self, tmp_path):
        findings, payload = self._run(tmp_path, budget=1)
        rp604 = [f for f in findings if f.code == "RP604"]
        assert rp604
        assert "regression" in rp604[0].message
        assert rp604[0].path == "BENCH_training.json"

    def test_within_budget_is_clean(self, tmp_path):
        findings, payload = self._run(tmp_path, budget=10**12)
        assert not [f for f in findings if f.code == "RP604"]
        stats = payload["families"]["tiny"]
        assert stats["tape_arena_bytes"] > 0
        assert stats["budget_tape_arena_bytes"] == 10**12

    def test_missing_budget_skips_the_check(self, tmp_path):
        findings, payload = run_dataflow(
            repo_root=tmp_path, families={"tiny": tiny_signature()}
        )
        assert not [f for f in findings if f.code == "RP604"]


class TestPayload:
    def test_family_stats_and_plans(self, tmp_path):
        findings, payload = run_dataflow(
            repo_root=tmp_path, families={"tiny": tiny_signature()}
        )
        assert findings == []
        stats = payload["families"]["tiny"]
        assert stats["values"] > 0
        assert stats["program_points"] == 2 * stats["values"]
        assert stats["tape_arena_bytes"] >= stats["peak_tape_bytes"] > 0
        plans = payload["arena_plans"]["tiny"]
        assert set(plans) == {"tape"}
        assert plans["tape"]["proof"]["violations"] == []
