import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdalab import graphs
from zdalab.attacks import synthesize
from zdalab.graphs import GraphError

from conftest import DIFF_TOL, K4_WEIGHTS, pairwise_uncovered, random_connected_topology


class TestTopology:
    def test_rejects_asymmetric_adjacency(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        with pytest.raises(GraphError):
            graphs.Topology(id=1, n=3, adjacency=a)

    def test_rejects_adjacency_asymmetric_by_rounding(self):
        """Symmetry is exact: an asymmetry of 1e-9 relative, which a
        relative-tolerance check lets through, is refused at construction."""
        a = np.array(graphs.Topology.from_edges(1, 4, K4_WEIGHTS).adjacency)
        a[0, 1] *= 1.0 + 1e-9
        with pytest.raises(GraphError, match="symmetric"):
            graphs.Topology(id=1, n=4, adjacency=a)

    def test_adjacency_is_a_read_only_copy(self):
        """No cached Laplacian or spectrum can go stale: the topology copies
        its adjacency and refuses writes to it."""
        a = np.array(graphs.Topology.from_edges(1, 4, K4_WEIGHTS).adjacency)
        t = graphs.Topology(id=1, n=4, adjacency=a)
        L = t.L.copy()
        a[0, 1] = a[1, 0] = 5.0
        np.testing.assert_array_equal(t.L, L)
        with pytest.raises(ValueError):
            t.adjacency[0, 1] = 5.0

    def test_derived_matrices_are_computed_once(self, topo2):
        assert topo2.L is topo2.L and topo2.spectrum is topo2.spectrum
        assert topo2.period is topo2.period

    def test_equality_is_identity(self):
        """Two topologies with equal fields are distinct objects: comparing
        them neither raises nor compares arrays, and both fit in a set."""
        t1, t2 = (graphs.Topology.from_edges(1, 2, [(1, 2, 1.0)]) for _ in range(2))
        assert t1 == t1 and not t1 != t1
        assert t1 != t2 and not t1 == t2
        assert {t1, t2, t1} == {t1, t2} and len({t1, t2}) == 2
        assert t1 in {t1} and t2 not in {t1}

    def test_rejects_bool_weights(self):
        """JSON true is not a weight, although float() reads it as 1.0."""
        with pytest.raises(GraphError, match=r"edge \(1, 2\) weight True is not a number"):
            graphs.Topology.from_edges(1, 2, [(1, 2, True)])

    def test_certificate_needs_a_connected_topology(self):
        t = graphs.Topology.from_edges(1, 4, [(1, 2, 1.0), (3, 4, 1.0)])
        with pytest.raises(GraphError, match="connected"):
            t.period

    @pytest.mark.parametrize("tid", [-(2**63), 2**63 - 1, np.int64(7)])
    def test_accepts_int64_ids(self, tid):
        assert graphs.Topology.from_edges(tid, 2, [(1, 2, 1.0)]).id == tid

    @pytest.mark.parametrize("tid, message", [
        (2**63, "topology id 9223372036854775808 is outside int64"),
        (-(2**63) - 1, "topology id -9223372036854775809 is outside int64"),
        (1.0, "topology id 1.0 is not an integer"),
        (True, "topology id True is not an integer"),
    ])
    def test_rejects_ids_outside_int64(self, tid, message):
        with pytest.raises(GraphError, match=f"^{message}$"):
            graphs.Topology.from_edges(tid, 2, [(1, 2, 1.0)])

    def test_rejects_self_loops(self):
        a = np.eye(3)
        with pytest.raises(GraphError):
            graphs.Topology(id=1, n=3, adjacency=a)

    def test_rejects_negative_weights(self):
        a = np.zeros((2, 2))
        a[0, 1] = a[1, 0] = -1.0
        with pytest.raises(GraphError):
            graphs.Topology(id=1, n=2, adjacency=a)

    def test_rejects_bad_edge_indices(self):
        with pytest.raises(GraphError):
            graphs.Topology.from_edges(1, 3, [(1, 4, 1.0)])
        with pytest.raises(GraphError):
            graphs.Topology.from_edges(1, 3, [(2, 2, 1.0)])
        with pytest.raises(GraphError, match=r"bad edge \(1.5, 2\) for n=3"):
            graphs.Topology.from_edges(1, 3, [(1.5, 2, 1.0)])


class TestLaplacian:
    def test_path_of_two(self):
        t = graphs.Topology.from_edges(1, 2, [(1, 2, 1.0)])
        np.testing.assert_allclose(t.L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_row_sums_vanish(self, topo2):
        L = topo2.L
        np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-14)

    def test_path_of_three_spectrum(self):
        # unweighted path has eigenvalues 0, 1, 3
        t = graphs.Topology.from_edges(1, 3, [(1, 2, 1.0), (2, 3, 1.0)])
        spec = t.spectrum
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)
        assert spec.connected

    def test_disconnected_flagged(self):
        t = graphs.Topology.from_edges(1, 4, [(1, 2, 1.0), (3, 4, 1.0)])
        assert not t.spectrum.connected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10**6))
    def test_laplacian_positive_semidefinite(self, n, seed):
        rng = np.random.default_rng(seed)
        t = random_connected_topology(rng, n)
        spec = t.spectrum
        assert spec.eigenvalues[0] > -1e-10
        assert spec.connected


class TestDifferenceGraphs:
    """The difference graph links agents whose link weight differs between
    some two topologies (the ``pairwise_uncovered`` oracle); a component of
    it without an observed agent makes ``detectability`` refuse the set."""

    def test_pairwise_edges(self, topo1, topo2):
        # topo1 and topo2 differ on the links (1, 3), (1, 4) and (3, 4)
        assert pairwise_uncovered([topo1, topo2], []) == (
            frozenset({1, 3, 4}),
            frozenset({2}),
        )
        assert pairwise_uncovered([topo1, topo2], [3]) == (frozenset({2}),)
        assert not graphs.detectability([topo1, topo2], []).ok
        assert not graphs.detectability([topo1, topo2], [3]).ok

    def test_identical_topologies_give_empty_graph(self, topo1):
        same = graphs.Topology(id=9, n=4, adjacency=topo1.adjacency)
        assert pairwise_uncovered([topo1, same], [1, 2, 3]) == (frozenset({4}),)
        assert not graphs.detectability([topo1, same], [1, 2, 3]).ok

    def test_size_mismatch_rejected(self, topo1):
        small = graphs.Topology.from_edges(5, 3, [(1, 2, 1.0)])
        with pytest.raises(GraphError):
            graphs.detectability([topo1, small], [1])
        with pytest.raises(GraphError):
            graphs.detectability([topo1], [1])

    def test_union_includes_third_topology(self, topo1, topo2, topo3):
        # topo3's (2, 3) link joins agent 2 to the component {1, 3, 4}
        assert pairwise_uncovered([topo1, topo2], [1]) == (frozenset({2}),)
        assert pairwise_uncovered([topo1, topo2, topo3], [1]) == ()
        assert pairwise_uncovered([topo1, topo2, topo3], []) == (frozenset({1, 2, 3, 4}),)
        assert not graphs.detectability([topo1, topo2], [1]).ok
        assert not graphs.detectability([topo1, topo2, topo3], []).ok

    def test_components_of_undetectable_pair(self, topo1, topo2):
        assert pairwise_uncovered([topo1, topo2], [1]) == (frozenset({2}),)
        assert not graphs.detectability([topo1, topo2], [1]).ok

    def test_components_edgeless_graph_all_singletons(self):
        t = graphs.Topology.from_edges(1, 3, [(1, 2, 1.0), (2, 3, 1.0)])
        twin = graphs.Topology(id=2, n=3, adjacency=t.adjacency)
        assert pairwise_uncovered([t, twin], []) == (frozenset({1}), frozenset({2}), frozenset({3}))
        assert not graphs.detectability([t, twin], []).ok

    def test_uncovered_component_makes_ok_false(self):
        """Random, integer-weighted and relabelled topology sets, and sets
        reweighted near the oracle's DIFF_TOL: wherever the union of the
        pairwise difference graphs has a component without an observed
        agent, ``detectability`` refuses the set."""
        rng = np.random.default_rng(2024)
        tol = DIFF_TOL
        kinds, boundary = set(), 0
        for k in range(300):
            n = int(rng.integers(2, 10))
            base = random_connected_topology(rng, n)
            kind = k % 4
            if kind == 1:
                base = graphs.Topology(id=1, n=n, adjacency=np.ceil(base.adjacency))
            S = [base]
            for tid in range(2, int(rng.integers(2, 5)) + 1):
                a = base.adjacency
                if kind == 2:
                    perm = rng.permutation(n)
                    a = a[np.ix_(perm, perm)]
                else:
                    if kind == 0:
                        d = rng.uniform(-1.0, 1.0, (n, n))
                    elif kind == 1:
                        d = rng.integers(-1, 2, (n, n)).astype(float)
                    else:
                        d = rng.choice([-0.6 * tol, 0.6 * tol, 2.0 * tol], (n, n))
                    d = np.triu(d * (rng.random((n, n)) < 0.3), 1)
                    a = np.maximum(a + d + d.T, 0.0)
                S.append(graphs.Topology(id=tid, n=n, adjacency=a))
            M = rng.choice(np.arange(1, n + 1), int(rng.integers(0, n + 1)), replace=False)
            M = sorted(int(m) for m in M)
            got = pairwise_uncovered(S, M)
            assert not (got and graphs.detectability(S, M).ok), (k, got)
            kinds.add((kind, len(got) > 0))
            adj = np.array([t.adjacency for t in S])
            near_first = np.abs(adj - adj[0]).max(axis=0) <= tol
            boundary += bool(np.any((np.ptp(adj, axis=0) > tol) & near_first))
        assert kinds == {(kind, has) for kind in range(4) for has in (False, True)}
        # links that only a pair of later topologies tells apart
        assert boundary >= 10


class TestDetectability:
    def test_undetectable_pair(self, topo1, topo2):
        rep = graphs.detectability([topo1, topo2], [1])
        assert not rep.ok
        assert pairwise_uncovered([topo1, topo2], [1]) == (frozenset({2}),)

    def test_third_topology_restores_detectability(self, topo1, topo2):
        # topo3 with the (2, 4) link changed as well: no direction cancels
        # every Laplacian difference
        third = graphs.Topology.from_edges(
            3, 4, [(1, 2, 1.0), (2, 3, 2.0), (2, 4, 1.3), (3, 4, 1.0)]
        )
        rep = graphs.detectability([topo1, topo2, third], [1])
        assert rep.ok
        assert rep.margin > 1e-3

    def test_involutive_relabelling_is_undetectable_despite_coverage(self):
        # K4 with spectrum {0, 1/9, 4/9, 1} and its relabelling by (2 1 4 3):
        # the difference graph is connected, yet L2 - L1 has rank 2, so a
        # stealthy attack on every agent exists
        base = [(i, j, w / 9.0) for i, j, w in K4_WEIGHTS]
        perm = (2, 1, 4, 3)
        twin = [(perm[i - 1], perm[j - 1], w) for i, j, w in base]
        S = [graphs.Topology.from_edges(1, 4, base), graphs.Topology.from_edges(2, 4, twin)]
        rep = graphs.detectability(S, (1,))
        assert pairwise_uncovered(S, (1,)) == ()
        assert not rep.ok
        assert rep.margin < 1e-12
        assert synthesize(S, (1,), (1, 2, 3, 4)) is not None

    def test_verdict_matches_synthesis_on_relabellings(self):
        """Over random topologies and random relabellings of them, involutions
        included: the set is detectable exactly when no attack on every agent
        can be synthesized, and an uncovered component rules it out."""
        rng = np.random.default_rng(11)
        seen = set()
        for k in range(200):
            n = int(rng.integers(3, 6))
            base = random_connected_topology(rng, n)
            if k % 2:  # integer weights make cancelling differences common
                base = graphs.Topology(id=1, n=n, adjacency=np.ceil(base.adjacency))
            S = [base]
            for tid in range(2, int(rng.integers(2, 4)) + 1):
                if rng.random() < 0.5:
                    perm = np.arange(n)
                    idx = rng.permutation(n)
                    for p in range(int(rng.integers(1, n // 2 + 1))):
                        i, j = idx[2 * p], idx[2 * p + 1]
                        perm[i], perm[j] = j, i
                else:
                    perm = rng.permutation(n)
                a = base.adjacency[np.ix_(perm, perm)]
                S.append(graphs.Topology(id=tid, n=n, adjacency=a))
            size = int(rng.integers(1, 3))
            M = sorted(int(m) for m in rng.choice(np.arange(1, n + 1), size, replace=False))
            rep = graphs.detectability(S, M)
            attack = synthesize(S, M, tuple(range(1, n + 1)))
            assert rep.ok == (attack is None), (k, rep)
            uncovered = pairwise_uncovered(S, M)
            assert not (uncovered and rep.ok)
            seen.add((rep.ok, bool(uncovered)))
        # detectable, uncovered, and covered-but-undetectable sets all occur
        assert seen == {(True, False), (False, True), (False, False)}

    def test_observed_set_validated(self, topo1, topo2):
        with pytest.raises(GraphError):
            graphs.detectability([topo1, topo2], [9])
        with pytest.raises(GraphError, match="repeats agent 1"):
            graphs.detectability([topo1, topo2], [1, 1])


class TestAgentSet:
    def test_ids_come_back_ascending(self):
        assert graphs.agent_set([3, 1, 4], 4, "observed") == (1, 3, 4)

    @pytest.mark.parametrize("ids, match", [
        ((), "attacked set must be nonempty"),
        ((0,), r"attacked set \[0\] not within 1..4"),
        ((5,), r"attacked set \[5\] not within 1..4"),
        ((1, 1), "attacked set repeats agent 1"),
        ((4, 2, 4, 1), "attacked set repeats agent 4"),
    ], ids=["empty", "zero", "above-n", "repeated", "repeated-unsorted"])
    def test_rejects(self, ids, match):
        with pytest.raises(GraphError, match=match):
            graphs.agent_set(ids, 4, "attacked")

    @pytest.mark.parametrize("bad", [1.7, 2.0, True, "2"], ids=["fraction", "integral-float", "bool", "string"])
    def test_rejects_ids_that_are_not_integers(self, bad):
        """An id is an integer: 1.7 is not truncated to agent 1, nor is 2.0
        taken for agent 2 or true for agent 1."""
        with pytest.raises(GraphError, match=f"observed set holds {bad!r}, which is not an integer agent id"):
            graphs.agent_set([3, bad], 4, "observed")

    def test_numpy_integers_are_ids(self):
        assert graphs.agent_set(np.array([4, 2]), 4, "observed") == (2, 4)


class TestSpectralPredicates:
    def test_path_p4_distinct(self):
        t = graphs.Topology.from_edges(1, 4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        assert graphs.has_distinct_eigenvalues(t.spectrum)

    def test_cycle_c4_repeated(self):
        t = graphs.Topology.from_edges(
            1, 4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0)]
        )
        # spectrum {0, 2, 2, 4}
        assert not graphs.has_distinct_eigenvalues(t.spectrum)

    def test_modal_period_149(self, k4_149):
        # ratios 1, 2, 3: modal periods 2*pi, pi, 2*pi/3 share the period 2*pi
        assert k4_149.period == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_irrational_ratio_rejected_with_small_denominator_cap(self):
        # sqrt(2) between the nonzero modes: first convergent within 1e-9 has
        # denominator 33461, beyond the cap of 1000
        spec = graphs.LaplacianSpectrum(
            eigenvalues=np.array([0.0, 1.0, 2.0]),
            eigenvectors=np.eye(3),
            connected=True,
        )
        assert graphs.modal_period(spec) is None

    def test_disconnected_spectrum_rejected(self):
        spec = graphs.LaplacianSpectrum(
            eigenvalues=np.array([0.0, 0.0, 1.0]),
            eigenvectors=np.eye(3),
            connected=False,
        )
        with pytest.raises(GraphError):
            graphs.modal_period(spec)
