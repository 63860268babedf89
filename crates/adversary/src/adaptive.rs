//! Adaptive, output-aware adversaries.
//!
//! The paper distinguishes adversary strengths: the coloring analysis holds
//! even against an *adaptive offline* adversary (which knows all random bits
//! in advance), whereas the DMis analysis requires a *2-oblivious* adversary
//! (Lemma 5.2's remark). We cannot implement a genuinely offline adversary
//! against fresh per-round randomness, but we can implement the strongest
//! adversary realizable in the simulation loop: one that inspects the outputs
//! published at the end of the previous round and rewires the graph to create
//! as much trouble as possible — inserting edges between nodes whose current
//! outputs conflict (same color / both in the MIS) and cutting edges that the
//! algorithm appears to rely on.

use crate::traits::OutputAdversary;
use dynnet_graph::{Edge, Graph, GraphDelta, NodeId};
use dynnet_runtime::rng::experiment_rng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// An adversary that inserts edges between pairs of nodes whose *published*
/// outputs conflict according to a user-supplied predicate, and additionally
/// applies background churn on a footprint graph.
pub struct ConflictSeekingAdversary<O, C> {
    footprint: Graph,
    conflict: C,
    /// Maximum number of conflict edges inserted per round.
    max_insertions: usize,
    /// Per-round flip probability of footprint edges (background churn).
    background_churn: f64,
    /// Rounds after which an injected conflict edge is removed again (so the
    /// graph does not converge to a clique of conflicting nodes).
    injected_lifetime: u64,
    injected: Vec<(Edge, u64)>,
    rng: ChaCha8Rng,
    _marker: std::marker::PhantomData<fn(&O)>,
}

/// Cloneable whenever the conflict predicate is (`O` itself need not be):
/// sweep cells can stamp copies of a configured template adversary.
impl<O, C: Clone> Clone for ConflictSeekingAdversary<O, C> {
    fn clone(&self) -> Self {
        ConflictSeekingAdversary {
            footprint: self.footprint.clone(),
            conflict: self.conflict.clone(),
            max_insertions: self.max_insertions,
            background_churn: self.background_churn,
            injected_lifetime: self.injected_lifetime,
            injected: self.injected.clone(),
            rng: self.rng.clone(),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<O, C> ConflictSeekingAdversary<O, C>
where
    C: Fn(&O, &O) -> bool + Send,
{
    /// Creates a conflict-seeking adversary.
    pub fn new(
        footprint: Graph,
        conflict: C,
        max_insertions: usize,
        background_churn: f64,
        injected_lifetime: u64,
        seed: u64,
    ) -> Self {
        ConflictSeekingAdversary {
            footprint,
            conflict,
            max_insertions,
            background_churn,
            injected_lifetime: injected_lifetime.max(1),
            injected: Vec::new(),
            rng: experiment_rng(seed, "conflict-seeking"),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of conflict edges injected so far (for analysis).
    pub fn total_injected(&self) -> usize {
        self.injected.len()
    }
}

impl<O, C> OutputAdversary<O> for ConflictSeekingAdversary<O, C>
where
    O: Sync,
    C: Fn(&O, &O) -> bool + Send,
{
    fn initial_graph(&mut self) -> Graph {
        self.footprint.clone()
    }

    /// Delta-native: background churn, expiries, and conflict injections are
    /// emitted as edge changes against a *virtually* evolving graph (presence
    /// = `prev` minus removals plus insertions so far) — the previous graph
    /// is never cloned or mutated.
    fn next_delta(&mut self, round: u64, prev: &Graph, outputs: &[Option<O>]) -> GraphDelta {
        let n = self.footprint.num_nodes();
        let mut delta = GraphDelta::new();
        let mut removed_set: HashSet<Edge> = HashSet::new();
        let mut inserted_set: HashSet<Edge> = HashSet::new();

        // Background churn on footprint edges.
        for e in self.footprint.edge_vec() {
            if self.background_churn > 0.0 && self.rng.gen_bool(self.background_churn) {
                if prev.has_edge(e.u, e.v) {
                    delta.removed.push(e);
                    removed_set.insert(e);
                } else {
                    delta.inserted.push(e);
                    inserted_set.insert(e);
                }
            }
        }

        // Remove expired injected edges.
        for (e, inserted_at) in &self.injected {
            if round.saturating_sub(*inserted_at) >= self.injected_lifetime
                && removed_set.insert(*e)
            {
                delta.removed.push(*e);
            }
        }
        self.injected
            .retain(|(_, inserted_at)| round.saturating_sub(*inserted_at) < self.injected_lifetime);

        // Insert edges between conflicting pairs. Scan a random sample of
        // node pairs to keep the adversary cheap on large graphs.
        let mut candidates: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        candidates.shuffle(&mut self.rng);
        let sample = &candidates[..candidates.len().min(200)];
        let mut inserted = 0;
        'outer: for (i, &u) in sample.iter().enumerate() {
            for &v in &sample[i + 1..] {
                if inserted >= self.max_insertions {
                    break 'outer;
                }
                let e = Edge::new(u, v);
                // Virtual presence mirrors the sequential old path (churn,
                // then expiry, then injections): a removal recorded this
                // round wins over an earlier churn insertion.
                let present =
                    !removed_set.contains(&e) && (prev.has_edge(u, v) || inserted_set.contains(&e));
                if present {
                    continue;
                }
                if let (Some(ou), Some(ov)) = (&outputs[u.index()], &outputs[v.index()]) {
                    if (self.conflict)(ou, ov) {
                        if removed_set.remove(&e) {
                            // Removed earlier in this same round (churn or
                            // expiry) and now re-injected: cancel the
                            // removal. If that removal targeted an edge that
                            // was already absent (expiry of an injection
                            // churned off in an earlier round), cancelling
                            // is not enough — a real insertion is needed.
                            delta.removed.retain(|x| *x != e);
                            if !prev.has_edge(u, v) && !inserted_set.contains(&e) {
                                delta.inserted.push(e);
                                inserted_set.insert(e);
                            }
                        } else {
                            delta.inserted.push(e);
                            inserted_set.insert(e);
                        }
                        self.injected.push((e, round));
                        inserted += 1;
                    }
                }
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynnet_graph::generators;

    #[test]
    fn inserts_edges_between_equal_outputs() {
        let footprint = generators::path(10);
        let mut adv: ConflictSeekingAdversary<u32, _> =
            ConflictSeekingAdversary::new(footprint, |a: &u32, b: &u32| a == b, 5, 0.0, 3, 1);
        let g0 = OutputAdversary::<u32>::initial_graph(&mut adv);
        // All nodes output the same value -> plenty of conflicts to attack.
        let outputs: Vec<Option<u32>> = vec![Some(7); 10];
        let g1 = adv.next_delta(1, &g0, &outputs).materialize(&g0);
        assert!(g1.num_edges() > g0.num_edges());
        assert!(adv.total_injected() > 0);
    }

    #[test]
    fn no_conflicts_means_no_insertions() {
        let footprint = generators::path(6);
        let mut adv: ConflictSeekingAdversary<u32, _> =
            ConflictSeekingAdversary::new(footprint, |a: &u32, b: &u32| a == b, 5, 0.0, 3, 2);
        let g0 = OutputAdversary::<u32>::initial_graph(&mut adv);
        let outputs: Vec<Option<u32>> = (0..6).map(|i| Some(i as u32)).collect();
        let g1 = adv.next_delta(1, &g0, &outputs).materialize(&g0);
        assert_eq!(g1.num_edges(), g0.num_edges());
    }

    #[test]
    fn all_conflicting_pairs_rewired_on_conflict_rounds() {
        // Alternate all-conflicting and all-clean output rounds. On a clean
        // round, churned-off injected edges stay absent; when such an edge's
        // expiry then fires on a conflicting round, the re-injection must
        // emit a *real* insertion (not merely cancel the expiry removal of
        // an already-absent edge). With every pair conflicting and an
        // insertion budget covering all pairs, the graph must be complete
        // after every conflicting round.
        for seed in 0..10u64 {
            let footprint = generators::complete(5);
            let mut adv: ConflictSeekingAdversary<u32, _> = ConflictSeekingAdversary::new(
                footprint,
                |a: &u32, b: &u32| a == b,
                10,
                0.5,
                2,
                seed,
            );
            let conflicting: Vec<Option<u32>> = vec![Some(1); 5];
            let clean: Vec<Option<u32>> = (0..5).map(|i| Some(i as u32)).collect();
            let mut g = OutputAdversary::<u32>::initial_graph(&mut adv);
            for r in 1..60u64 {
                let outputs = if r % 2 == 0 { &conflicting } else { &clean };
                let d = adv.next_delta(r, &g, outputs);
                d.apply(&mut g);
                if r % 2 == 0 {
                    assert_eq!(
                        g.num_edges(),
                        10,
                        "seed {seed} round {r}: every conflicting pair must be wired"
                    );
                }
            }
        }
    }

    #[test]
    fn injected_edges_expire() {
        let footprint = Graph::new(4);
        let mut adv: ConflictSeekingAdversary<u32, _> =
            ConflictSeekingAdversary::new(footprint, |a: &u32, b: &u32| a == b, 10, 0.0, 2, 3);
        let g0 = OutputAdversary::<u32>::initial_graph(&mut adv);
        let conflicting: Vec<Option<u32>> = vec![Some(1); 4];
        let clean: Vec<Option<u32>> = (0..4).map(|i| Some(i as u32)).collect();
        let g1 = adv.next_delta(1, &g0, &conflicting).materialize(&g0);
        assert!(g1.num_edges() > 0);
        let g2 = adv.next_delta(2, &g1, &clean).materialize(&g1);
        let g3 = adv.next_delta(3, &g2, &clean).materialize(&g2);
        assert_eq!(
            g3.num_edges(),
            0,
            "injected edges removed after their lifetime"
        );
    }
}
