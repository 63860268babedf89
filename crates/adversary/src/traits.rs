//! Adversary traits.
//!
//! The paper's dynamic graph is "provided by a worst case adversary in a
//! synchronous round-based model" (Section 2). An [`Adversary`] produces the
//! communication graph of each round, possibly as a function of the previous
//! graph. An [`OutputAdversary`] may additionally observe the outputs that
//! the nodes published at the end of the *previous* round — this models the
//! adaptive adversaries discussed in the paper (an adversary never sees the
//! coin flips of the current round, so every adversary built from this trait
//! is at least 1-oblivious; the oblivious adversaries ignore outputs
//! entirely and are therefore also 2-oblivious as required by Lemma 5.2).

use dynnet_graph::{Graph, GraphDelta};

/// An output-oblivious adversary: produces `G_r` from the round number and
/// the previous graph only.
///
/// The round loop is delta-native: the runner keeps one persistent graph and
/// asks the adversary for the round's [`GraphDelta`] via
/// [`Adversary::next_delta`], the one required round method, so a round
/// costs `O(|δ|)`. [`Adversary::next_graph`] is provided on top of it.
pub trait Adversary: Send {
    /// The graph for round 0.
    fn initial_graph(&mut self) -> Graph;

    /// The change the adversary applies at the beginning of round
    /// `round ≥ 1`, relative to `prev` (the graph of round `round - 1`).
    fn next_delta(&mut self, round: u64, prev: &Graph) -> GraphDelta;

    /// The graph for round `round ≥ 1`, given the previous round's graph.
    ///
    /// Default: materializes [`Adversary::next_delta`] onto a copy of `prev`.
    /// Adversaries that compose their graph from internal state override it
    /// to return that state whatever `prev` is: the override is the
    /// whole-graph reference their delta path is tested against, and the
    /// reset [`crate::PhaseAdversary`] needs at a phase switch.
    ///
    /// At most one of `next_graph` / `next_delta` is called per round; an
    /// adversary that advances internal state (RNG draws, positions) must
    /// produce the same evolution through either entry point.
    fn next_graph(&mut self, round: u64, prev: &Graph) -> Graph {
        self.next_delta(round, prev).materialize(prev)
    }
}

/// An adversary that may additionally inspect the outputs published by the
/// nodes at the end of the previous round (adaptive, but still oblivious to
/// the current round's randomness). This is the interface the `Scenario`
/// runner drives: every [`Adversary`] is one through a blanket impl that
/// ignores the outputs.
pub trait OutputAdversary<O>: Send {
    /// The graph for round 0.
    fn initial_graph(&mut self) -> Graph;

    /// The change applied at the beginning of round `round ≥ 1`, relative to
    /// `prev`, given the outputs published at the end of round `round - 1`
    /// (`None` for nodes that have not woken up).
    fn next_delta(&mut self, round: u64, prev: &Graph, outputs: &[Option<O>]) -> GraphDelta;
}

/// Every output-oblivious adversary is trivially an output-aware adversary
/// that ignores the outputs.
impl<O, A: Adversary> OutputAdversary<O> for A {
    fn initial_graph(&mut self) -> Graph {
        Adversary::initial_graph(self)
    }

    fn next_delta(&mut self, round: u64, prev: &Graph, _outputs: &[Option<O>]) -> GraphDelta {
        Adversary::next_delta(self, round, prev)
    }
}

/// Boxed adversaries are adversaries, so heterogeneous workload lists
/// (`Vec<(name, Box<dyn OutputAdversary<_>>)>`) plug straight into
/// [`crate::Scenario::adversary`].
impl<O> OutputAdversary<O> for Box<dyn OutputAdversary<O> + '_> {
    fn initial_graph(&mut self) -> Graph {
        (**self).initial_graph()
    }

    fn next_delta(&mut self, round: u64, prev: &Graph, outputs: &[Option<O>]) -> GraphDelta {
        (**self).next_delta(round, prev, outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynnet_graph::generators;

    struct Freeze(Graph);

    impl Adversary for Freeze {
        fn initial_graph(&mut self) -> Graph {
            self.0.clone()
        }
        fn next_delta(&mut self, _round: u64, _prev: &Graph) -> GraphDelta {
            GraphDelta::new()
        }
    }

    #[test]
    fn blanket_output_adversary_impl() {
        let mut adv = Freeze(generators::cycle(4));
        let g0 = <Freeze as OutputAdversary<u32>>::initial_graph(&mut adv);
        let delta = <Freeze as OutputAdversary<u32>>::next_delta(&mut adv, 1, &g0, &[None; 4]);
        assert!(delta.is_empty());
        assert_eq!(g0.edge_vec(), delta.materialize(&g0).edge_vec());
    }

    struct DropOneEdge;

    impl Adversary for DropOneEdge {
        fn initial_graph(&mut self) -> Graph {
            generators::cycle(4)
        }
        // Only next_delta is overridden; next_graph is derived.
        fn next_delta(&mut self, _round: u64, prev: &Graph) -> GraphDelta {
            let mut delta = GraphDelta::new();
            if let Some(e) = prev.edges().next() {
                delta.remove(e.u, e.v);
            }
            delta
        }
    }

    #[test]
    fn default_next_graph_derives_from_next_delta() {
        let mut adv = DropOneEdge;
        let g0 = Adversary::initial_graph(&mut adv);
        let g1 = Adversary::next_graph(&mut adv, 1, &g0);
        assert_eq!(g1.num_edges(), g0.num_edges() - 1);
    }
}
