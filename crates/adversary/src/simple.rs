//! Simple adversaries: a static network, a scripted replay of a recorded
//! trace, and a phase-schedule composite that switches between inner
//! adversaries over time.

use crate::traits::Adversary;
use dynnet_graph::{DynamicGraphTrace, Graph, GraphDelta};

/// The degenerate "adversary" of a fully static network: the same graph in
/// every round. Running the dynamic algorithms against it recovers the
//  classic static guarantees.
#[derive(Clone, Debug)]
pub struct StaticAdversary {
    graph: Graph,
}

impl StaticAdversary {
    /// Uses `graph` in every round.
    pub fn new(graph: Graph) -> Self {
        StaticAdversary { graph }
    }
}

impl Adversary for StaticAdversary {
    fn initial_graph(&mut self) -> Graph {
        self.graph.clone()
    }

    fn next_graph(&mut self, _round: u64, _prev: &Graph) -> Graph {
        self.graph.clone()
    }

    /// A static network never changes: the delta is always empty, so a
    /// round costs no graph clone.
    fn next_delta(&mut self, _round: u64, _prev: &Graph) -> GraphDelta {
        GraphDelta::new()
    }
}

/// Replays a recorded [`DynamicGraphTrace`]; after the trace ends the last
/// graph repeats forever.
#[derive(Clone, Debug)]
pub struct ScriptedAdversary {
    trace: DynamicGraphTrace,
}

impl ScriptedAdversary {
    /// Replays `trace` round by round.
    pub fn new(trace: DynamicGraphTrace) -> Self {
        ScriptedAdversary { trace }
    }
}

impl Adversary for ScriptedAdversary {
    fn initial_graph(&mut self) -> Graph {
        self.trace.graph_at(0)
    }

    fn next_graph(&mut self, round: u64, _prev: &Graph) -> Graph {
        let r = (round as usize).min(self.trace.num_rounds() - 1);
        self.trace.graph_at(r)
    }

    /// Replays the recorded per-round deltas directly — no `O(r · changes)`
    /// reconstruction of the round's graph. Past the end of the trace the
    /// last graph repeats (empty delta).
    fn next_delta(&mut self, round: u64, _prev: &Graph) -> GraphDelta {
        let r = round as usize;
        if r < self.trace.num_rounds() {
            self.trace.deltas()[r - 1].clone()
        } else {
            GraphDelta::new()
        }
    }
}

/// Runs a sequence of inner adversaries, each for a fixed number of rounds.
/// When a phase starts, its adversary continues from the previous phase's
/// last graph (its own `initial_graph` is only used for the very first
/// phase).
pub struct PhaseAdversary {
    phases: Vec<(u64, Box<dyn Adversary>)>,
}

impl PhaseAdversary {
    /// `phases` is a list of `(duration_in_rounds, adversary)` pairs; the
    /// last phase runs forever regardless of its stated duration.
    pub fn new(phases: Vec<(u64, Box<dyn Adversary>)>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        PhaseAdversary { phases }
    }

    fn phase_for(&mut self, round: u64) -> usize {
        let mut acc = 0u64;
        for (i, (dur, _)) in self.phases.iter().enumerate() {
            acc = acc.saturating_add(*dur);
            if round < acc || i == self.phases.len() - 1 {
                return i;
            }
        }
        self.phases.len() - 1
    }
}

impl Adversary for PhaseAdversary {
    fn initial_graph(&mut self) -> Graph {
        self.phases[0].1.initial_graph()
    }

    fn next_graph(&mut self, round: u64, prev: &Graph) -> Graph {
        let i = self.phase_for(round);
        self.phases[i].1.next_graph(round, prev)
    }

    fn next_delta(&mut self, round: u64, prev: &Graph) -> GraphDelta {
        let i = self.phase_for(round);
        if round >= 1 && i != self.phase_for(round - 1) {
            // Phase switch: the incoming adversary's delta contract ("prev is
            // the graph I produced last round") does not hold across the
            // boundary, so materialize its first graph and diff explicitly.
            let next = self.phases[i].1.next_graph(round, prev);
            return GraphDelta::between(prev, &next);
        }
        self.phases[i].1.next_delta(round, prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynnet_graph::{generators, Edge};

    #[test]
    fn static_adversary_never_changes() {
        let g = generators::cycle(5);
        let mut adv = StaticAdversary::new(g.clone());
        let g0 = adv.initial_graph();
        let g1 = adv.next_graph(1, &g0);
        assert_eq!(g0.edge_vec(), g.edge_vec());
        assert_eq!(g1.edge_vec(), g.edge_vec());
    }

    #[test]
    fn scripted_replays_and_then_repeats() {
        let g0 = Graph::from_edges(3, [Edge::of(0, 1)]);
        let g1 = Graph::from_edges(3, [Edge::of(1, 2)]);
        let mut trace = DynamicGraphTrace::new(g0.clone());
        trace.push(&g1);
        let mut adv = ScriptedAdversary::new(trace);
        assert_eq!(adv.initial_graph().edge_vec(), g0.edge_vec());
        assert_eq!(adv.next_graph(1, &g0).edge_vec(), g1.edge_vec());
        assert_eq!(
            adv.next_graph(7, &g1).edge_vec(),
            g1.edge_vec(),
            "repeats last graph"
        );
    }

    #[test]
    fn phase_switch_resets_to_state_composed_adversaries() {
        // Switching into an adversary that composes its graph from internal
        // state (burst: base + injections) must replace the previous phase's
        // graph, on the delta path as well as the whole-graph path.
        use crate::churn::BurstAdversary;
        let base_a = generators::complete(6);
        let base_b = generators::path(6);
        let make = || {
            PhaseAdversary::new(vec![
                (
                    2,
                    Box::new(StaticAdversary::new(base_a.clone())) as Box<dyn Adversary>,
                ),
                (
                    2,
                    Box::new(BurstAdversary::new(base_b.clone(), 100, 1, 0, 1)),
                ),
            ])
        };
        // Whole-graph path.
        let mut by_graph = make();
        let mut g = by_graph.initial_graph();
        g = by_graph.next_graph(1, &g);
        g = by_graph.next_graph(2, &g);
        assert_eq!(g.edge_vec(), base_b.edge_vec(), "switch resets to base");
        // Delta path.
        let mut by_delta = make();
        let mut g = by_delta.initial_graph();
        for r in 1..=3u64 {
            let d = by_delta.next_delta(r, &g);
            d.apply(&mut g);
        }
        assert_eq!(g.edge_vec(), base_b.edge_vec());
    }

    #[test]
    fn phase_adversary_switches() {
        let a = StaticAdversary::new(generators::path(4));
        let b = StaticAdversary::new(generators::complete(4));
        let mut adv = PhaseAdversary::new(vec![(2, Box::new(a)), (2, Box::new(b))]);
        let g0 = adv.initial_graph();
        assert_eq!(g0.num_edges(), 3);
        assert_eq!(adv.next_graph(1, &g0).num_edges(), 3);
        assert_eq!(adv.next_graph(2, &g0).num_edges(), 6);
        assert_eq!(
            adv.next_graph(99, &g0).num_edges(),
            6,
            "last phase runs forever"
        );
    }
}
