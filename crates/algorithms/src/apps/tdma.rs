//! TDMA-style slot assignment on top of the dynamic coloring — the paper's
//! motivating application (Section 1.2): "the standard application of vertex
//! coloring is to assign frequencies or time slots to the nodes of a network
//! in order to coordinate the access to a shared channel."
//!
//! Every node transmits in the slot given by its current color. Two adjacent
//! nodes transmitting in the same slot collide. The (degree+1)-coloring
//! guarantees of Corollary 1.2 translate into: collisions only occur on
//! edges that appeared recently, and the frame length (number of slots)
//! stays bounded by the maximum union-degree + 1. When combined with the
//! simple randomized contention-resolution strategy implemented in
//! [`resolve_contention`], even those residual collisions are resolved with
//! constant probability per frame.

use dynnet_core::ColorOutput;
use dynnet_graph::{CsrGraph, Edge};
use rand::Rng;

/// The outcome of one TDMA frame.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FrameReport {
    /// Number of slots in the frame (= largest color in use).
    pub frame_length: usize,
    /// Number of nodes that transmitted successfully (no adjacent node in
    /// the same slot).
    pub successful: usize,
    /// Number of nodes whose transmission collided.
    pub collided: usize,
    /// Nodes without a slot (undecided color) that stayed silent.
    pub silent: usize,
    /// The edges on which a collision happened.
    pub collision_edges: Vec<Edge>,
}

impl FrameReport {
    /// Fraction of transmitting nodes that succeeded (1.0 if nobody transmitted).
    pub fn success_rate(&self) -> f64 {
        let tx = self.successful + self.collided;
        if tx == 0 {
            1.0
        } else {
            self.successful as f64 / tx as f64
        }
    }
}

/// Simulates one TDMA frame: every colored node transmits in the slot equal
/// to its color; adjacent nodes in the same slot collide.
pub fn run_frame(g: &CsrGraph, colors: &[ColorOutput]) -> FrameReport {
    let mut report = FrameReport {
        frame_length: colors.iter().filter_map(|c| c.color()).max().unwrap_or(0),
        ..Default::default()
    };
    let mut collided = vec![false; g.num_nodes()];
    for e in g.edges() {
        if let (Some(a), Some(b)) = (colors[e.u.index()].color(), colors[e.v.index()].color()) {
            if a == b {
                collided[e.u.index()] = true;
                collided[e.v.index()] = true;
                report.collision_edges.push(e);
            }
        }
    }
    for v in g.active_nodes() {
        match colors[v.index()].color() {
            None => report.silent += 1,
            Some(_) if collided[v.index()] => report.collided += 1,
            Some(_) => report.successful += 1,
        }
    }
    report
}

/// The simple randomized contention-resolution strategy mentioned in the
/// paper: nodes involved in a collision retransmit in a uniformly random
/// sub-slot out of `subslots`; a retransmission succeeds if no colliding
/// neighbor picked the same sub-slot. Returns the number of nodes that
/// recovered their transmission this way.
pub fn resolve_contention<R: Rng + ?Sized>(
    g: &CsrGraph,
    colors: &[ColorOutput],
    report: &FrameReport,
    subslots: usize,
    rng: &mut R,
) -> usize {
    assert!(subslots >= 1);
    assert_eq!(colors.len(), g.num_nodes(), "one color per node");
    let mut involved = vec![false; g.num_nodes()];
    for e in &report.collision_edges {
        involved[e.u.index()] = true;
        involved[e.v.index()] = true;
    }
    let choices: Vec<Option<usize>> = (0..g.num_nodes())
        // INVARIANT: `involved` was built with length num_nodes just above.
        .map(|i| involved[i].then(|| rng.gen_range(0..subslots)))
        .collect();
    let mut recovered = 0;
    for i in 0..g.num_nodes() {
        // INVARIANT: `choices` is num_nodes long (collected above) and
        // `colors` is the caller's per-node slice, asserted at entry.
        let Some(my_slot) = choices[i] else { continue };
        let my_color = colors[i].color();
        let conflict = g
            .neighbors(dynnet_graph::NodeId::new(i))
            .iter()
            .any(|w| choices[w.index()] == Some(my_slot) && colors[w.index()].color() == my_color);
        if !conflict {
            recovered += 1;
        }
    }
    recovered
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynnet_graph::generators;
    use dynnet_graph::NodeId;

    fn colors(cs: &[usize]) -> Vec<ColorOutput> {
        cs.iter()
            .map(|&c| {
                if c == 0 {
                    ColorOutput::Undecided
                } else {
                    ColorOutput::Colored(c)
                }
            })
            .collect()
    }

    #[test]
    fn proper_coloring_has_no_collisions() {
        let g = CsrGraph::from(&generators::cycle(6));
        let report = run_frame(&g, &colors(&[1, 2, 1, 2, 1, 2]));
        assert_eq!(report.collided, 0);
        assert_eq!(report.successful, 6);
        assert_eq!(report.frame_length, 2);
        assert!((report.success_rate() - 1.0).abs() < 1e-12);
        assert!(report.collision_edges.is_empty());
    }

    #[test]
    fn conflicting_colors_collide() {
        let g = CsrGraph::from(&generators::path(3));
        let report = run_frame(&g, &colors(&[1, 1, 2]));
        assert_eq!(report.collided, 2);
        assert_eq!(report.successful, 1);
        assert_eq!(report.collision_edges, vec![Edge::of(0, 1)]);
        assert!(report.success_rate() < 0.5);
    }

    #[test]
    fn undecided_nodes_stay_silent() {
        let g = CsrGraph::from(&generators::path(3));
        let report = run_frame(&g, &colors(&[1, 0, 1]));
        assert_eq!(report.silent, 1);
        assert_eq!(report.successful, 2);
        assert_eq!(report.collided, 0);
    }

    #[test]
    fn inactive_nodes_are_not_counted() {
        let mut path = generators::path(3);
        path.deactivate(NodeId::new(2));
        let g = CsrGraph::from(&path);
        let report = run_frame(&g, &colors(&[1, 2, 0]));
        assert_eq!(report.successful + report.collided + report.silent, 2);
    }

    #[test]
    fn contention_resolution_recovers_most_collisions() {
        let g = CsrGraph::from(&generators::complete(2));
        let cs = colors(&[1, 1]);
        let report = run_frame(&g, &cs);
        assert_eq!(report.collided, 2);
        let mut rng = dynnet_runtime::rng::experiment_rng(1, "tdma");
        let mut total = 0;
        let trials = 200;
        for _ in 0..trials {
            total += resolve_contention(&g, &cs, &report, 4, &mut rng);
        }
        // Each node succeeds with probability 3/4 per trial; expect ~1.5 * trials.
        let avg = total as f64 / trials as f64;
        assert!(avg > 1.2 && avg < 1.8, "avg recovered per frame = {avg}");
    }
}
