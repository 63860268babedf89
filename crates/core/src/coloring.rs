//! The (degree+1)-coloring problem as a packing/covering pair (Section 4).
//!
//! * Packing part `CP`: *proper* coloring without a bound on the number of
//!   colors — removing edges cannot invalidate it.
//! * Covering part `CC`: the (possibly improper) coloring where each node's
//!   color lies in `{1, …, deg(v)+1}` — adding edges only increases degrees
//!   and cannot invalidate it.
//!
//! Their intersection is the classic (degree+1) coloring problem. The paper's
//! characterization of partial solutions (end of Section 4.1):
//!
//! * a vector is **partial packing** iff the decided nodes form a proper
//!   coloring;
//! * a vector is **partial covering** iff every decided node's color is in
//!   `[d(v)+1]` (independent of the other nodes' colors).

use crate::output::ColorOutput;
use crate::problem::DynamicProblem;
use dynnet_graph::Graph;

/// The (degree+1)-coloring problem `(CP, CC)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ColoringProblem;

impl DynamicProblem for ColoringProblem {
    type Output = ColorOutput;

    fn name(&self) -> &'static str {
        "(degree+1)-coloring"
    }

    fn packing_conflict(&self, own: &ColorOutput, other: &ColorOutput) -> bool {
        own.color().is_some() && own.color() == other.color()
    }

    fn covering_ok<'a>(
        &self,
        own: &ColorOutput,
        _neighbors: impl Iterator<Item = &'a ColorOutput>,
        degree: usize,
    ) -> bool {
        own.color().is_some_and(|c| c >= 1 && c <= degree + 1)
    }
}

/// Counts the number of *conflict edges* (both endpoints decided with the
/// same color) in `g` — the quantity Corollary 1.2 keeps small at all times.
pub fn conflict_edges(g: &Graph, out: &[ColorOutput]) -> usize {
    g.edges()
        .filter(|e| {
            matches!(
                (out[e.u.index()].color(), out[e.v.index()].color()),
                (Some(a), Some(b)) if a == b
            )
        })
        .count()
}

/// The number of distinct colors used by decided nodes.
pub fn num_colors_used(out: &[ColorOutput]) -> usize {
    let mut cs: Vec<usize> = out.iter().filter_map(|o| o.color()).collect();
    cs.sort_unstable();
    cs.dedup();
    cs.len()
}

/// The largest color used by decided nodes (0 if none).
pub fn max_color_used(out: &[ColorOutput]) -> usize {
    out.iter().filter_map(|o| o.color()).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::HasBottom;
    use dynnet_graph::{Edge, NodeId};

    fn path3() -> Graph {
        Graph::from_edges(3, [Edge::of(0, 1), Edge::of(1, 2)])
    }

    fn colored(cs: &[usize]) -> Vec<ColorOutput> {
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
    fn partial_packing_checks_proper_coloring_of_decided_nodes() {
        let g = path3();
        let p = ColoringProblem;
        let ok = colored(&[1, 2, 1]);
        assert!((0..3).all(|i| p.partial_packing_ok_at(&g, NodeId::new(i), &ok)));
        let conflict = colored(&[1, 1, 2]);
        assert!(!p.partial_packing_ok_at(&g, NodeId::new(0), &conflict));
        assert!(!p.partial_packing_ok_at(&g, NodeId::new(1), &conflict));
        assert!(p.partial_packing_ok_at(&g, NodeId::new(2), &conflict));
        // Undecided nodes never violate packing; a decided node adjacent only
        // to undecided nodes is fine.
        let partial = colored(&[1, 0, 1]);
        assert!((0..3).all(|i| p.partial_packing_ok_at(&g, NodeId::new(i), &partial)));
    }

    #[test]
    fn partial_covering_checks_color_range() {
        let g = path3();
        let p = ColoringProblem;
        // Node 0 has degree 1 -> colors 1..=2 allowed.
        assert!(p.partial_covering_ok_at(&g, NodeId::new(0), &colored(&[2, 0, 0])));
        assert!(!p.partial_covering_ok_at(&g, NodeId::new(0), &colored(&[3, 0, 0])));
        // Node 1 has degree 2 -> color 3 allowed.
        assert!(p.partial_covering_ok_at(&g, NodeId::new(1), &colored(&[0, 3, 0])));
        // Undecided nodes always pass the partial covering check.
        assert!(p.partial_covering_ok_at(&g, NodeId::new(2), &colored(&[0, 0, 0])));
    }

    #[test]
    fn full_solution_checks_require_decided() {
        let g = path3();
        let p = ColoringProblem;
        let out = colored(&[1, 0, 1]);
        assert!(!p.packing_solution_ok_at(&g, NodeId::new(1), &out));
        assert!(!p.covering_solution_ok_at(&g, NodeId::new(1), &out));
        assert!(p.packing_solution_ok_at(&g, NodeId::new(0), &out));
        assert!(p.covering_solution_ok_at(&g, NodeId::new(0), &out));
    }

    #[test]
    fn is_partial_solution_over_nodes() {
        let g = path3();
        let p = ColoringProblem;
        let nodes: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        assert!(p.is_partial_solution(&g, &colored(&[1, 2, 0]), &nodes));
        assert!(!p.is_partial_solution(&g, &colored(&[1, 1, 0]), &nodes));
        assert_eq!(
            p.partial_violations(&g, &colored(&[1, 1, 0]), &nodes),
            vec![NodeId::new(0), NodeId::new(1)]
        );
    }

    #[test]
    fn conflict_and_color_metrics() {
        let g = path3();
        assert_eq!(conflict_edges(&g, &colored(&[1, 1, 1])), 2);
        assert_eq!(conflict_edges(&g, &colored(&[1, 2, 1])), 0);
        assert_eq!(num_colors_used(&colored(&[1, 2, 1])), 2);
        assert_eq!(max_color_used(&colored(&[1, 5, 1])), 5);
        assert_eq!(max_color_used(&colored(&[0, 0, 0])), 0);
    }

    #[test]
    fn problem_metadata() {
        let p = ColoringProblem;
        assert_eq!(p.radius(), 1);
        assert_eq!(p.name(), "(degree+1)-coloring");
        assert!(ColorOutput::bottom().is_bottom());
    }
}
