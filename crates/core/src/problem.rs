//! Packing/covering problem abstraction (Definitions 3.1 and 3.2).
//!
//! A distributed graph problem is *packing* if solutions survive edge
//! removals and *covering* if they survive edge additions. The framework
//! works with problems that decompose into a packing part `P` and a covering
//! part `C` and whose feasibility is locally checkable (LCL, radius 1 for
//! both MIS and coloring).
//!
//! A [`DynamicProblem`] bundles the checks the framework needs:
//!
//! * *partial packing / partial covering* (Definition 3.2) of a partial
//!   output vector on a graph — used for property B.1 of network-static
//!   algorithms;
//! * *full packing / covering solutions* on a graph — used for the T-dynamic
//!   solution checks on the intersection/union graphs.
//!
//! The trait exposes per-node violation queries so that the experiment
//! harness can count violations instead of only seeing a boolean.

use crate::output::HasBottom;
use dynnet_graph::{Graph, NodeId};

/// A graph problem decomposed into a packing part and a covering part, with
/// locally checkable validity.
///
/// An implementation states the two radius-1 conditions once, on outputs
/// alone: [`DynamicProblem::packing_conflict`] across one edge and
/// [`DynamicProblem::covering_ok`] over a node's neighbourhood. The
/// `&Graph` checks are default methods built on them, and the incremental
/// verifier evaluates the same two predicates over a sliding window's
/// neighbourhoods without materializing any graph.
pub trait DynamicProblem: Send + Sync {
    /// The per-node output type (must have a `⊥` value).
    type Output: HasBottom + Send + Sync;

    /// Human-readable problem name (used in reports).
    fn name(&self) -> &'static str;

    /// The LCL checking radius (1 for coloring and MIS).
    fn radius(&self) -> usize {
        1
    }

    /// Returns `true` if a node with output `own` and a neighbour with
    /// output `other` violate the packing condition across their edge (e.g.
    /// two adjacent MIS nodes, or two adjacent nodes of one color). An
    /// undecided side never conflicts.
    fn packing_conflict(&self, own: &Self::Output, other: &Self::Output) -> bool;

    /// Returns `true` if the covering condition holds at a node with the
    /// *decided* output `own`, given its neighbours' outputs and its degree
    /// (e.g. a dominated node has an MIS neighbour; a color is at most
    /// degree + 1).
    fn covering_ok<'a>(
        &self,
        own: &Self::Output,
        neighbors: impl Iterator<Item = &'a Self::Output>,
        degree: usize,
    ) -> bool
    where
        Self::Output: 'a;

    /// Returns `true` if the *packing* LCL condition holds at `v` assuming
    /// the decided part of `out` around `v` (Definition 3.2; for the
    /// problems considered here the paper's characterizations are used, e.g.
    /// "no two adjacent decided nodes share a color").
    fn partial_packing_ok_at(&self, g: &Graph, v: NodeId, out: &[Self::Output]) -> bool {
        let own = &out[v.index()];
        g.neighbors(v)
            .all(|w| !self.packing_conflict(own, &out[w.index()]))
    }

    /// Returns `true` if the *covering* LCL condition at `v` holds for *all*
    /// extensions of the decided part of `out` (Definition 3.2): vacuous at
    /// an undecided node.
    fn partial_covering_ok_at(&self, g: &Graph, v: NodeId, out: &[Self::Output]) -> bool {
        let own = &out[v.index()];
        !own.is_decided() || covering_ok_in(self, g, v, out)
    }

    /// Returns `true` if the packing condition holds at `v` for a *full*
    /// solution (additionally requiring `v` to be decided).
    fn packing_solution_ok_at(&self, g: &Graph, v: NodeId, out: &[Self::Output]) -> bool {
        out[v.index()].is_decided() && self.partial_packing_ok_at(g, v, out)
    }

    /// Returns `true` if the covering condition holds at `v` for a *full*
    /// solution (additionally requiring `v` to be decided).
    fn covering_solution_ok_at(&self, g: &Graph, v: NodeId, out: &[Self::Output]) -> bool {
        out[v.index()].is_decided() && covering_ok_in(self, g, v, out)
    }

    /// Nodes (among `restrict_to`) violating the partial-solution conditions.
    fn partial_violations(
        &self,
        g: &Graph,
        out: &[Self::Output],
        restrict_to: &[NodeId],
    ) -> Vec<NodeId> {
        restrict_to
            .iter()
            .copied()
            .filter(|&v| {
                out[v.index()].is_decided()
                    && !(self.partial_packing_ok_at(g, v, out)
                        && self.partial_covering_ok_at(g, v, out))
            })
            .collect()
    }

    /// Returns `true` if `out` restricted to `restrict_to` is a partial
    /// solution for (P, C) on `g` (Definition 3.2): every decided node
    /// satisfies partial packing and partial covering.
    fn is_partial_solution(&self, g: &Graph, out: &[Self::Output], restrict_to: &[NodeId]) -> bool {
        self.partial_violations(g, out, restrict_to).is_empty()
    }
}

/// [`DynamicProblem::covering_ok`] at `v` over its neighbourhood in `g`.
fn covering_ok_in<P: DynamicProblem + ?Sized>(
    problem: &P,
    g: &Graph,
    v: NodeId,
    out: &[P::Output],
) -> bool {
    let neighbors = g.neighbors(v).map(|w| &out[w.index()]);
    problem.covering_ok(&out[v.index()], neighbors, g.degree(v))
}

/// Converts the simulator's "asleep = `None`" outputs into problem outputs
/// with `⊥` for sleeping nodes.
pub fn densify_outputs<O: HasBottom>(outputs: &[Option<O>]) -> Vec<O> {
    outputs
        .iter()
        .map(|o| o.clone().unwrap_or_else(O::bottom))
        .collect()
}

/// Counts decided (non-`⊥`) entries among the given nodes.
pub fn count_decided<O: HasBottom>(out: &[O], nodes: &[NodeId]) -> usize {
    nodes.iter().filter(|v| out[v.index()].is_decided()).count()
}

/// Counts output changes between two rounds, restricted to the given nodes —
/// the "output churn" metric used throughout the experiments.
pub fn count_changes<O: PartialEq>(prev: &[O], cur: &[O], nodes: &[NodeId]) -> usize {
    nodes
        .iter()
        .filter(|v| prev[v.index()] != cur[v.index()])
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::ColorOutput;

    #[test]
    fn densify_replaces_none_with_bottom() {
        let outs = vec![
            Some(ColorOutput::Colored(1)),
            None,
            Some(ColorOutput::Undecided),
        ];
        let dense = densify_outputs(&outs);
        assert_eq!(
            dense,
            vec![
                ColorOutput::Colored(1),
                ColorOutput::Undecided,
                ColorOutput::Undecided
            ]
        );
    }

    #[test]
    fn counting_helpers() {
        let prev = vec![
            ColorOutput::Undecided,
            ColorOutput::Colored(1),
            ColorOutput::Colored(2),
        ];
        let cur = vec![
            ColorOutput::Colored(3),
            ColorOutput::Colored(1),
            ColorOutput::Colored(1),
        ];
        let nodes: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        assert_eq!(count_decided(&prev, &nodes), 2);
        assert_eq!(count_decided(&cur, &nodes), 3);
        assert_eq!(count_changes(&prev, &cur, &nodes), 2);
        assert_eq!(count_changes(&prev, &cur, &nodes[1..2]), 0);
    }
}
