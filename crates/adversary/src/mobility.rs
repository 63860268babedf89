//! Mobility adversary: a random-waypoint wireless ad-hoc network.
//!
//! Nodes live in the unit square and move toward randomly chosen waypoints;
//! in every round the communication graph is the unit-disk graph of the
//! current positions. This models the mobile wireless networks that motivate
//! the paper ("communication links might appear and disappear constantly"),
//! and produces realistic *locally correlated* topology changes: a moving
//! node changes many of its incident edges while far-away regions stay
//! static.

use crate::traits::Adversary;
use dynnet_graph::{generators, Graph, GraphDelta, NodeId};
use dynnet_runtime::rng::experiment_rng;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Random-waypoint mobility in the unit square with unit-disk connectivity.
#[derive(Clone, Debug)]
pub struct MobilityAdversary {
    positions: Vec<(f64, f64)>,
    waypoints: Vec<(f64, f64)>,
    /// Per-round movement speed of each node.
    speeds: Vec<f64>,
    radius: f64,
    rng: ChaCha8Rng,
}

/// Configuration for [`MobilityAdversary`].
#[derive(Clone, Copy, Debug)]
pub struct MobilityConfig {
    /// Number of nodes.
    pub n: usize,
    /// Unit-disk communication radius.
    pub radius: f64,
    /// Minimum per-round speed.
    pub min_speed: f64,
    /// Maximum per-round speed.
    pub max_speed: f64,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        MobilityConfig {
            n: 100,
            radius: 0.15,
            min_speed: 0.005,
            max_speed: 0.03,
        }
    }
}

impl MobilityAdversary {
    /// Creates a mobility adversary with the given configuration and seed.
    pub fn new(config: MobilityConfig, seed: u64) -> Self {
        let mut rng = experiment_rng(seed, "mobility");
        let positions = generators::random_positions(config.n, &mut rng);
        let waypoints = generators::random_positions(config.n, &mut rng);
        let speeds = (0..config.n)
            .map(|_| rng.gen_range(config.min_speed..=config.max_speed))
            .collect();
        MobilityAdversary {
            positions,
            waypoints,
            speeds,
            radius: config.radius,
            rng,
        }
    }

    /// The current node positions (for visualisation / analysis).
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.positions
    }

    fn advance(&mut self) {
        for i in 0..self.positions.len() {
            let (px, py) = self.positions[i];
            let (wx, wy) = self.waypoints[i];
            let dx = wx - px;
            let dy = wy - py;
            let dist = (dx * dx + dy * dy).sqrt();
            let speed = self.speeds[i];
            if dist <= speed {
                // Reached the waypoint: snap to it and pick a fresh one.
                self.positions[i] = (wx, wy);
                self.waypoints[i] = (self.rng.gen(), self.rng.gen());
            } else {
                self.positions[i] = (px + dx / dist * speed, py + dy / dist * speed);
            }
        }
    }
}

impl Adversary for MobilityAdversary {
    fn initial_graph(&mut self) -> Graph {
        generators::unit_disk(&self.positions, self.radius)
    }

    /// Whole-graph reference path: the unit-disk graph of the advanced
    /// positions, independent of `prev` (phase switches reset to the
    /// geometry instead of continuing from a foreign graph).
    fn next_graph(&mut self, _round: u64, _prev: &Graph) -> Graph {
        self.advance();
        generators::unit_disk(&self.positions, self.radius)
    }

    /// Delta-native round step: advances the waypoint dynamics, then derives
    /// the edge changes directly from the geometry instead of rebuilding the
    /// whole unit-disk graph. New edges are found with a uniform grid over
    /// the unit square (`O(n · k)` for `k` nodes per disk, instead of the
    /// `O(n²)` all-pairs scan of `generators::unit_disk`); removals are
    /// found by re-checking the distance of the previous round's edges.
    fn next_delta(&mut self, _round: u64, prev: &Graph) -> GraphDelta {
        self.advance();
        let n = self.positions.len();
        let r2 = self.radius * self.radius;
        let within = |i: usize, j: usize| {
            let dx = self.positions[i].0 - self.positions[j].0;
            let dy = self.positions[i].1 - self.positions[j].1;
            dx * dx + dy * dy <= r2
        };
        let mut delta = GraphDelta::new();

        // Removed: previous edges whose endpoints drifted out of range.
        for e in prev.edges() {
            if !within(e.u.index(), e.v.index()) {
                delta.removed.push(e);
            }
        }

        // Inserted: pairs now within range that were not adjacent before.
        // Grid cells are at least `radius` wide (but never more than ~√n
        // cells per axis), so scanning `reach` cells in each direction
        // covers the communication disk.
        let cell = self.radius.max(1.0 / (n as f64).sqrt()).min(1.0);
        let cols = ((1.0 / cell).ceil() as usize).max(1);
        // The actual cell width is 1/cols (≤ `cell` after the ceil), so the
        // scan reach must be measured in those units or in-range pairs more
        // than `reach` cells apart would be missed.
        let reach = (self.radius * cols as f64).ceil() as usize;
        let cell_of = |(x, y): (f64, f64)| {
            let cx = ((x * cols as f64) as usize).min(cols - 1);
            let cy = ((y * cols as f64) as usize).min(cols - 1);
            (cx, cy)
        };
        let mut grid: Vec<Vec<u32>> = vec![Vec::new(); cols * cols];
        for (i, &p) in self.positions.iter().enumerate() {
            let (cx, cy) = cell_of(p);
            grid[cy * cols + cx].push(i as u32);
        }
        for (i, &p) in self.positions.iter().enumerate() {
            let (cx, cy) = cell_of(p);
            for gy in cy.saturating_sub(reach)..=(cy + reach).min(cols - 1) {
                for gx in cx.saturating_sub(reach)..=(cx + reach).min(cols - 1) {
                    for &j in &grid[gy * cols + gx] {
                        let j = j as usize;
                        if j > i && within(i, j) && !prev.has_edge(NodeId::new(i), NodeId::new(j)) {
                            delta.inserted.push(dynnet_graph::Edge::of(i, j));
                        }
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

    #[test]
    fn positions_stay_in_unit_square() {
        let mut adv = MobilityAdversary::new(
            MobilityConfig {
                n: 30,
                ..Default::default()
            },
            9,
        );
        let mut g = adv.initial_graph();
        for r in 1..50 {
            g = adv.next_graph(r, &g);
            for &(x, y) in adv.positions() {
                assert!((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y));
            }
        }
        assert_eq!(g.num_nodes(), 30);
    }

    #[test]
    fn graphs_change_over_time_but_gradually() {
        let mut adv = MobilityAdversary::new(
            MobilityConfig {
                n: 60,
                radius: 0.25,
                min_speed: 0.01,
                max_speed: 0.02,
            },
            3,
        );
        let g0 = adv.initial_graph();
        let g1 = adv.next_graph(1, &g0);
        let mut g_far = g1.clone();
        for r in 2..60 {
            g_far = adv.next_graph(r, &g_far);
        }
        let near_diff = g0.edge_symmetric_difference(&g1).len();
        let far_diff = g0.edge_symmetric_difference(&g_far).len();
        assert!(
            near_diff < far_diff,
            "movement accumulates: {near_diff} vs {far_diff}"
        );
    }

    #[test]
    fn delta_matches_unit_disk_at_non_integer_grid_radius() {
        // radius 0.3 ⇒ cols = 4 with actual cell width 0.25 < radius: pairs
        // two grid cells apart can still be in range, so the scan reach must
        // be measured in actual cell widths (regression test).
        for radius in [0.3, 0.45, 0.7] {
            let mut adv = MobilityAdversary::new(
                MobilityConfig {
                    n: 80,
                    radius,
                    min_speed: 0.02,
                    max_speed: 0.08,
                },
                17,
            );
            let mut g = adv.initial_graph();
            for r in 1..20 {
                let delta = adv.next_delta(r, &g);
                delta.apply(&mut g);
                let expected = generators::unit_disk(adv.positions(), radius);
                assert_eq!(
                    g.edge_vec(),
                    expected.edge_vec(),
                    "radius {radius}, round {r}"
                );
            }
        }
    }

    #[test]
    fn zero_speed_is_static() {
        let mut adv = MobilityAdversary::new(
            MobilityConfig {
                n: 20,
                radius: 0.3,
                min_speed: 0.0,
                max_speed: 0.0,
            },
            5,
        );
        let g0 = adv.initial_graph();
        let g1 = adv.next_graph(1, &g0);
        assert_eq!(g0.edge_vec(), g1.edge_vec());
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = MobilityAdversary::new(MobilityConfig::default(), 42);
        let mut b = MobilityAdversary::new(MobilityConfig::default(), 42);
        let ga = a.initial_graph();
        let gb = b.initial_graph();
        assert_eq!(ga.edge_vec(), gb.edge_vec());
        assert_eq!(
            a.next_graph(1, &ga).edge_vec(),
            b.next_graph(1, &gb).edge_vec()
        );
    }
}
