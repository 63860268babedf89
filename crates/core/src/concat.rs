//! The **Concat** combiner (Algorithm 1, Theorem 1.1).
//!
//! `Concat` combines a `(T2, α)`-network-static algorithm `SAlg` with a
//! `T1`-dynamic algorithm `DAlg`:
//!
//! * one `SAlg` instance runs from the node's wake-up onwards and produces a
//!   partial solution `φ_r` every round;
//! * every round a **new** `DAlg` instance is started with the previous
//!   round's `SAlg` output `φ_{r-1}` as input; at most `T1 - 1` instances are
//!   kept alive (older ones are discarded);
//! * the combiner's output is the output of the *oldest* live `DAlg`
//!   instance — which by then has run for `T1 - 1` rounds and, by property
//!   A.2, extends `φ` to a `T1`-dynamic solution.
//!
//! `Concat` is itself a [`NodeAlgorithm`], so it runs unchanged inside the
//! simulator; its broadcast message bundles the `SAlg` message with one
//! message per live `DAlg` instance.
//!
//! Instance alignment across nodes uses the global round number as a tag.
//! The paper notes that round numbers are "only for the sake of analysis";
//! in a real deployment any shared epoch identifier (e.g. a coarse clock)
//! serves the same purpose, and the node algorithms themselves never read
//! the round number.

use crate::output::HasBottom;
use dynnet_graph::NodeId;
use dynnet_runtime::{AlgorithmFactory, Incoming, NodeAlgorithm, NodeContext};
use std::collections::VecDeque;
use std::sync::Arc;

/// Creates fresh `DAlg` instances started on a given input `φ_v`
/// (the dynamic-algorithm side of the framework, Definition 3.3).
pub trait DynamicAlgorithmFactory<D: NodeAlgorithm>: Send + Sync {
    /// Creates a `DAlg` instance for node `v` with input `input` (= the
    /// node's entry of the partial solution the instance must extend).
    fn create(&self, v: NodeId, input: D::Output) -> D;
}

impl<D: NodeAlgorithm, F> DynamicAlgorithmFactory<D> for F
where
    F: Fn(NodeId, D::Output) -> D + Send + Sync,
{
    fn create(&self, v: NodeId, input: D::Output) -> D {
        self(v, input)
    }
}

/// Creates the single long-running `SAlg` instance per node
/// (the network-static side of the framework, Definition 3.3).
pub trait StaticAlgorithmFactory<S: NodeAlgorithm>: Send + Sync {
    /// Creates the `SAlg` instance for node `v`.
    fn create(&self, v: NodeId) -> S;
}

impl<S: NodeAlgorithm, F> StaticAlgorithmFactory<S> for F
where
    F: Fn(NodeId) -> S + Send + Sync,
{
    fn create(&self, v: NodeId) -> S {
        self(v)
    }
}

/// The broadcast message of [`Concat`]: the `SAlg` message plus one tagged
/// message per live `DAlg` instance.
#[derive(Clone, Debug)]
pub struct ConcatMsg<SM, DM> {
    /// The network-static algorithm's message.
    pub s: SM,
    /// `(instance tag, message)` for every live dynamic-algorithm instance.
    pub d: Vec<(u64, DM)>,
}

/// Per-node state of Algorithm 1.
pub struct Concat<S, D, DF>
where
    S: NodeAlgorithm,
    D: NodeAlgorithm<Output = S::Output>,
    S::Output: HasBottom,
    DF: DynamicAlgorithmFactory<D>,
{
    node: NodeId,
    t1: usize,
    salg: S,
    /// `φ_{r-1}`: the SAlg output at the end of the previous round.
    phi_prev: S::Output,
    /// Live DAlg instances, oldest first, tagged by their start round.
    dalgs: VecDeque<(u64, D)>,
    dfactory: Arc<DF>,
}

impl<S, D, DF> Concat<S, D, DF>
where
    S: NodeAlgorithm,
    D: NodeAlgorithm<Output = S::Output>,
    S::Output: HasBottom,
    DF: DynamicAlgorithmFactory<D>,
{
    /// Creates the combiner for node `v` with window parameter `t1 ≥ 2`.
    pub fn new(v: NodeId, t1: usize, salg: S, dfactory: Arc<DF>) -> Self {
        assert!(t1 >= 2, "Concat requires T1 ≥ 2");
        Concat {
            node: v,
            t1,
            salg,
            phi_prev: S::Output::bottom(),
            dalgs: VecDeque::with_capacity(t1),
            dfactory,
        }
    }

    /// Number of live DAlg instances (≤ T1 − 1).
    pub fn num_instances(&self) -> usize {
        self.dalgs.len()
    }

    /// The current SAlg output `φ` (the backbone partial solution).
    pub fn static_output(&self) -> S::Output {
        self.salg.output()
    }

    /// Immutable access to the SAlg instance (for inspection in tests).
    pub fn static_algorithm(&self) -> &S {
        &self.salg
    }
}

impl<S, D, DF> NodeAlgorithm for Concat<S, D, DF>
where
    S: NodeAlgorithm,
    D: NodeAlgorithm<Output = S::Output>,
    S::Output: HasBottom,
    DF: DynamicAlgorithmFactory<D>,
{
    type Msg = ConcatMsg<S::Msg, D::Msg>;
    type Output = S::Output;

    fn on_wake(&mut self, ctx: &mut NodeContext<'_>) {
        self.salg.on_wake(ctx);
    }

    fn send(&mut self, ctx: &mut NodeContext<'_>) -> Self::Msg {
        // Line 1: start a new DAlg instance on φ_{r-1}.
        let new_instance = self.dfactory.create(self.node, self.phi_prev.clone());
        self.dalgs.push_back((ctx.round, new_instance));
        // Lines 2-3: keep at most T1 - 1 instances (discard the oldest).
        while self.dalgs.len() > self.t1 - 1 {
            self.dalgs.pop_front();
        }
        // Line 6 (send half): one further round of SAlg.
        let s = self.salg.send(ctx);
        // Lines 4-5 (send half): one round of every DAlg instance.
        let d = self
            .dalgs
            .iter_mut()
            .map(|(tag, alg)| (*tag, alg.send(ctx)))
            .collect();
        ConcatMsg { s, d }
    }

    fn receive(&mut self, ctx: &mut NodeContext<'_>, inbox: &[Incoming<Self::Msg>]) {
        // SAlg receives the SAlg components.
        let s_inbox: Vec<Incoming<S::Msg>> =
            inbox.iter().map(|(from, m)| (*from, m.s.clone())).collect();
        self.salg.receive(ctx, &s_inbox);
        // Each DAlg instance receives the messages of the matching instance
        // at the neighbors (matched by start-round tag).
        for (tag, alg) in self.dalgs.iter_mut() {
            let d_inbox: Vec<Incoming<D::Msg>> = inbox
                .iter()
                .filter_map(|(from, m)| {
                    m.d.iter()
                        .find(|(t, _)| t == tag)
                        .map(|(_, dm)| (*from, dm.clone()))
                })
                .collect();
            alg.receive(ctx, &d_inbox);
        }
        // Line 6: φ_r becomes the input of the instance started next round.
        self.phi_prev = self.salg.output();
    }

    fn output(&self) -> Self::Output {
        // Line 7: output the oldest DAlg instance's output.
        self.dalgs
            .front()
            .map(|(_, alg)| alg.output())
            .unwrap_or_else(S::Output::bottom)
    }
}

/// [`AlgorithmFactory`] that builds [`Concat`] nodes for the simulator.
pub struct ConcatFactory<S, D, SF, DF>
where
    S: NodeAlgorithm,
    D: NodeAlgorithm<Output = S::Output>,
    S::Output: HasBottom,
    SF: StaticAlgorithmFactory<S>,
    DF: DynamicAlgorithmFactory<D>,
{
    t1: usize,
    sfactory: SF,
    dfactory: Arc<DF>,
    _marker: std::marker::PhantomData<fn() -> (S, D)>,
}

impl<S, D, SF, DF> ConcatFactory<S, D, SF, DF>
where
    S: NodeAlgorithm,
    D: NodeAlgorithm<Output = S::Output>,
    S::Output: HasBottom,
    SF: StaticAlgorithmFactory<S>,
    DF: DynamicAlgorithmFactory<D>,
{
    /// Creates a factory producing `Concat` nodes with window parameter `t1`.
    pub fn new(t1: usize, sfactory: SF, dfactory: DF) -> Self {
        ConcatFactory {
            t1,
            sfactory,
            dfactory: Arc::new(dfactory),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S, D, SF, DF> AlgorithmFactory<Concat<S, D, DF>> for ConcatFactory<S, D, SF, DF>
where
    S: NodeAlgorithm,
    D: NodeAlgorithm<Output = S::Output>,
    S::Output: HasBottom,
    SF: StaticAlgorithmFactory<S>,
    DF: DynamicAlgorithmFactory<D>,
{
    fn create(&self, v: NodeId) -> Concat<S, D, DF> {
        Concat::new(
            v,
            self.t1,
            self.sfactory.create(v),
            Arc::clone(&self.dfactory),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynnet_graph::{generators, Graph, GraphDelta};
    use dynnet_runtime::{AllAtStart, SimConfig, Simulator};

    /// Toy "network-static" algorithm: after `delay` rounds it outputs
    /// `Some(node id)` and never changes again.
    struct ToyStatic {
        node: NodeId,
        rounds: u64,
        delay: u64,
    }

    impl NodeAlgorithm for ToyStatic {
        type Msg = ();
        type Output = Option<u32>;
        fn send(&mut self, _ctx: &mut NodeContext<'_>) {}
        fn receive(&mut self, _ctx: &mut NodeContext<'_>, _inbox: &[Incoming<()>]) {
            self.rounds += 1;
        }
        fn output(&self) -> Option<u32> {
            (self.rounds >= self.delay).then_some(self.node.0)
        }
    }

    /// Toy "dynamic" algorithm: input-extending (keeps a decided input) and
    /// finalizing (decides `Some(node id + 1000)` after 1 round if the input
    /// was ⊥).
    struct ToyDynamic {
        node: NodeId,
        value: Option<u32>,
        from_input: bool,
        rounds: u64,
    }

    impl NodeAlgorithm for ToyDynamic {
        type Msg = ();
        type Output = Option<u32>;
        fn send(&mut self, _ctx: &mut NodeContext<'_>) {}
        fn receive(&mut self, _ctx: &mut NodeContext<'_>, _inbox: &[Incoming<()>]) {
            self.rounds += 1;
            if self.value.is_none() && self.rounds >= 1 {
                self.value = Some(self.node.0 + 1000);
            }
        }
        fn output(&self) -> Option<u32> {
            self.value
        }
    }

    fn toy_concat_factory(
        t1: usize,
        delay: u64,
    ) -> ConcatFactory<
        ToyStatic,
        ToyDynamic,
        impl StaticAlgorithmFactory<ToyStatic>,
        impl DynamicAlgorithmFactory<ToyDynamic>,
    > {
        ConcatFactory::new(
            t1,
            move |v: NodeId| ToyStatic {
                node: v,
                rounds: 0,
                delay,
            },
            |v: NodeId, input: Option<u32>| ToyDynamic {
                node: v,
                from_input: input.is_some(),
                value: input,
                rounds: 0,
            },
        )
    }

    #[test]
    fn keeps_at_most_t1_minus_1_instances() {
        let g = generators::cycle(4);
        let factory = toy_concat_factory(4, 2);
        let mut sim = Simulator::new(4, factory, AllAtStart, SimConfig::sequential(0));
        for _ in 0..10 {
            sim.step_delta(&g, &GraphDelta::new());
        }
        let node = sim.node(NodeId::new(0)).unwrap();
        assert_eq!(node.num_instances(), 3);
    }

    #[test]
    fn output_comes_from_oldest_instance_and_inherits_static_backbone() {
        // The static algorithm decides after 2 rounds. Instances started
        // afterwards receive that decision as input (input-extending), so the
        // combiner's output eventually equals the static backbone.
        let g = generators::cycle(4);
        let factory = toy_concat_factory(3, 2);
        let mut sim = Simulator::new(4, factory, AllAtStart, SimConfig::sequential(0));
        for _ in 0..8 {
            sim.step_delta(&g, &GraphDelta::new());
        }
        let outputs = sim.outputs();
        #[allow(clippy::needless_range_loop)]
        for i in 0..4 {
            assert_eq!(
                outputs[i],
                Some(Some(i as u32)),
                "backbone value propagated"
            );
        }
        // The oldest instance at this point was created from a decided φ.
        let node = sim.node(NodeId::new(1)).unwrap();
        assert_eq!(node.static_output(), Some(1));
        assert!(node.dalgs.front().unwrap().1.from_input);
    }

    #[test]
    fn early_rounds_use_dynamic_fallback_values() {
        // Before the static algorithm decides (delay 100), the dynamic
        // instances decide on their own (+1000 values), so the combined
        // output is never stuck at ⊥ for long.
        let g = generators::cycle(3);
        let factory = toy_concat_factory(3, 100);
        let mut sim = Simulator::new(3, factory, AllAtStart, SimConfig::sequential(0));
        sim.step_delta(&g, &GraphDelta::new());
        // Round 0: the single instance has run 1 round and decided the fallback.
        assert_eq!(sim.outputs()[0], Some(Some(1000)));
        for _ in 1..5 {
            sim.step_delta(&g, &GraphDelta::new());
        }
        assert_eq!(sim.outputs()[2], Some(Some(1002)));
    }

    #[test]
    #[should_panic]
    fn t1_must_be_at_least_two() {
        let _ = Concat::new(
            NodeId::new(0),
            1,
            ToyStatic {
                node: NodeId::new(0),
                rounds: 0,
                delay: 0,
            },
            Arc::new(|v: NodeId, input: Option<u32>| ToyDynamic {
                node: v,
                from_input: input.is_some(),
                value: input,
                rounds: 0,
            }),
        );
    }

    #[test]
    fn messages_are_tagged_per_instance() {
        let g: Graph = generators::complete(2);
        let factory = toy_concat_factory(4, 1);
        let mut sim = Simulator::new(2, factory, AllAtStart, SimConfig::sequential(0));
        sim.step_delta(&g, &GraphDelta::new());
        sim.step_delta(&g, &GraphDelta::new());
        let node = sim.node(NodeId::new(0)).unwrap();
        let tags: Vec<u64> = node.dalgs.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, vec![0, 1], "instances tagged by start round");
    }
}
