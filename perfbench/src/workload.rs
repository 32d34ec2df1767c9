//! The benchmark's workloads, generated from a seed.
//!
//! Every workload is a regression task. Node ids of every graph are
//! shuffled by a seeded permutation, so input order carries no locality
//! that the baseline engine could exploit for free.

use mega_datasets::molecular::{molecular_target, EDGE_VOCAB, NODE_VOCAB};
use mega_datasets::{zinc, Dataset, DatasetSpec, GraphSample, Target, Task};
use mega_gnn::{GnnConfig, ModelKind};
use mega_graph::{generate, Graph, GraphBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Topology family of a workload's graphs.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// ZINC-like molecules (~23 nodes each).
    Molecules,
    /// Barabási–Albert preferential attachment with `m` edges per new node.
    PowerLaw { nodes: usize, m: usize },
}

/// One workload: its inputs and the model trained on them. Everything not
/// set here (backend, threads, planner, learning rate) is the trainer's
/// default.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub family: Family,
    pub model: ModelKind,
    pub hidden: usize,
    pub layers: usize,
    pub heads: usize,
    pub batch: usize,
    pub epochs: usize,
    /// Graphs in the train, validation and test splits.
    pub splits: [usize; 3],
    /// Set-up passes timed per repetition (`setup_s` is their median).
    pub setups_per_rep: usize,
}

/// Smallest graph whose per-layer message tensor, 2E rows × `hidden` f32,
/// exceeds a 4 MiB per-core L2 cache.
const L2_BYTES: usize = 4 << 20;

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "molecules-gt",
        family: Family::Molecules,
        model: ModelKind::GraphTransformer,
        hidden: 64,
        layers: 4,
        heads: 4,
        batch: 64,
        epochs: 2,
        splits: [64, 64, 64],
        setups_per_rep: 5,
    },
    Workload {
        name: "powerlaw-gt",
        family: Family::PowerLaw { nodes: 2100, m: 4 },
        model: ModelKind::GraphTransformer,
        hidden: 64,
        layers: 1,
        heads: 4,
        batch: 1,
        epochs: 1,
        splits: [1, 1, 1],
        setups_per_rep: 2,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn config(&self, ds: &Dataset) -> GnnConfig {
        GnnConfig::new(self.model, ds.node_vocab, ds.edge_vocab, 1)
            .with_hidden(self.hidden)
            .with_layers(self.layers)
            .with_heads(self.heads)
    }

    /// The workload's dataset for `seed`: the same seed gives the same
    /// graphs, features, targets and node order.
    pub fn dataset(&self, seed: u64) -> Dataset {
        let [train, val, test] = self.splits;
        let mut perm_rng = StdRng::seed_from_u64(seed ^ 0x5eed_f1d5);
        let mut ds = match self.family {
            Family::Molecules => zinc(&DatasetSpec {
                train,
                val,
                test,
                seed,
            }),
            Family::PowerLaw { .. } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut split = |count: usize| -> Vec<GraphSample> {
                    (0..count).map(|_| self.large_sample(&mut rng)).collect()
                };
                let (train, val, test) = (split(train), split(val), split(test));
                Dataset {
                    name: self.name.to_string(),
                    task: Task::Regression,
                    node_vocab: NODE_VOCAB,
                    edge_vocab: EDGE_VOCAB,
                    train,
                    val,
                    test,
                }
            }
        };
        for s in ds.train.iter_mut().chain(&mut ds.val).chain(&mut ds.test) {
            *s = shuffle_nodes(s, &mut perm_rng);
        }
        ds
    }

    fn large_sample(&self, rng: &mut StdRng) -> GraphSample {
        let graph = match self.family {
            Family::PowerLaw { nodes, m } => generate::barabasi_albert(nodes, m, rng),
            Family::Molecules => unreachable!("molecules come from the zinc generator"),
        }
        .expect("generator parameters are valid");
        assert!(
            2 * graph.edge_count() * self.hidden * 4 > L2_BYTES,
            "{}: a layer's message tensor must exceed the L2 cache",
            self.name
        );
        // The molecule generator's feature distributions: atom type 0
        // dominates, bond types are uniform.
        let node_features: Vec<usize> = (0..graph.node_count())
            .map(|_| {
                let r: f64 = rng.gen();
                if r < 0.55 {
                    0
                } else if r < 0.75 {
                    1
                } else {
                    rng.gen_range(2..NODE_VOCAB)
                }
            })
            .collect();
        let edge_features: Vec<usize> = (0..graph.edge_count())
            .map(|_| rng.gen_range(0..EDGE_VOCAB))
            .collect();
        let target = Target::Regression(molecular_target(&graph, &node_features, &edge_features));
        GraphSample {
            graph,
            node_features,
            edge_features,
            target,
        }
    }
}

/// Relabels the nodes of `s` by a random permutation. Edge ids, and with
/// them the edge features, keep their order; the target is invariant.
fn shuffle_nodes(s: &GraphSample, rng: &mut StdRng) -> GraphSample {
    let n = s.graph.node_count();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    let graph: Graph = GraphBuilder::undirected(n)
        .edges(s.graph.edges().map(|(a, b)| (perm[a], perm[b])))
        .and_then(|b| b.build())
        .expect("a relabelled simple graph is valid");
    let mut node_features = vec![0; n];
    for (v, &f) in s.node_features.iter().enumerate() {
        node_features[perm[v]] = f;
    }
    GraphSample {
        graph,
        node_features,
        edge_features: s.edge_features.clone(),
        target: s.target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let w = by_name("molecules-gt").unwrap();
        let (a, b) = (w.dataset(3), w.dataset(3));
        for (x, y) in a.all_samples().zip(b.all_samples()) {
            assert_eq!(
                x.graph.edges().collect::<Vec<_>>(),
                y.graph.edges().collect::<Vec<_>>()
            );
            assert_eq!(x.node_features, y.node_features);
            assert_eq!(x.target, y.target);
        }
        assert!(a.validate());
    }

    #[test]
    fn shuffling_keeps_the_target() {
        let ds = zinc(&DatasetSpec::tiny(4));
        let mut rng = StdRng::seed_from_u64(9);
        for s in ds.all_samples() {
            let t = shuffle_nodes(s, &mut rng);
            assert!(t.is_consistent());
            let y = molecular_target(&t.graph, &t.node_features, &t.edge_features);
            assert_eq!(Target::Regression(y), s.target);
        }
    }
}
