//! Model and engine configuration.

use serde::{Deserialize, Serialize};

/// Which GNN architecture to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Gated Graph ConvNet (paper "GCN").
    GatedGcn,
    /// Graph Transformer (paper "GT").
    GraphTransformer,
    /// Graph Attention Network (Veličković et al.) — an extension beyond the
    /// paper's evaluated pair.
    Gat,
}

impl ModelKind {
    /// The label the paper uses.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::GatedGcn => "GCN",
            ModelKind::GraphTransformer => "GT",
            ModelKind::Gat => "GAT",
        }
    }
}

/// Which execution engine routes graph attention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineChoice {
    /// Conventional scatter/gather over adjacency slots (the DGL baseline).
    Baseline,
    /// Banded attention over the MEGA path representation.
    Mega,
}

impl EngineChoice {
    /// The label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            EngineChoice::Baseline => "DGL",
            EngineChoice::Mega => "Mega",
        }
    }
}

/// Hyperparameters of a model instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GnnConfig {
    /// Architecture.
    pub kind: ModelKind,
    /// Hidden width `d`.
    pub hidden_dim: usize,
    /// Stacked attention layers.
    pub layers: usize,
    /// Attention heads (Graph Transformer only; must divide `hidden_dim`).
    pub heads: usize,
    /// Node-feature vocabulary size.
    pub node_vocab: usize,
    /// Edge-feature vocabulary size.
    pub edge_vocab: usize,
    /// Output dimension (1 for regression, class count for classification).
    pub out_dim: usize,
    /// Initialization seed.
    pub seed: u64,
}

impl GnnConfig {
    /// A reasonable default configuration for an architecture and dataset
    /// vocabularies.
    pub fn new(kind: ModelKind, node_vocab: usize, edge_vocab: usize, out_dim: usize) -> Self {
        GnnConfig {
            kind,
            hidden_dim: 32,
            layers: 3,
            heads: 4,
            node_vocab,
            edge_vocab,
            out_dim,
            seed: 1,
        }
    }

    /// Sets the hidden width.
    pub fn with_hidden(mut self, d: usize) -> Self {
        self.hidden_dim = d;
        self
    }

    /// Sets the layer count.
    pub fn with_layers(mut self, layers: usize) -> Self {
        self.layers = layers;
        self
    }

    /// Sets the head count.
    pub fn with_heads(mut self, heads: usize) -> Self {
        self.heads = heads;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates divisibility and non-zero dimensions.
    ///
    /// # Panics
    ///
    /// Panics on invalid combinations — configuration errors are programmer
    /// errors in this workspace.
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }

    /// Checks the configuration, naming the first invalid setting.
    ///
    /// # Errors
    ///
    /// Returns a message when a dimension, layer count or vocabulary is
    /// zero, or when an attention model's heads do not divide its hidden
    /// width.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("hidden_dim", self.hidden_dim),
            ("layers", self.layers),
            ("out_dim", self.out_dim),
            ("node_vocab", self.node_vocab),
            ("edge_vocab", self.edge_vocab),
        ] {
            if v == 0 {
                return Err(format!("{name} must be at least 1"));
            }
        }
        if matches!(self.kind, ModelKind::GraphTransformer | ModelKind::Gat)
            && !(self.heads > 0 && self.hidden_dim.is_multiple_of(self.heads))
        {
            return Err(format!(
                "heads {} must divide hidden_dim {}",
                self.heads, self.hidden_dim
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(ModelKind::GatedGcn.label(), "GCN");
        assert_eq!(ModelKind::GraphTransformer.label(), "GT");
        assert_eq!(EngineChoice::Baseline.label(), "DGL");
        assert_eq!(EngineChoice::Mega.label(), "Mega");
    }

    #[test]
    fn builder_chain_and_validation() {
        let cfg = GnnConfig::new(ModelKind::GraphTransformer, 8, 4, 1)
            .with_hidden(64)
            .with_layers(2)
            .with_heads(8)
            .with_seed(9);
        cfg.assert_valid();
        assert_eq!(cfg.hidden_dim, 64);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_heads_panics() {
        GnnConfig::new(ModelKind::GraphTransformer, 8, 4, 1)
            .with_hidden(30)
            .with_heads(4)
            .assert_valid();
    }
}
