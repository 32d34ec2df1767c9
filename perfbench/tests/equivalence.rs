//! The benchmark measures the computation users run: timing it, or
//! driving it layer by layer, must not change a single loss bit.

use mega_datasets::{zinc, Dataset, DatasetSpec};
use mega_gnn::{EngineChoice, GnnConfig, ModelKind, Trainer, TrainingHistory};
use perfbench::timing::TimingBackend;
use perfbench::trace::Tracer;
use perfbench::traced;
use std::sync::Arc;

fn setup(kind: ModelKind) -> (Dataset, GnnConfig) {
    let ds = zinc(&DatasetSpec::tiny(11));
    let cfg = GnnConfig::new(kind, ds.node_vocab, ds.edge_vocab, 1)
        .with_hidden(16)
        .with_layers(2)
        .with_heads(2);
    (ds, cfg)
}

fn trainer(engine: EngineChoice) -> Trainer {
    Trainer::new(engine).with_batch_size(8).with_epochs(2)
}

fn bits(h: &TrainingHistory) -> Vec<u64> {
    h.records
        .iter()
        .flat_map(|r| [r.train_loss, r.val_loss, r.val_metric])
        .chain([h.test_loss, h.test_metric])
        .map(f64::to_bits)
        .collect()
}

#[test]
fn decorated_training_is_bit_identical() {
    for kind in [ModelKind::GraphTransformer, ModelKind::GatedGcn] {
        let (ds, cfg) = setup(kind);
        for engine in [EngineChoice::Mega, EngineChoice::Baseline] {
            let plain = trainer(engine).run(&ds, cfg.clone());
            let tracer = Arc::new(Tracer::default());
            let run = tracer.begin_run();
            let backend = Arc::new(TimingBackend::new(trainer(engine).backend, tracer.clone()));
            let timed = trainer(engine).with_backend(backend).run(&ds, cfg.clone());
            assert_eq!(bits(&plain), bits(&timed), "{kind:?} {engine:?}");
            assert!(tracer.summary(run).contains_key("exec.matmul"));
        }
    }
}

#[test]
fn traced_loop_repeats_trainer_run() {
    for kind in [ModelKind::GraphTransformer, ModelKind::GatedGcn] {
        let (ds, cfg) = setup(kind);
        for engine in [EngineChoice::Mega, EngineChoice::Baseline] {
            let plain = trainer(engine).run(&ds, cfg.clone());
            let tracer = Arc::new(Tracer::default());
            let run = tracer.begin_run();
            let backend = Arc::new(TimingBackend::new(trainer(engine).backend, tracer.clone()));
            let t = traced::run(
                &trainer(engine).with_backend(backend),
                &ds,
                cfg.clone(),
                &tracer,
            );
            let want: Vec<u64> = plain
                .records
                .iter()
                .map(|r| r.train_loss.to_bits())
                .collect();
            let got: Vec<u64> = t.train_losses.iter().map(|l| l.to_bits()).collect();
            assert_eq!(want, got, "{kind:?} {engine:?} train losses");
            let want: Vec<u64> = plain
                .records
                .iter()
                .map(|r| r.val_metric.to_bits())
                .collect();
            let got: Vec<u64> = t.val_metrics.iter().map(|l| l.to_bits()).collect();
            assert_eq!(want, got, "{kind:?} {engine:?} val metrics");
            assert_eq!(plain.test_metric.to_bits(), t.test_metric.to_bits());
            let s = tracer.summary(run);
            for layer in [
                "train",
                "step",
                "gnn.forward",
                "tensor.backward",
                "tensor.optim",
                "gnn.cost_model",
            ] {
                assert!(
                    s.contains_key(layer),
                    "{kind:?} {engine:?}: no {layer} span"
                );
            }
            if engine == EngineChoice::Mega {
                assert!(s.contains_key("core.traverse") && s.contains_key("core.schedule"));
                assert_eq!(t.path.partial_coverage, 0);
            }
        }
    }
}
