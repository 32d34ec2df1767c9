//! The traced run: `Trainer::run`'s computation, driven through each
//! layer's public functions with a span around every call.
//!
//! The loop below repeats `Trainer::run` step for step: the same batches,
//! the same cost-model call, the same tape settings, pool and pack cache,
//! the same optimizer sequence and the same final test pass. Its per-epoch
//! training losses must equal `Trainer::run`'s bit for bit; `benches/run.rs`
//! checks that on every traced run, which proves the trace measured the
//! computation users run.

use crate::trace::Tracer;
use mega_core::{revisit_lower_bound, traverse, AttentionSchedule};
use mega_datasets::{Dataset, GraphSample, Task};
use mega_exec::{BufferPool, PackCache};
use mega_gnn::nn::Binder;
use mega_gnn::{cost, metrics, Batch, EngineChoice, Gnn, GnnConfig, Trainer};
use mega_tensor::{Adam, Optimizer, ParamStore, Tape};
use std::sync::Arc;

/// Path statistics summed over every schedule a run built.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathStats {
    pub nodes: usize,
    pub positions: usize,
    pub revisits: usize,
    pub revisit_bound: usize,
    pub virtual_edges: usize,
    /// Schedules whose band covers fewer than all edges.
    pub partial_coverage: usize,
}

impl PathStats {
    pub fn tally(&mut self, s: &AttentionSchedule) {
        let st = s.stats();
        self.nodes += st.nodes;
        self.positions += st.path_len;
        self.revisits += st.revisits;
        self.revisit_bound += revisit_lower_bound(&s.working_graph().degrees(), st.window);
        self.virtual_edges += st.virtual_edges;
        if s.band().coverage() != 1.0 {
            self.partial_coverage += 1;
        }
    }
}

/// What a traced run computed.
#[derive(Debug, Clone, Default)]
pub struct TracedRun {
    pub train_losses: Vec<f64>,
    pub val_metrics: Vec<f64>,
    pub test_loss: f64,
    pub test_metric: f64,
    pub path: PathStats,
    /// Working-buffer rows and messages over one epoch's training batches.
    pub work_rows: usize,
    pub msgs: usize,
    /// Training steps taken.
    pub steps: usize,
}

struct Run<'a> {
    trainer: &'a Trainer,
    tracer: &'a Tracer,
    path: PathStats,
}

impl Run<'_> {
    fn schedules(&mut self, samples: &[GraphSample]) -> Vec<AttentionSchedule> {
        let cfg = &self.trainer.mega_config;
        samples
            .iter()
            .map(|s| {
                let t = self.tracer.span("core.traverse", || {
                    traverse(&s.graph, cfg).expect("preprocessing of a valid graph cannot fail")
                });
                self.tracer.span("core.schedule", || {
                    AttentionSchedule::from_traversal(&s.graph, t)
                })
            })
            .collect()
    }

    /// `Trainer::build_batches`, one span per call into `core` and `gnn`.
    fn batches(&mut self, samples: &[GraphSample]) -> Vec<Batch> {
        let tr = self.trainer;
        samples
            .chunks(tr.batch_size)
            .map(|c| match tr.engine {
                EngineChoice::Baseline => self.tracer.span("gnn.batch", || Batch::baseline(c)),
                EngineChoice::Mega => {
                    let scheds = self.schedules(c);
                    for s in &scheds {
                        self.path.tally(s);
                    }
                    self.tracer.span("gnn.batch", || {
                        Batch::mega_with(c, &scheds, &tr.parallelism)
                    })
                }
            })
            .collect()
    }

    /// `Trainer::evaluate`, with the forward pass as a span.
    fn evaluate(
        &self,
        model: &Gnn,
        store: &ParamStore,
        batches: &[Batch],
        task: Task,
    ) -> (f64, f64) {
        let tr = self.trainer;
        let (mut loss_sum, mut metric_sum, mut graphs) = (0.0f64, 0.0f64, 0usize);
        let pool = Arc::new(BufferPool::new());
        let pack_cache = Arc::new(PackCache::default());
        for batch in batches {
            let mut tape = Tape::with_exec(tr.backend.clone(), pool.clone());
            tape.set_parallelism(tr.parallelism);
            if tr.plan {
                tape.set_planning(true);
                tape.set_pack_cache(pack_cache.clone());
            }
            let mut binder = Binder::new();
            let (pred, loss) = self.tracer.span("gnn.forward", || {
                let pred = model.forward(&mut tape, &mut binder, store, batch);
                (pred, model.loss(&mut tape, pred, batch, task))
            });
            loss_sum += tape.value(loss).at(0, 0) as f64 * batch.n_graphs() as f64;
            let pv = tape.value(pred);
            let m = match task {
                Task::Regression => metrics::mae(pv, &batch.regression_targets()),
                Task::Classification { .. } => metrics::accuracy(pv, &batch.class_targets()),
            };
            metric_sum += m * batch.n_graphs() as f64;
            graphs += batch.n_graphs();
        }
        let g = graphs.max(1) as f64;
        (loss_sum / g, metric_sum / g)
    }
}

/// Runs `trainer` (whose backend should be the timing decorator) over
/// `dataset` under spans of `tracer`'s current run, rooted at `train`.
///
/// # Panics
///
/// Panics if the trainer enables shuffling, LR plateaus or early stopping,
/// which this loop does not repeat.
pub fn run(trainer: &Trainer, dataset: &Dataset, config: GnnConfig, tracer: &Tracer) -> TracedRun {
    assert!(
        trainer.shuffle_seed.is_none()
            && trainer.lr_patience == 0
            && trainer.early_stop_patience == 0,
        "the traced loop repeats the default trainer only"
    );
    tracer.span("train", || {
        let mut r = Run {
            trainer,
            tracer,
            path: PathStats::default(),
        };
        let task = dataset.task;
        let (train_batches, val_batches) = tracer.span("assemble", || {
            (r.batches(&dataset.train), r.batches(&dataset.val))
        });
        let rep = &dataset.train[..dataset.train.len().min(trainer.batch_size)];
        tracer.span("simulate", || {
            let scheds = (trainer.engine == EngineChoice::Mega).then(|| r.schedules(rep));
            tracer.span("gnn.cost_model", || {
                cost::epoch_cost(
                    &config,
                    trainer.engine,
                    rep,
                    scheds.as_deref(),
                    train_batches.len(),
                )
            })
        });

        let mut store = ParamStore::new();
        let model = Gnn::new(&mut store, config.clone());
        let mut opt = Adam::new(trainer.lr);
        let pool = Arc::new(BufferPool::new());
        let pack_cache = Arc::new(PackCache::default());
        let mut out = TracedRun {
            work_rows: train_batches.iter().map(|b| b.indices.work_rows).sum(),
            msgs: train_batches.iter().map(|b| b.indices.msg_count()).sum(),
            ..TracedRun::default()
        };
        for _epoch in 0..trainer.epochs {
            let mut loss_sum = 0.0f64;
            for batch in &train_batches {
                tracer.span("step", || {
                    let mut tape = Tape::with_exec(trainer.backend.clone(), pool.clone());
                    tape.set_parallelism(trainer.parallelism);
                    if trainer.plan {
                        tape.set_planning(true);
                        tape.set_pack_cache(pack_cache.clone());
                    }
                    let mut binder = Binder::new();
                    let loss = tracer.span("gnn.forward", || {
                        let pred = model.forward(&mut tape, &mut binder, &store, batch);
                        model.loss(&mut tape, pred, batch, task)
                    });
                    loss_sum += tape.value(loss).at(0, 0) as f64;
                    let grads = tracer.span("tensor.backward", || tape.backward(loss));
                    tracer.span("tensor.optim", || {
                        binder.apply(&mut store, &grads);
                        store.clip_grad_norm(trainer.grad_clip);
                        opt.step(&mut store);
                    });
                    if trainer.plan {
                        pack_cache.invalidate();
                    }
                });
                out.steps += 1;
            }
            out.train_losses
                .push(loss_sum / train_batches.len().max(1) as f64);
            let (_, val_metric) = tracer.span("evaluate", || {
                r.evaluate(&model, &store, &val_batches, task)
            });
            out.val_metrics.push(val_metric);
        }
        let test_batches = tracer.span("assemble", || r.batches(&dataset.test));
        (out.test_loss, out.test_metric) = tracer.span("evaluate", || {
            r.evaluate(&model, &store, &test_batches, task)
        });
        out.path = r.path;
        out
    })
}
