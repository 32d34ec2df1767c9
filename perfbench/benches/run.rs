//! The repository benchmark: time-to-train under the mega and dgl engines.
//!
//! ```text
//! cargo bench --offline --quiet --manifest-path perfbench/Cargo.toml --bench run -- \
//!     --workload molecules-gt --seed 1 --seconds 40 --trace 0
//! ```
//!
//! One process, closed loop. Each repetition trains the workload with
//! `mega_gnn::Trainer::run` under both engines, alternating which engine
//! goes first, then times set-up (`preprocess_samples` + `Batch::mega_with`
//! over all splits) and a forward-only evaluation pass. Repetitions run
//! until `--seconds` have passed; every metric is the median over them.
//!
//! With `--trace 1` the repetitions instead drive the same training through
//! the layers' public functions (`traced.rs`) with a span around each call
//! and a timing decorator around the default backend (`timing.rs`), and
//! report per-layer metrics. Every traced run is checked to produce the
//! same per-epoch losses, bit for bit, as an untraced `Trainer::run`, and
//! the difference in wall time is reported as the tracing overhead.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. One attempted operation
//! is one training run or one evaluation pass; it fails when it panics or
//! trips a correctness check. `METRICS.md` defines every metric.
//!
//! The traced run writes its spans to `target/traces/` under the working
//! directory, which `cargo bench` sets to the package root.

use mega_core::Parallelism;
use mega_datasets::Dataset;
use mega_gnn::{preprocess_samples, Batch, EngineChoice, Gnn, Trainer, TrainingHistory};
use mega_tensor::ParamStore;
use perfbench::trace::{self, Tracer};
use perfbench::workload::{self, Workload};
use perfbench::{timing, traced};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child process that measures one engine's peak memory.
    peak_of: Option<EngineChoice>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut peak_of = None;
    while let Some(flag) = it.next() {
        // `cargo bench` appends `--bench` to a harness-less bench's args.
        if flag == "--bench" {
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--peak-of" => {
                peak_of = Some(match value.as_str() {
                    "mega" => EngineChoice::Mega,
                    "dgl" => EngineChoice::Baseline,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        peak_of,
    })
}

/// Operations attempted, and the failed ones with their reasons.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failures: BTreeMap<String, Vec<String>>,
}

impl Ledger {
    /// Runs one operation; a panic or an `Err` counts it as failed.
    fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(what, e);
                None
            }
            Err(_) => {
                self.fail(what, "panicked".into());
                None
            }
        }
    }

    /// Marks operation `what` failed, also after it returned, when a later
    /// cross-check trips.
    fn fail(&mut self, what: &str, reason: String) {
        self.failures
            .entry(what.to_string())
            .or_default()
            .push(reason);
    }
}

fn trainer(w: &Workload, engine: EngineChoice) -> Trainer {
    Trainer::new(engine)
        .with_batch_size(w.batch)
        .with_epochs(w.epochs)
}

/// Metric-name prefix of `engine`: none for mega, `dgl` for the baseline.
fn prefix(engine: EngineChoice, dgl: &'static str) -> &'static str {
    match engine {
        EngineChoice::Mega => "",
        EngineChoice::Baseline => dgl,
    }
}

fn engines(rep: u64, seed: u64) -> [EngineChoice; 2] {
    // Alternate which engine runs first, so first-run warm-up, which users
    // pay on every training run, lands on both engines equally.
    if (rep + seed).is_multiple_of(2) {
        [EngineChoice::Mega, EngineChoice::Baseline]
    } else {
        [EngineChoice::Baseline, EngineChoice::Mega]
    }
}

fn finite_history(h: &TrainingHistory) -> Result<(), String> {
    let vals = h
        .records
        .iter()
        .flat_map(|r| [r.train_loss, r.val_loss, r.val_metric])
        .chain([h.test_loss, h.test_metric]);
    for v in vals {
        if !v.is_finite() {
            return Err(format!("non-finite loss or metric {v}"));
        }
    }
    if h.records.is_empty() {
        return Err("no epoch recorded".into());
    }
    Ok(())
}

fn final_mae(h: &TrainingHistory) -> f64 {
    h.final_metric().unwrap_or(f64::NAN)
}

/// Largest relative gap between the engines' final validation MAE that
/// still counts as the same model quality: the smallest spread of
/// `val_mae` across seeds (quartile distance over median: 5.5e-3 on
/// `powerlaw-gt`, 9e-2 on `molecules-gt`). The engines sum messages in
/// another order, so their MAE differs by float reassociation alone; over
/// 24 `molecules-gt` seeds the gap was 1e-7 to 1.5e-4.
const MAE_TOLERANCE: f64 = 5e-3;

/// Checks the engines' final validation MAE agree within [`MAE_TOLERANCE`].
fn same_quality(mega: f64, dgl: f64) -> Result<(), String> {
    if (mega - dgl).abs() <= MAE_TOLERANCE * dgl.abs() {
        Ok(())
    } else {
        Err(format!(
            "val_mae differs between engines: mega {mega} vs dgl {dgl} \
             (tolerance {MAE_TOLERANCE})"
        ))
    }
}

mod rss {
    /// Resets the peak resident set to the current one, so the next peak
    /// belongs to what runs next.
    pub fn reset_peak() {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }

    /// Peak resident set since the last reset, in MiB.
    pub fn peak_mb() -> f64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map_or(f64::NAN, |kb| kb / 1024.0)
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    if s.is_empty() {
        return 0.0;
    }
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Metric samples by name, with their unit.
#[derive(Default)]
struct Samples(BTreeMap<String, (&'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, unit: &'static str, v: f64) {
        self.0
            .entry(name.into())
            .or_insert((unit, Vec::new()))
            .1
            .push(v);
    }
}

/// Paces the repetitions of a run: the next one starts only while it is
/// expected, at the mean duration of those before it, to end within the
/// run's seconds. The first always runs.
struct Pacer {
    start: Instant,
    first_rep: Option<Instant>,
    seconds: f64,
    reps: u64,
}

impl Pacer {
    fn new(seconds: f64) -> Self {
        Pacer {
            start: Instant::now(),
            first_rep: None,
            seconds,
            reps: 0,
        }
    }

    /// The index of the next repetition, or `None` when time is up.
    fn next(&mut self) -> Option<u64> {
        let now = Instant::now();
        let first = *self.first_rep.get_or_insert(now);
        if self.reps > 0 {
            let per_rep = (now - first).as_secs_f64() / self.reps as f64;
            if (now - self.start).as_secs_f64() + per_rep > self.seconds {
                return None;
            }
        }
        self.reps += 1;
        Some(self.reps - 1)
    }
}

/// One timed training run of `engine`, with its peak resident set (which
/// is only the run's own in a fresh process; see [`child_peak`]).
fn timed_run(
    w: &Workload,
    ds: &Dataset,
    engine: EngineChoice,
) -> Result<(f64, f64, TrainingHistory), String> {
    let tr = trainer(w, engine);
    let cfg = w.config(ds);
    rss::reset_peak();
    let t = Instant::now();
    let hist = tr.run(ds, cfg);
    let secs = t.elapsed().as_secs_f64();
    let peak = rss::peak_mb();
    finite_history(&hist)?;
    Ok((secs, peak, hist))
}

/// Set-up as users pay it before the first epoch: mega preprocessing and
/// batch assembly for every split, in the trainer's batch chunks. Returns
/// the batches per split and the seconds taken.
fn setup(w: &Workload, ds: &Dataset, tr: &Trainer) -> Result<(Vec<Vec<Batch>>, f64), String> {
    let par: &Parallelism = &tr.parallelism;
    let t = Instant::now();
    let mut splits = Vec::with_capacity(3);
    let mut partial = 0usize;
    for split in [&ds.train, &ds.val, &ds.test] {
        let mut batches = Vec::new();
        for chunk in split.chunks(w.batch) {
            let scheds =
                preprocess_samples(chunk, &tr.mega_config, par).map_err(|e| e.to_string())?;
            partial += scheds.iter().filter(|s| s.band().coverage() != 1.0).count();
            batches.push(Batch::mega_with(chunk, &scheds, par));
        }
        splits.push(batches);
    }
    let secs = t.elapsed().as_secs_f64();
    if partial > 0 {
        return Err(format!("{partial} schedules cover fewer than all edges"));
    }
    Ok((splits, secs))
}

/// Checks every mega batch routes as many messages as its baseline twin.
fn same_messages(w: &Workload, ds: &Dataset, mega: &[Vec<Batch>]) -> Result<(), String> {
    for (split, batches) in [&ds.train, &ds.val, &ds.test].into_iter().zip(mega) {
        for (chunk, m) in split.chunks(w.batch).zip(batches) {
            let (a, b) = (
                m.indices.msg_count(),
                Batch::baseline(chunk).indices.msg_count(),
            );
            if a != b {
                return Err(format!("msg_count differs: mega {a} vs dgl {b}"));
            }
        }
    }
    Ok(())
}

fn engine_flag(engine: EngineChoice) -> &'static str {
    match engine {
        EngineChoice::Mega => "mega",
        EngineChoice::Baseline => "dgl",
    }
}

/// Peak memory of one `Trainer::run`, measured in a fresh child process:
/// in this process, heap retained from earlier runs would set the peak.
fn child_peak(args: &Args, engine: EngineChoice) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = args.seed.to_string();
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name, "--seed", &seed])
        .args(["--peak-of", engine_flag(engine)])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.trim().parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v > 0.0)
        .ok_or_else(|| format!("child printed no peak: {stdout}"))
}

/// The untraced repetitions: every end-to-end metric.
fn end_to_end(args: &Args, ds: &Dataset, ledger: &mut Ledger, out: &mut Samples) {
    let w = args.workload;
    let cfg = w.config(ds);
    let mega = trainer(w, EngineChoice::Mega);
    // Evaluation throughput does not depend on the weights' values, so an
    // untrained model serves.
    let mut store = ParamStore::new();
    let model = Gnn::new(&mut store, cfg.clone());
    let mut first_mae: Option<f64> = None;
    let mut pacer = Pacer::new(args.seconds);
    for engine in engines(0, args.seed) {
        let what = format!("{} Trainer::run in a child process", engine.label());
        if let Some(peak) = ledger.op(&what, || child_peak(args, engine)) {
            out.push(format!("{}peak_rss_mb", prefix(engine, "dgl_")), "MB", peak);
        }
    }
    while let Some(rep) = pacer.next() {
        let mut secs = BTreeMap::new();
        let mut mae = BTreeMap::new();
        for engine in engines(rep, args.seed) {
            let label = format!("rep {rep} {} Trainer::run", engine.label());
            if let Some((s, _, hist)) = ledger.op(&label, || timed_run(w, ds, engine)) {
                out.push(format!("{}train_s", prefix(engine, "dgl_")), "s", s);
                secs.insert(engine.label(), s);
                mae.insert(engine.label(), final_mae(&hist));
            }
        }
        if let (Some(&m), Some(&d)) = (secs.get("Mega"), secs.get("DGL")) {
            eprintln!(
                "rep {rep}: {} first, mega {m:.3} s, dgl {d:.3} s",
                engines(rep, args.seed)[0].label()
            );
        }
        if let (Some(&m), Some(&d)) = (mae.get("Mega"), mae.get("DGL")) {
            out.push("val_mae", "MAE", m);
            eprintln!("rep {rep}: val_mae mega {m} dgl {d}");
            if let Err(e) = same_quality(m, d) {
                ledger.fail(&format!("rep {rep} Mega Trainer::run"), e);
            }
            // A fixed seed fixes the computation: every repetition must
            // reach the same MAE, bit for bit.
            match first_mae {
                None => first_mae = Some(m),
                Some(f) if f.to_bits() != m.to_bits() => ledger.fail(
                    &format!("rep {rep} Mega Trainer::run"),
                    format!("val_mae {m} differs from rep 0's {f}"),
                ),
                Some(_) => {}
            }
        }
        let eval = ledger.op(&format!("rep {rep} evaluation pass"), || {
            let mut built = None;
            for _ in 0..w.setups_per_rep {
                let (splits, s) = setup(w, ds, &mega)?;
                out.push("setup_s", "s", s);
                built = Some(splits);
            }
            let splits = built.ok_or("no set-up pass ran")?;
            same_messages(w, ds, &splits)?;
            let batches: Vec<Batch> = splits.into_iter().skip(1).flatten().collect();
            let graphs: usize = batches.iter().map(Batch::n_graphs).sum();
            let t = Instant::now();
            let (loss, metric) = mega.evaluate(&model, &store, &batches, ds.task);
            let s = t.elapsed().as_secs_f64();
            if !(loss.is_finite() && metric.is_finite()) {
                return Err(format!(
                    "non-finite evaluation loss {loss} or metric {metric}"
                ));
            }
            Ok(graphs as f64 / s)
        });
        if let Some(gps) = eval {
            out.push("eval_graphs_per_s", "graphs/s", gps);
        }
    }
    // The ratio of the run's medians: noise that hits single training runs
    // drops out of each median before the ratio is taken.
    let median_of = |name: &str| out.0.get(name).map(|(_, v)| median(v));
    if let (Some(m), Some(d)) = (median_of("train_s"), median_of("dgl_train_s")) {
        if m > 0.0 {
            out.push("mega_speedup", "x", d / m);
        }
    }
}

/// Per-layer metrics of one traced run of one engine.
fn layer_metrics(
    out: &mut Samples,
    prefix: &str,
    tracer: &Tracer,
    run: u32,
    r: &traced::TracedRun,
    engine: EngineChoice,
) {
    let s = tracer.summary(run);
    let get = |name: &str| s.get(name).copied().unwrap_or_default();
    let mut put =
        |name: &str, unit: &'static str, v: f64| out.push(format!("{prefix}{name}"), unit, v);
    if engine == EngineChoice::Mega {
        let p = &r.path;
        put("core.traverse_s", "s", get("core.traverse").secs);
        put("core.schedule_s", "s", get("core.schedule").secs);
        put(
            "core.expansion",
            "ratio",
            p.positions as f64 / p.nodes.max(1) as f64,
        );
        put(
            "core.revisit_excess",
            "ratio",
            p.revisits as f64 / p.revisit_bound.max(1) as f64,
        );
        put("core.virtual_edges", "count", p.virtual_edges as f64);
    }
    put("gnn.batch_s", "s", get("gnn.batch").secs);
    put("gnn.work_rows", "count", r.work_rows as f64);
    put("gnn.msgs", "count", r.msgs as f64);
    put("gnn.forward_s", "s", get("gnn.forward").secs);
    put("gnn.cost_model_s", "s", get("gnn.cost_model").secs);
    put("tensor.backward_s", "s", get("tensor.backward").secs);
    put("tensor.optim_s", "s", get("tensor.optim").secs);
    put(
        "tensor.overhead_s",
        "s",
        get("gnn.forward").self_secs + get("tensor.backward").self_secs,
    );
    let steps = r.steps.max(1) as f64;
    let mut class: BTreeMap<&str, trace::Totals> = BTreeMap::new();
    let mut all = trace::Totals::default();
    for (name, t) in &s {
        if let Some(c) = timing::class_of(name) {
            let e = class.entry(c).or_default();
            for acc in [e, &mut all] {
                acc.calls += t.calls;
                acc.secs += t.secs;
                acc.flops += t.flops;
                acc.step_calls += t.step_calls;
                acc.step_bytes += t.step_bytes;
            }
        }
    }
    put("exec.kernel_s", "s", all.secs);
    put("exec.calls", "count", all.step_calls as f64 / steps);
    for c in timing::CLASSES.iter().filter(|&&c| c != "prepack") {
        put(
            &format!("exec.{c}_s"),
            "s",
            class.get(c).map_or(0.0, |t| t.secs),
        );
    }
    let mm = class.get("matmul").copied().unwrap_or_default();
    put(
        "exec.matmul_gflops",
        "GF/s_computed",
        if mm.secs > 0.0 {
            mm.flops as f64 / mm.secs * 1e-9
        } else {
            0.0
        },
    );
    put(
        "exec.prepack_calls",
        "count",
        class.get("prepack").map_or(0, |t| t.step_calls) as f64 / steps,
    );
    put("exec.bytes", "B_computed", all.step_bytes as f64 / steps);
}

/// The traced repetitions: every per-layer metric.
fn traced_reps(args: &Args, ds: &Dataset, ledger: &mut Ledger, out: &mut Samples) {
    let w = args.workload;
    let cfg = w.config(ds);
    let tracer = Arc::new(Tracer::default());
    let mut pacer = Pacer::new(args.seconds);
    while let Some(rep) = pacer.next() {
        let mut runs = Vec::new();
        for engine in engines(rep, args.seed) {
            let prefix = prefix(engine, "dgl.");
            let plain = trainer(w, engine);
            let timed = timing::TimingBackend::new(plain.backend.clone(), tracer.clone());
            let traced_trainer = plain.with_backend(Arc::new(timed));
            let run = tracer.begin_run();
            let what = format!("rep {rep} {} traced run", engine.label());
            let Some(r) = ledger.op(&what, || {
                let r = traced::run(&traced_trainer, ds, cfg.clone(), &tracer);
                if r.path.partial_coverage > 0 {
                    return Err(format!(
                        "{} schedules cover fewer than all edges",
                        r.path.partial_coverage
                    ));
                }
                if !r
                    .train_losses
                    .iter()
                    .chain(&r.val_metrics)
                    .chain([&r.test_loss, &r.test_metric])
                    .all(|v| v.is_finite())
                {
                    return Err("non-finite loss or metric".into());
                }
                Ok(r)
            }) else {
                continue;
            };
            layer_metrics(out, prefix, &tracer, run, &r, engine);
            let traced_s = tracer.summary(run).get("train").map_or(0.0, |t| t.secs);
            let what = format!("rep {rep} {} Trainer::run", engine.label());
            if let Some((s, _, hist)) = ledger.op(&what, || timed_run(w, ds, engine)) {
                out.push(format!("{prefix}trace.overhead_s"), "s", traced_s - s);
                let plain: Vec<f64> = hist.records.iter().map(|r| r.train_loss).collect();
                let same = plain.len() == r.train_losses.len()
                    && plain
                        .iter()
                        .zip(&r.train_losses)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    ledger.fail(
                        &what,
                        format!("traced losses {:?} differ from {plain:?}", r.train_losses),
                    );
                }
            }
            runs.push((engine, r));
        }
        // Messages and quality must match across the engines.
        if let [(e0, r0), (_, r1)] = &runs[..] {
            let (m, d) = if *e0 == EngineChoice::Mega {
                (r0, r1)
            } else {
                (r1, r0)
            };
            let what = format!("rep {rep} Mega traced run");
            if m.msgs != d.msgs {
                ledger.fail(&what, format!("msgs {} vs dgl {}", m.msgs, d.msgs));
            }
            if let (Some(&a), Some(&b)) = (m.val_metrics.last(), d.val_metrics.last()) {
                if let Err(e) = same_quality(a, b) {
                    ledger.fail(&what, e);
                }
            }
        }
    }
    let file =
        std::path::Path::new("target/traces").join(format!("{}-seed{}.tsv", w.name, args.seed));
    match tracer.write_tsv(&file) {
        Ok(()) => eprintln!("wrote {} spans to {}", tracer.span_count(), file.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", file.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let ds = w.dataset(args.seed);
    if let Some(engine) = args.peak_of {
        match timed_run(w, &ds, engine) {
            Ok((_, peak, _)) => println!("{peak}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let mut ledger = Ledger::default();
    let mut samples = Samples::default();
    if args.trace {
        traced_reps(&args, &ds, &mut ledger, &mut samples);
    } else {
        end_to_end(&args, &ds, &mut ledger, &mut samples);
    }

    println!(
        "workload {} seed {} ({} train / {} val / {} test graphs, {} epochs, batch {})",
        w.name,
        args.seed,
        ds.train.len(),
        ds.val.len(),
        ds.test.len(),
        w.epochs,
        w.batch
    );
    let mut metrics = Vec::new();
    for (name, (unit, vals)) in &samples.0 {
        let m = median(vals);
        let (lo, hi) = vals
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
                (a.min(v), b.max(v))
            });
        println!(
            "  {name:<28} {m:>14.6} {unit:<14} median of n={} (min {lo:.6}, max {hi:.6})",
            vals.len()
        );
        metrics.push(format!(
            "\"{name}\": {{\"value\": {m:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let failed = ledger.failures.len() as u64;
    for (op, reasons) in &ledger.failures {
        println!("  FAILED {op}: {}", reasons.join("; "));
    }
    println!("  failure share {failed}/{} operations", ledger.attempted);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        ledger.attempted.max(1),
        metrics.join(", ")
    );
}
