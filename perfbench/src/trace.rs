//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end (ns since
//! the tracer was created), the span that was open when it started, and the
//! run it belongs to. Spans stay in memory until the run ends; then
//! [`Tracer::summary`] folds them into per-name totals and self times, and
//! [`Tracer::write_tsv`] writes them out.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
    /// Analytic work of a kernel span (0 for layer spans).
    pub flops: u64,
    /// Analytic bytes moved by a kernel span (0 for layer spans).
    pub bytes: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

/// Records spans from the benchmark's own call sites (layer boundaries) and
/// from the timing backend (kernels).
#[derive(Debug)]
pub struct Tracer {
    origin: mega_obs::Stopwatch,
    state: Mutex<State>,
}

/// Per-name totals over one run's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    /// Inclusive seconds.
    pub secs: f64,
    /// Seconds not covered by child spans.
    pub self_secs: f64,
    pub flops: u64,
    /// Calls made inside a `step` span (one training step).
    pub step_calls: u64,
    /// Bytes moved inside a `step` span.
    pub step_bytes: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: mega_obs::Stopwatch::start(),
            state: Mutex::new(State::default()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A panic inside a traced call poisons the lock; the spans recorded
        // so far are still valid.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Starts a new run id: later spans belong to it.
    pub fn begin_run(&self) -> u32 {
        let mut st = self.lock();
        st.run += 1;
        st.open.clear();
        st.run
    }

    /// Times `f` as a span named `name`, nested under the open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.measured(name, 0, 0, f)
    }

    /// Times `f` as a span carrying analytic `flops` and `bytes`.
    pub fn measured<R>(
        &self,
        name: &'static str,
        flops: u64,
        bytes: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = {
            let mut st = self.lock();
            let parent = st.open.last().copied();
            let run = st.run;
            let id = st.spans.len();
            st.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                run,
                flops,
                bytes,
            });
            st.open.push(id);
            id
        };
        // Take the clock outside the lock, so the span covers `f` alone.
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut st = self.lock();
        st.spans[id].start_ns = start;
        st.spans[id].end_ns = end;
        if st.open.last() == Some(&id) {
            st.open.pop();
        }
        out
    }

    /// Per-name totals over the spans of `run`.
    pub fn summary(&self, run: u32) -> BTreeMap<&'static str, Totals> {
        let st = self.lock();
        let spans = &st.spans;
        let mut child_ns = vec![0u64; spans.len()];
        let mut in_step = vec![false; spans.len()];
        // Parents are pushed before their children, so one forward pass
        // settles step membership and one pass charges children to parents.
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                in_step[i] = in_step[p] || spans[p].name == "step";
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.run == run) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.secs += s.ns() as f64 * 1e-9;
            t.self_secs += s.ns().saturating_sub(child_ns[i]) as f64 * 1e-9;
            t.flops += s.flops;
            if in_step[i] {
                t.step_calls += 1;
                t.step_bytes += s.bytes;
            }
        }
        out
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.lock().spans.len()
    }

    /// Writes every span as one tab-separated line:
    /// `run id name start_ns end_ns parent flops bytes`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let st = self.lock();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "run\tid\tname\tstart_ns\tend_ns\tparent\tflops\tbytes")?;
        for (i, s) in st.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{}\t{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.run, s.name, s.start_ns, s.end_ns, s.flops, s.bytes
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::default();
        let run = t.begin_run();
        t.span("step", || {
            t.span("gnn.forward", || {
                t.measured("exec.matmul", 10, 20, || {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                });
            })
        });
        let s = t.summary(run);
        let fwd = s["gnn.forward"];
        let mm = s["exec.matmul"];
        assert!(fwd.secs >= mm.secs);
        assert!((fwd.self_secs - (fwd.secs - mm.secs)).abs() < 1e-9);
        assert_eq!((mm.flops, mm.step_calls, mm.step_bytes), (10, 1, 20));
        assert_eq!(s["step"].step_calls, 0, "a step is not inside itself");
    }
}
