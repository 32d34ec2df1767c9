//! The `exec` layer's timing decorator.
//!
//! [`TimingBackend`] wraps the trainer's backend and records one span per
//! kernel call, named after the kernel, with the call's analytic FLOPs and
//! bytes (computed from the launch shape, not measured). Every trait method
//! is overridden and forwarded to the wrapped backend: a method left to its
//! trait default would run `kernels::*` directly and silently change what
//! is measured. `tests::every_method_forwards` holds that line.

use crate::trace::Tracer;
use mega_core::band::BandMask;
use mega_core::Parallelism;
use mega_exec::{Backend, PackedB, Unary};
use std::sync::Arc;

const F32: u64 = 4;
const IDX: u64 = std::mem::size_of::<usize>() as u64;

/// Kernel classes the per-layer metrics report.
pub const CLASSES: [&str; 8] = [
    "matmul",
    "gather",
    "scatter",
    "softmax",
    "norm",
    "elementwise",
    "banded",
    "prepack",
];

/// The class of a kernel span name, or `None` for a non-kernel span.
pub fn class_of(span: &str) -> Option<&'static str> {
    Some(match span.strip_prefix("exec.")? {
        "matmul" | "matmul_packed" | "linear_relu" | "linear_relu_packed" | "linear_leaky_relu" => {
            "matmul"
        }
        "gather_rows" => "gather",
        "scatter_add_rows" => "scatter",
        "segment_softmax" => "softmax",
        "layer_norm" | "batch_norm" | "layer_norm_act" | "batch_norm_act" => "norm",
        "banded_aggregate" | "banded_weight_grad" => "banded",
        "prepack" => "prepack",
        _ => "elementwise",
    })
}

/// Forwards every kernel to `inner`, timing each call as a span.
#[derive(Debug)]
pub struct TimingBackend {
    inner: Arc<dyn Backend>,
    tracer: Arc<Tracer>,
}

impl TimingBackend {
    pub fn new(inner: Arc<dyn Backend>, tracer: Arc<Tracer>) -> Self {
        TimingBackend { inner, tracer }
    }
}

fn gemm(n: usize, k: usize, m: usize, epilogue_flops: u64) -> (u64, u64) {
    let (n, k, m) = (n as u64, k as u64, m as u64);
    (
        2 * n * k * m + epilogue_flops * n * m,
        F32 * (n * k + k * m + n * m),
    )
}

/// FLOPs and bytes of an elementwise kernel over `len` outputs that reads
/// `reads` input streams.
fn ew(len: usize, flops_per_elem: u64, reads: u64) -> (u64, u64) {
    let len = len as u64;
    (len * flops_per_elem, len * F32 * (reads + 1))
}

fn norm(rows: usize, cols: usize, flops_per_elem: u64) -> (u64, u64) {
    let len = (rows * cols) as u64;
    (flops_per_elem * len, F32 * (2 * len + 2 * cols as u64))
}

impl Backend for TimingBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn matmul(
        &self,
        a: &[f32],
        b: &[f32],
        n: usize,
        k: usize,
        m: usize,
        par: &Parallelism,
        out: &mut [f32],
    ) {
        let (f, by) = gemm(n, k, m, 0);
        self.tracer.measured("exec.matmul", f, by, || {
            self.inner.matmul(a, b, n, k, m, par, out)
        })
    }

    fn linear_relu(
        &self,
        x: &[f32],
        w: &[f32],
        bias: &[f32],
        n: usize,
        k: usize,
        m: usize,
        par: &Parallelism,
        out: &mut [f32],
    ) {
        let (f, by) = gemm(n, k, m, 2);
        self.tracer.measured("exec.linear_relu", f, by, || {
            self.inner.linear_relu(x, w, bias, n, k, m, par, out)
        })
    }

    fn supports_prepack(&self) -> bool {
        self.inner.supports_prepack()
    }

    fn prepack(&self, b: &[f32], k: usize, m: usize) -> Option<PackedB> {
        let by = F32 * 2 * (k * m) as u64;
        self.tracer
            .measured("exec.prepack", 0, by, || self.inner.prepack(b, k, m))
    }

    fn matmul_packed(
        &self,
        a: &[f32],
        packed: &PackedB,
        n: usize,
        par: &Parallelism,
        out: &mut [f32],
    ) {
        let (f, by) = gemm(n, packed.k(), packed.m(), 0);
        self.tracer.measured("exec.matmul_packed", f, by, || {
            self.inner.matmul_packed(a, packed, n, par, out)
        })
    }

    fn linear_relu_packed(
        &self,
        x: &[f32],
        packed: &PackedB,
        bias: &[f32],
        n: usize,
        par: &Parallelism,
        out: &mut [f32],
    ) {
        let (f, by) = gemm(n, packed.k(), packed.m(), 2);
        self.tracer.measured("exec.linear_relu_packed", f, by, || {
            self.inner.linear_relu_packed(x, packed, bias, n, par, out)
        })
    }

    fn linear_leaky_relu(
        &self,
        x: &[f32],
        w: &[f32],
        bias: &[f32],
        slope: f32,
        n: usize,
        k: usize,
        m: usize,
        par: &Parallelism,
        out: &mut [f32],
    ) {
        let (f, by) = gemm(n, k, m, 3);
        self.tracer.measured("exec.linear_leaky_relu", f, by, || {
            self.inner
                .linear_leaky_relu(x, w, bias, slope, n, k, m, par, out)
        })
    }

    fn add(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        let (f, by) = ew(out.len(), 1, 2);
        self.tracer
            .measured("exec.add", f, by, || self.inner.add(a, b, out))
    }

    fn sub(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        let (f, by) = ew(out.len(), 1, 2);
        self.tracer
            .measured("exec.sub", f, by, || self.inner.sub(a, b, out))
    }

    fn mul(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        let (f, by) = ew(out.len(), 1, 2);
        self.tracer
            .measured("exec.mul", f, by, || self.inner.mul(a, b, out))
    }

    fn scale(&self, a: &[f32], k: f32, out: &mut [f32]) {
        let (f, by) = ew(out.len(), 1, 1);
        self.tracer
            .measured("exec.scale", f, by, || self.inner.scale(a, k, out))
    }

    fn axpy(&self, a: &[f32], k: f32, b: &[f32], out: &mut [f32]) {
        let (f, by) = ew(out.len(), 2, 2);
        self.tracer
            .measured("exec.axpy", f, by, || self.inner.axpy(a, k, b, out))
    }

    fn add_bias_rows(&self, x: &[f32], bias: &[f32], n: usize, m: usize, out: &mut [f32]) {
        let (f, by) = ew(out.len(), 1, 1);
        self.tracer.measured("exec.add_bias_rows", f, by, || {
            self.inner.add_bias_rows(x, bias, n, m, out)
        })
    }

    fn unary(&self, op: Unary, x: &[f32], out: &mut [f32]) {
        let per = match op {
            Unary::Relu => 1,
            Unary::LeakyRelu(_) => 2,
            Unary::Sigmoid | Unary::Tanh => 8,
        };
        let (f, by) = ew(out.len(), per, 1);
        self.tracer
            .measured("exec.unary", f, by, || self.inner.unary(op, x, out))
    }

    fn gather_rows(
        &self,
        src: &[f32],
        src_rows: usize,
        cols: usize,
        index: &[usize],
        out: &mut [f32],
    ) {
        let by = index.len() as u64 * (2 * cols as u64 * F32 + IDX);
        self.tracer.measured("exec.gather_rows", 0, by, || {
            self.inner.gather_rows(src, src_rows, cols, index, out)
        })
    }

    fn scatter_add_rows(
        &self,
        src: &[f32],
        index: &[usize],
        cols: usize,
        out_rows: usize,
        out: &mut [f32],
    ) {
        let rows = index.len() as u64;
        let (f, by) = (rows * cols as u64, rows * (2 * cols as u64 * F32 + IDX));
        self.tracer.measured("exec.scatter_add_rows", f, by, || {
            self.inner.scatter_add_rows(src, index, cols, out_rows, out)
        })
    }

    fn scale_rows(&self, x: &[f32], factors: &[f32], cols: usize, out: &mut [f32]) {
        let (f, by) = ew(out.len(), 1, 1);
        self.tracer.measured("exec.scale_rows", f, by, || {
            self.inner.scale_rows(x, factors, cols, out)
        })
    }

    fn segment_softmax(
        &self,
        x: &[f32],
        rows: usize,
        cols: usize,
        segments: &[usize],
        n_segments: usize,
        out: &mut [f32],
    ) {
        let len = (rows * cols) as u64;
        let (f, by) = (12 * len, 2 * len * F32 + rows as u64 * IDX);
        self.tracer.measured("exec.segment_softmax", f, by, || {
            self.inner
                .segment_softmax(x, rows, cols, segments, n_segments, out)
        })
    }

    fn layer_norm(
        &self,
        x: &[f32],
        gamma: &[f32],
        beta: &[f32],
        rows: usize,
        cols: usize,
        eps: f32,
        out: &mut [f32],
    ) {
        let (f, by) = norm(rows, cols, 8);
        self.tracer.measured("exec.layer_norm", f, by, || {
            self.inner.layer_norm(x, gamma, beta, rows, cols, eps, out)
        })
    }

    fn batch_norm(
        &self,
        x: &[f32],
        gamma: &[f32],
        beta: &[f32],
        rows: usize,
        cols: usize,
        eps: f32,
        out: &mut [f32],
    ) {
        let (f, by) = norm(rows, cols, 8);
        self.tracer.measured("exec.batch_norm", f, by, || {
            self.inner.batch_norm(x, gamma, beta, rows, cols, eps, out)
        })
    }

    fn layer_norm_act(
        &self,
        x: &[f32],
        gamma: &[f32],
        beta: &[f32],
        rows: usize,
        cols: usize,
        eps: f32,
        act: Unary,
        out: &mut [f32],
    ) {
        let (f, by) = norm(rows, cols, 9);
        self.tracer.measured("exec.layer_norm_act", f, by, || {
            self.inner
                .layer_norm_act(x, gamma, beta, rows, cols, eps, act, out)
        })
    }

    fn batch_norm_act(
        &self,
        x: &[f32],
        gamma: &[f32],
        beta: &[f32],
        rows: usize,
        cols: usize,
        eps: f32,
        act: Unary,
        out: &mut [f32],
    ) {
        let (f, by) = norm(rows, cols, 9);
        self.tracer.measured("exec.batch_norm_act", f, by, || {
            self.inner
                .batch_norm_act(x, gamma, beta, rows, cols, eps, act, out)
        })
    }

    fn banded_aggregate(
        &self,
        band: &BandMask,
        x: &[f32],
        dim: usize,
        weights: &[f32],
        par: &Parallelism,
        out: &mut [f32],
    ) {
        let edges = band.covered_edge_count() as u64;
        let f = 4 * edges * dim as u64;
        let by = F32 * (2 * x.len() as u64 + edges + out.len() as u64);
        self.tracer.measured("exec.banded_aggregate", f, by, || {
            self.inner.banded_aggregate(band, x, dim, weights, par, out)
        })
    }

    fn banded_weight_grad(
        &self,
        band: &BandMask,
        x: &[f32],
        d_out: &[f32],
        dim: usize,
        edge_count: usize,
        par: &Parallelism,
        out: &mut [f32],
    ) {
        let edges = band.covered_edge_count() as u64;
        let f = 4 * edges * dim as u64;
        let by = F32 * (x.len() as u64 + d_out.len() as u64 + edge_count as u64);
        self.tracer.measured("exec.banded_weight_grad", f, by, || {
            self.inner
                .banded_weight_grad(band, x, d_out, dim, edge_count, par, out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_exec::ReferenceBackend;

    /// Calls every kernel method once through an outer decorator stacked
    /// on an inner one. The inner decorator records a span only when the
    /// outer forwarded the call to it under the same method; a method the
    /// outer left to its trait default would reach `kernels::*` instead
    /// and leave the inner one silent or record another name.
    #[test]
    fn every_method_forwards() {
        let inner_trace = Arc::new(Tracer::default());
        let outer_trace = Arc::new(Tracer::default());
        let run = inner_trace.begin_run();
        outer_trace.begin_run();
        let inner: Arc<dyn Backend> = Arc::new(TimingBackend::new(
            Arc::new(ReferenceBackend),
            inner_trace.clone(),
        ));
        let b = TimingBackend::new(inner, outer_trace.clone());
        let par = Parallelism::with_threads(1);
        let x = [1.0f32, -2.0, 3.0, 0.5];
        let y = [0.25f32, 1.0, -1.0, 2.0];
        let bias = [0.5f32, -0.5];
        let mut out = [0.0f32; 4];
        let mut expect: Vec<&str> = Vec::new();
        let mut call = |name: &'static str, f: &mut dyn FnMut()| {
            f();
            expect.push(name);
        };
        call("exec.matmul", &mut || {
            b.matmul(&x, &y, 2, 2, 2, &par, &mut out)
        });
        call("exec.linear_relu", &mut || {
            b.linear_relu(&x, &y, &bias, 2, 2, 2, &par, &mut out)
        });
        call("exec.linear_leaky_relu", &mut || {
            b.linear_leaky_relu(&x, &y, &bias, 0.1, 2, 2, 2, &par, &mut out)
        });
        call("exec.add", &mut || b.add(&x, &y, &mut out));
        call("exec.sub", &mut || b.sub(&x, &y, &mut out));
        call("exec.mul", &mut || b.mul(&x, &y, &mut out));
        call("exec.scale", &mut || b.scale(&x, 2.0, &mut out));
        call("exec.axpy", &mut || b.axpy(&x, 2.0, &y, &mut out));
        call("exec.add_bias_rows", &mut || {
            b.add_bias_rows(&x, &bias, 2, 2, &mut out)
        });
        call("exec.unary", &mut || b.unary(Unary::Tanh, &x, &mut out));
        call("exec.gather_rows", &mut || {
            b.gather_rows(&x, 2, 2, &[1, 0], &mut out)
        });
        call("exec.scatter_add_rows", &mut || {
            b.scatter_add_rows(&x, &[1, 1], 2, 2, &mut out)
        });
        call("exec.scale_rows", &mut || {
            b.scale_rows(&x, &[2.0, 3.0], 2, &mut out)
        });
        call("exec.segment_softmax", &mut || {
            b.segment_softmax(&x, 2, 2, &[0, 0], 1, &mut out)
        });
        call("exec.layer_norm", &mut || {
            b.layer_norm(&x, &bias, &bias, 2, 2, 1e-5, &mut out)
        });
        call("exec.batch_norm", &mut || {
            b.batch_norm(&x, &bias, &bias, 2, 2, 1e-5, &mut out)
        });
        call("exec.layer_norm_act", &mut || {
            b.layer_norm_act(&x, &bias, &bias, 2, 2, 1e-5, Unary::Relu, &mut out)
        });
        call("exec.batch_norm_act", &mut || {
            b.batch_norm_act(&x, &bias, &bias, 2, 2, 1e-5, Unary::Relu, &mut out)
        });
        // A packing backend exercises the packed GEMMs; the reference one
        // declines to pack, which must be forwarded too.
        assert_eq!(b.supports_prepack(), ReferenceBackend.supports_prepack());
        call("exec.prepack", &mut || {
            assert!(b.prepack(&y, 2, 2).is_none())
        });
        let g = mega_graph::generate::cycle(4).unwrap();
        let sched = mega_core::preprocess(&g, &mega_core::MegaConfig::default()).unwrap();
        let band = sched.band();
        let rows = vec![1.0f32; band.len() * 2];
        let weights = vec![0.5f32; g.edge_count()];
        call("exec.banded_aggregate", &mut || {
            let mut o = vec![0.0f32; rows.len()];
            b.banded_aggregate(band, &rows, 2, &weights, &par, &mut o)
        });
        call("exec.banded_weight_grad", &mut || {
            let mut o = vec![0.0f32; g.edge_count()];
            b.banded_weight_grad(band, &rows, &rows, 2, g.edge_count(), &par, &mut o)
        });
        assert_eq!(b.name(), "reference");

        let seen = |t: &Tracer| -> Vec<&'static str> { t.summary(run).into_keys().collect() };
        expect.sort_unstable();
        assert_eq!(seen(&outer_trace), expect);
        assert_eq!(seen(&inner_trace), expect, "a method was not forwarded");
        for (name, t) in inner_trace.summary(run) {
            assert_eq!(t.calls, 1, "{name} forwarded {} times", t.calls);
        }
    }

    #[test]
    fn packed_gemms_forward() {
        let inner_trace = Arc::new(Tracer::default());
        let run = inner_trace.begin_run();
        let inner: Arc<dyn Backend> = Arc::new(TimingBackend::new(
            Arc::new(mega_exec::SimdBackend::new()),
            inner_trace.clone(),
        ));
        let b = TimingBackend::new(inner, Arc::new(Tracer::default()));
        let par = Parallelism::with_threads(1);
        let x = [1.0f32, -2.0, 3.0, 0.5];
        let y = [0.25f32, 1.0, -1.0, 2.0];
        let mut out = [0.0f32; 4];
        assert!(b.supports_prepack());
        let packed = b.prepack(&y, 2, 2).expect("simd packs");
        b.matmul_packed(&x, &packed, 2, &par, &mut out);
        b.linear_relu_packed(&x, &packed, &[0.0, 0.0], 2, &par, &mut out);
        let s = inner_trace.summary(run);
        for name in [
            "exec.prepack",
            "exec.matmul_packed",
            "exec.linear_relu_packed",
        ] {
            assert_eq!(s.get(name).map(|t| t.calls), Some(1), "{name}");
        }
    }
}
