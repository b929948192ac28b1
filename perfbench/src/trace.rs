//! Spans around every call the benchmark makes into a layer.
//!
//! A span records its layer call name, the op it belongs to, whether
//! it is that op's root, its wall-clock start, and its duration on both
//! clocks: the client thread's CPU time and wall time. Spans stay in
//! memory and are written out when the run ends. A root span's self
//! time is its duration minus the durations of its children; layer
//! spans have no children the benchmark can see.
//!
//! Durations are read on the CPU clock (see [`crate::host::thread_cpu_s`]),
//! except for store ops, whose syncs block on the device and are read
//! on the wall clock.

use crate::host::thread_cpu_s;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What an op was; per-layer figures are aggregated per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Setup,
    Read,
    Write,
    Store,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Setup => "setup",
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Store => "store",
        }
    }
}

/// Name of the root span of every op.
pub const ROOT: &str = "op";

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    kind: Kind,
    op: u64,
    start_ns: u64,
    wall_ns: u64,
    cpu_ns: u64,
}

impl Span {
    /// Duration in seconds on the clock that suits its kind.
    fn secs(&self) -> f64 {
        let ns = if self.kind == Kind::Store {
            self.wall_ns
        } else {
            self.cpu_ns
        };
        ns as f64 * 1e-9
    }
}

/// Span recorder; a disabled tracer records nothing and reads no clock.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    next_op: u64,
}

/// An open root span.
pub struct OpSpan {
    kind: Kind,
    op: u64,
    start: Option<(Instant, f64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }

    /// Opens the root span of a new op.
    pub fn begin(&mut self, kind: Kind) -> OpSpan {
        let op = self.next_op;
        self.next_op += 1;
        OpSpan {
            kind,
            op,
            start: self.on.then(|| (Instant::now(), thread_cpu_s())),
        }
    }

    /// Closes a root span.
    pub fn end(&mut self, span: OpSpan) {
        if let Some(start) = span.start {
            self.push(ROOT, span.kind, span.op, start);
        }
    }

    /// Runs `f` as the call `name` inside op `parent`.
    pub fn call<T>(&mut self, parent: &OpSpan, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = (Instant::now(), thread_cpu_s());
        let out = f();
        self.push(name, parent.kind, parent.op, start);
        out
    }

    fn push(&mut self, name: &'static str, kind: Kind, op: u64, start: (Instant, f64)) {
        let cpu_s = thread_cpu_s() - start.1;
        let now = Instant::now();
        self.spans.push(Span {
            name,
            kind,
            op,
            start_ns: start.0.duration_since(self.epoch).as_nanos() as u64,
            wall_ns: now.duration_since(start.0).as_nanos() as u64,
            cpu_ns: (cpu_s * 1e9) as u64,
        });
    }

    /// Per-call durations in seconds of `name` within ops of `kind`.
    pub fn durations(&self, kind: Kind, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.kind == kind && s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total self time in seconds of `name` within ops of `kind`: for a
    /// root, its duration less its children's.
    pub fn self_time(&self, kind: Kind, name: &str) -> f64 {
        let own: f64 = self.durations(kind, name).iter().sum();
        if name != ROOT {
            return own;
        }
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.kind == kind && s.name != ROOT)
            .map(Span::secs)
            .sum();
        (own - children).max(0.0)
    }

    /// Total time in seconds of every op of `kind` (root spans).
    pub fn op_time(&self, kind: Kind) -> f64 {
        self.durations(kind, ROOT).iter().sum()
    }

    /// Number of spans recorded.
    pub fn spans(&self) -> usize {
        self.spans.len()
    }

    /// CPU seconds one recorded span costs the client thread, measured
    /// by recording spans around an empty call. Comparing a traced with
    /// an untraced pass instead would drown this cost in pass-to-pass
    /// noise, which reaches 20 % on a shared host.
    pub fn span_cost_s() -> f64 {
        const N: u32 = 20_000;
        let mut probe = Tracer::new(true);
        probe.spans.reserve(N as usize);
        let start = thread_cpu_s();
        for _ in 0..N / 2 {
            let op = probe.begin(Kind::Read);
            probe.call(&op, ROOT, || ());
            probe.end(op);
        }
        (thread_cpu_s() - start) / f64::from(N)
    }

    /// Writes every span as tab-separated text.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tkind\tname\tstart_ns\twall_ns\tcpu_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.op,
                s.kind.name(),
                s.name,
                s.start_ns,
                s.wall_ns,
                s.cpu_ns
            )?;
        }
        out.flush()
    }
}
