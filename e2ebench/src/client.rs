//! The client: one thread keeps a fixed number of operations outstanding
//! and redeems the oldest before submitting the next (a closed loop, as a
//! Spinel host that waits for each reply). Every run attempts whole rounds
//! of the workload's operation mix, so the share of each operation kind is
//! the same in every run.

use qt_rng_service::{
    block_on, AsyncTicket, ClientId, Completion, MixedTicket, Priority, ServiceStats, Ticket,
    Trng128, Trng32,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::check::{check_trng128, check_trng32, FrameRecord, MixedRecord, Received};
use crate::setup::{Characterized, Setup, ShardSpec, ShardTrace, Workload};
use crate::stats::SplitMix;

/// One client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A plain `Priority::Normal` read redeemed with `Ticket::wait`.
    Read(usize),
    /// A 4-byte `Priority::High` request redeemed with `Ticket::wait` and
    /// framed as `Trng32`.
    Trng32,
    /// A 16-byte `Priority::Normal` request redeemed through `AsyncTicket`
    /// + `block_on` and framed as `Trng128`.
    Trng128,
    /// A 16-byte `submit_mixed` request redeemed with `MixedTicket::wait`.
    Mixed16,
}

impl OpKind {
    /// Bytes the client asks for.
    pub fn len(self) -> usize {
        match self {
            OpKind::Read(len) => len,
            OpKind::Trng32 => 4,
            OpKind::Trng128 | OpKind::Mixed16 => 16,
        }
    }

    /// Scheduling priority.
    pub fn priority(self) -> Priority {
        match self {
            OpKind::Trng32 => Priority::High,
            _ => Priority::Normal,
        }
    }

    /// Report label.
    pub fn label(self) -> String {
        match self {
            OpKind::Read(len) => format!("read {} KiB", len >> 10),
            OpKind::Trng32 => "Trng32".into(),
            OpKind::Trng128 => "Trng128".into(),
            OpKind::Mixed16 => "mixed 16 B".into(),
        }
    }
}

/// The operations of one round of a workload (shuffled per round).
pub fn round(workload: Workload) -> Vec<OpKind> {
    match workload {
        Workload::Bulk64k => vec![OpKind::Read(64 << 10)],
        Workload::Validated16k => vec![OpKind::Read(16 << 10)],
        Workload::SpinelFrames => {
            let mut ops = vec![OpKind::Trng32; 4];
            ops.extend([OpKind::Trng128; 3]);
            ops.push(OpKind::Mixed16);
            ops
        }
    }
}

/// Operations kept outstanding.
pub fn outstanding(workload: Workload) -> usize {
    match workload {
        Workload::Bulk64k => 4,
        Workload::Validated16k => 8,
        Workload::SpinelFrames => 64,
    }
}

/// When a run stops attempting new rounds.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much wall time (finishing the round under way).
    Seconds(f64),
    /// After this many rounds.
    Rounds(u64),
}

/// Target length of a measurement slice, s: long enough to hold a few
/// hundred operations of the workload.
pub fn slice_target_s(workload: Workload) -> f64 {
    match workload {
        Workload::Bulk64k | Workload::SpinelFrames => 0.5,
        Workload::Validated16k => 1.0,
    }
}

/// The operations redeemed within one slice of the window.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Operations redeemed (succeeded or failed).
    pub ops: u64,
    /// Bytes delivered by operations that succeeded.
    pub bytes_ok: u64,
    /// Submit → redeemed latency of operations that succeeded, µs.
    pub latencies_us: Vec<f64>,
    /// CPU time the hypervisor stole from this machine during the slice,
    /// in `/proc/stat` ticks (0 where `/proc/stat` cannot be read).
    pub steal_ticks: u64,
}

/// Steal time of the whole machine so far, in `/proc/stat` ticks.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.split_whitespace().collect::<Vec<_>>();
            (cpu.first() == Some(&"cpu")).then_some(())?;
            cpu.get(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Every 8th sample of a span is kept for its median; totals count all.
const SPAN_SAMPLE_EVERY: u64 = 8;

/// One kind of client-side span.
#[derive(Debug, Default)]
pub struct Span {
    /// Calls.
    pub count: u64,
    /// Summed duration, in the span's unit.
    pub total: f64,
    /// Every [`SPAN_SAMPLE_EVERY`]th duration.
    pub samples: Vec<f64>,
}

impl Span {
    fn record(&mut self, value: f64) {
        if self.count % SPAN_SAMPLE_EVERY == 0 {
            self.samples.push(value);
        }
        self.count += 1;
        self.total += value;
    }
}

/// Client-side spans of a traced run.
#[derive(Debug, Default)]
pub struct Spans {
    /// `RngService::submit`, µs.
    pub submit_us: Span,
    /// `RngService::submit_mixed`, µs.
    pub submit_mixed_us: Span,
    /// `Ticket::wait`, µs.
    pub ticket_wait_us: Span,
    /// `block_on(AsyncTicket)`, µs.
    pub block_on_us: Span,
    /// `MixedTicket::wait` (includes `mixer::mix`), µs.
    pub mixed_wait_us: Span,
    /// `Trng32`/`Trng128::from_completion`, ns.
    pub frame_ns: Span,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// The workload.
    pub workload: Workload,
    /// The characterised module (for the reference streams).
    pub module: Characterized,
    /// How each shard was built.
    pub plan: Vec<ShardSpec>,
    /// Wrapper counters (traced runs).
    pub traces: Option<Vec<Arc<ShardTrace>>>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Rounds attempted.
    pub rounds: u64,
    /// From the first submission to the last redemption.
    pub wall_s: f64,
    /// From the first submission to the end of the service's shutdown
    /// (which waits for the validator to grade what was tapped).
    pub drained_s: f64,
    /// The window cut into equal slices of about [`slice_target_s`], each
    /// holding the operations redeemed in it (the drain after the window is
    /// left out).
    pub slices: Vec<Slice>,
    /// Length of one slice, s.
    pub slice_s: f64,
    /// Each shard's stream as received (mixed halves included).
    pub received: Vec<Received>,
    /// Every built frame, for the checksum check.
    pub frames: Vec<FrameRecord>,
    /// Frames refused for want of fresh bits (each checked as redeemed).
    pub refused: u64,
    /// Every mixed completion.
    pub mixed: Vec<MixedRecord>,
    /// Frames whose payload, telemetry or refusal did not match their
    /// completion.
    pub frame_errors: Vec<String>,
    /// Client spans (traced runs).
    pub spans: Option<Spans>,
    /// The service's counters after shutdown.
    pub stats: ServiceStats,
    /// Unexpected operation failures (a sound run has none).
    pub errors: Vec<String>,
}

impl RunOutput {
    /// The slices the end-to-end metrics are taken over: those during which
    /// the hypervisor stole no CPU time from the machine, or, if fewer than
    /// a quarter of the slices (at least 3) were that calm, that many of the
    /// calmest, in time order. On a shared virtual machine stolen time comes
    /// in bursts that stall every thread, and a single 10 ms burst moves a
    /// slice's p99; leaving those slices out measures the code rather than
    /// its neighbours.
    pub fn calm_slices(&self) -> Vec<&Slice> {
        let mut slices: Vec<(usize, &Slice)> = self.slices.iter().enumerate().collect();
        slices.sort_by_key(|(_, s)| s.steal_ticks);
        let calm = slices.iter().filter(|(_, s)| s.steal_ticks == 0).count();
        let keep = calm.max((slices.len() / 4).max(3)).min(slices.len());
        slices.truncate(keep);
        // Back in time order.
        slices.sort_by_key(|&(i, _)| i);
        slices.into_iter().map(|(_, s)| s).collect()
    }
}

enum Pending {
    Plain(Ticket),
    Async(AsyncTicket),
    Mixed(MixedTicket),
}

struct InFlight {
    kind: OpKind,
    submitted: Instant,
    pending: Pending,
}

struct Client<'a> {
    setup: &'a Setup,
    start: Instant,
    /// The slice under way and the steal counter when it began.
    slice_at: (usize, u64),
    out: RunOutput,
}

fn timed<T>(
    spans: &mut Option<Spans>,
    pick: fn(&mut Spans) -> &mut Span,
    scale: f64,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        None => f(),
        Some(spans) => {
            let t = Instant::now();
            let value = f();
            pick(spans).record(t.elapsed().as_secs_f64() * scale);
            value
        }
    }
}

impl Client<'_> {
    fn submit(&mut self, kind: OpKind) -> Option<InFlight> {
        let service = &self.setup.service;
        let submitted = Instant::now();
        let spans = &mut self.out.spans;
        let pending = match kind {
            OpKind::Mixed16 => timed(
                spans,
                |s| &mut s.submit_mixed_us,
                1e6,
                || service.submit_mixed(ClientId(0), kind.priority(), kind.len()),
            )
            .map(Pending::Mixed),
            _ => timed(
                spans,
                |s| &mut s.submit_us,
                1e6,
                || service.submit(ClientId(0), kind.priority(), kind.len()),
            )
            .map(|t| {
                if kind == OpKind::Trng128 {
                    Pending::Async(AsyncTicket::from(t))
                } else {
                    Pending::Plain(t)
                }
            }),
        };
        match pending {
            Ok(pending) => Some(InFlight {
                kind,
                submitted,
                pending,
            }),
            Err(e) => {
                self.out.failed += 1;
                self.out
                    .errors
                    .push(format!("{}: submit failed: {e:?}", kind.label()));
                None
            }
        }
    }

    fn record(&mut self, c: &Completion) {
        self.out.received[c.shard].push(c);
    }

    fn check_frame(&mut self, check: Result<Option<FrameRecord>, String>) {
        match check {
            Ok(Some(record)) => self.out.frames.push(record),
            Ok(None) => self.out.refused += 1,
            Err(e) => self.out.frame_errors.push(e),
        }
    }

    /// Redeems one operation; `Some(bytes)` when it succeeded.
    fn redeem(&mut self, op: InFlight) -> Option<usize> {
        let spans = &mut self.out.spans;
        match op.pending {
            Pending::Mixed(t) => match timed(spans, |s| &mut s.mixed_wait_us, 1e6, || t.wait()) {
                Ok(m) => {
                    self.record(&m.first);
                    self.record(&m.second);
                    self.out.mixed.push(MixedRecord::of(&m));
                    Some(m.bytes.len())
                }
                Err(e) => {
                    self.out.errors.push(format!("mixed wait failed: {e}"));
                    None
                }
            },
            Pending::Async(t) => {
                let result = timed(spans, |s| &mut s.block_on_us, 1e6, || block_on(t));
                self.framed(op.kind, result)
            }
            Pending::Plain(t) => {
                let result = timed(spans, |s| &mut s.ticket_wait_us, 1e6, || t.wait());
                self.framed(op.kind, result)
            }
        }
    }

    fn framed(
        &mut self,
        kind: OpKind,
        result: Result<Completion, qt_rng_service::WaitError>,
    ) -> Option<usize> {
        let c = match result {
            Ok(c) => c,
            Err(e) => {
                self.out
                    .errors
                    .push(format!("{} wait failed: {e}", kind.label()));
                return None;
            }
        };
        self.record(&c);
        let spans = &mut self.out.spans;
        match kind {
            OpKind::Read(_) => Some(c.bytes.len()),
            OpKind::Trng32 => {
                let frame = timed(
                    spans,
                    |s| &mut s.frame_ns,
                    1e9,
                    || Trng32::from_completion(&c),
                );
                self.check_frame(check_trng32(&c, frame.as_ref().map_err(|e| *e)));
                frame.ok().map(|_| 4)
            }
            OpKind::Trng128 => {
                let frame = timed(
                    spans,
                    |s| &mut s.frame_ns,
                    1e9,
                    || Trng128::from_completion(&c),
                );
                self.check_frame(check_trng128(&c, frame.as_ref().map_err(|e| *e)));
                frame.ok().map(|_| 16)
            }
            OpKind::Mixed16 => unreachable!("mixed operations are redeemed as mixed tickets"),
        }
    }

    /// Charges the steal since the slice under way began to it, and starts
    /// slice `next`.
    fn close_slice(&mut self, next: usize) {
        let steal = steal_ticks();
        if let Some(slice) = self.out.slices.get_mut(self.slice_at.0) {
            slice.steal_ticks = steal - self.slice_at.1;
        }
        self.slice_at = (next, steal);
    }

    fn finish(&mut self, op: InFlight) {
        let submitted = op.submitted;
        let outcome = self.redeem(op);
        let now = Instant::now();
        let index = ((now - self.start).as_secs_f64() / self.out.slice_s) as usize;
        if index != self.slice_at.0 {
            self.close_slice(index);
        }
        let mut slice = self.out.slices.get_mut(index);
        if let Some(slice) = slice.as_deref_mut() {
            slice.ops += 1;
        }
        match outcome {
            Some(bytes) => {
                if let Some(slice) = slice {
                    slice.bytes_ok += bytes as u64;
                    slice
                        .latencies_us
                        .push((now - submitted).as_secs_f64() * 1e6);
                }
            }
            None => self.out.failed += 1,
        }
    }
}

/// Runs the workload's closed loop on a started service until `stop`, then
/// shuts the service down.
pub fn run(setup: Setup, seed: u64, stop: Stop, traced: bool) -> RunOutput {
    let workload = setup.workload;
    let shards = setup.plan.len();
    let (slices, slice_s) = match stop {
        Stop::Seconds(s) => {
            let n = (s / slice_target_s(workload)).floor().max(1.0);
            (n as usize, s / n)
        }
        Stop::Rounds(_) => (1, f64::INFINITY),
    };
    let start = Instant::now();
    let mut client = Client {
        setup: &setup,
        start,
        slice_at: (0, steal_ticks()),
        out: RunOutput {
            workload,
            module: setup.module.clone(),
            plan: setup.plan.clone(),
            traces: setup.traces.clone(),
            attempted: 0,
            failed: 0,
            rounds: 0,
            wall_s: 0.0,
            drained_s: 0.0,
            slices: vec![Slice::default(); slices],
            slice_s,
            received: (0..shards)
                .map(|shard| Received::new(shard, workload == Workload::SpinelFrames))
                .collect(),
            frames: Vec::new(),
            refused: 0,
            mixed: Vec::new(),
            frame_errors: Vec::new(),
            spans: traced.then(Spans::default),
            stats: ServiceStats::default(),
            errors: Vec::new(),
        },
    };
    // The order of operations inside each round comes from the seed.
    let mut rng = SplitMix(seed ^ 0x0005_EED0_F0B5);
    let k = outstanding(workload);
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(k);
    let deadline = match stop {
        Stop::Seconds(s) => Some(start + Duration::from_secs_f64(s)),
        Stop::Rounds(_) => None,
    };
    loop {
        let mut ops = round(workload);
        rng.shuffle(&mut ops);
        for kind in ops {
            if in_flight.len() >= k {
                let op = in_flight.pop_front().expect("non-empty");
                client.finish(op);
            }
            client.out.attempted += 1;
            if let Some(op) = client.submit(kind) {
                in_flight.push_back(op);
            }
        }
        client.out.rounds += 1;
        let done = match stop {
            Stop::Seconds(_) => Instant::now() >= deadline.expect("seconds stop"),
            Stop::Rounds(n) => client.out.rounds >= n,
        };
        if done {
            break;
        }
    }
    while let Some(op) = in_flight.pop_front() {
        client.finish(op);
    }
    client.close_slice(usize::MAX);
    client.out.wall_s = start.elapsed().as_secs_f64();
    let mut out = client.out;
    out.stats = setup.service.shutdown();
    out.drained_s = start.elapsed().as_secs_f64();
    out
}
