//! The human-readable ledger a traced run prints before its JSON line:
//! the traffic actually generated, where the client's and the workers'
//! time went, the generation replay against `fill_bytes`, tracing overhead,
//! and the modelled hardware figures beside the software ones.

use qt_crypto::Sha256HardwareCost;
use qt_dram_analog::PAPER_MODULES;
use quac_trng::ThroughputModel;
use std::sync::atomic::Ordering;

use crate::client::{self, RunOutput};
use crate::layers::{self, Metrics};
use crate::setup::Workload;
use crate::stats::{median, percentile};
use crate::verify::Verified;

/// The replayed sampler + extraction + SHA time must land within this share
/// of `fill_bytes` over the same iterations.
pub const REPLAY_TOLERANCE: f64 = 0.10;

/// The paper's headline RC+BGP rate per channel (Figure 11), Gb/s.
const PAPER_GBPS: f64 = 3.44;

fn get(m: &Metrics, name: &str) -> f64 {
    m.get(name).map_or(f64::NAN, |v| v.0)
}

fn pct(part: f64, whole: f64) -> String {
    format!("{:5.1} %", 100.0 * part / whole)
}

/// Prints the traced run's ledger.
#[allow(clippy::too_many_arguments)]
pub fn print(
    plain_e2e: &Metrics,
    traced: &RunOutput,
    traced_e2e: &Metrics,
    verified: &Verified,
    layer_metrics: &Metrics,
    probed: &[(String, Workload)],
) {
    let w = traced.workload.name();
    println!(
        "== {w}: traced window {:.2} s, {} rounds ==",
        traced.wall_s, traced.rounds
    );

    println!("-- traffic generated");
    let ops = client::round(traced.workload);
    let mut kinds = ops.clone();
    kinds.dedup();
    for kind in kinds {
        let n = ops.iter().filter(|&&k| k == kind).count() as u64 * traced.rounds;
        println!(
            "  {:<12} {:>9} ops  {:>6} B  {:?}",
            kind.label(),
            n,
            kind.len(),
            kind.priority()
        );
    }
    let calls: Vec<u64> = traced
        .traces
        .iter()
        .flatten()
        .map(|t| t.calls.load(Ordering::Relaxed))
        .collect();
    for (shard, spec) in traced.plan.iter().enumerate() {
        let requests = traced.received[shard].completions;
        let batches = calls.get(shard).copied().unwrap_or(0);
        println!(
            "  shard {shard} {:<7} {:>12} B  {:>8} batches  {:>9} requests  {:>6.2} requests/batch",
            spec.label(),
            traced.stats.per_shard_bytes[shard],
            batches,
            requests,
            requests as f64 / batches.max(1) as f64
        );
    }
    println!(
        "  frames refused for want of fresh bits: {} of {}",
        traced.refused,
        traced.refused + traced.frames.len() as u64
    );

    println!(
        "-- client thread, share of the {:.2} s window",
        traced.wall_s
    );
    let wall_us = traced.wall_s * 1e6;
    let mut attributed = 0.0;
    if let Some(s) = &traced.spans {
        for (name, span, to_us) in [
            ("submit", &s.submit_us, 1.0),
            ("submit_mixed", &s.submit_mixed_us, 1.0),
            ("Ticket::wait", &s.ticket_wait_us, 1.0),
            ("block_on", &s.block_on_us, 1.0),
            ("MixedTicket::wait", &s.mixed_wait_us, 1.0),
            ("frame", &s.frame_ns, 1e-3),
        ] {
            let total = span.total * to_us;
            attributed += total;
            if span.count > 0 {
                println!(
                    "  {name:<18} {}  (p50 {:.3} µs over {} calls)",
                    pct(total, wall_us),
                    median(&span.samples) * to_us,
                    span.count
                );
            }
        }
    }
    println!(
        "  {:<18} {}",
        "unattributed",
        pct(wall_us - attributed, wall_us)
    );

    println!("-- workers, share of the window");
    for (shard, trace) in traced.traces.iter().flatten().enumerate() {
        let busy = trace.busy_ns.load(Ordering::Relaxed) as f64 / 1e3;
        println!(
            "  shard {shard} fill_bytes {}   service + idle {}",
            pct(busy, wall_us),
            pct(wall_us - busy, wall_us)
        );
    }

    if let Some(r) = &verified.replay {
        let stages = r.stages_ns_per_iter();
        let sha = r.digest_ns_per_digest * r.digests_per_iter as f64;
        println!(
            "-- generation replay of shard 0, {} iterations ({} digests each)",
            r.iterations, r.digests_per_iter
        );
        println!(
            "  sample_compact_into {:>9.1} ns/iter  {}",
            r.sample_ns_per_iter,
            pct(r.sample_ns_per_iter, r.fill_ns_per_iter)
        );
        println!(
            "  extract_bytes_into  {:>9.1} ns/iter  {}",
            r.extract_ns_per_iter,
            pct(r.extract_ns_per_iter, r.fill_ns_per_iter)
        );
        println!(
            "  digest_many_into    {:>9.1} ns/iter  {}",
            sha,
            pct(sha, r.fill_ns_per_iter)
        );
        println!(
            "  fill_bytes other    {:>9.1} ns/iter  {}",
            r.fill_ns_per_iter - stages,
            pct(r.fill_ns_per_iter - stages, r.fill_ns_per_iter)
        );
        let gap = stages / r.fill_ns_per_iter - 1.0;
        println!(
            "  stages sum {stages:.1} vs fill_bytes {:.1} ns/iter: {:+.1} % ({} the ±{:.0} % tolerance)",
            r.fill_ns_per_iter,
            100.0 * gap,
            if gap.abs() <= REPLAY_TOLERANCE { "within" } else { "OUTSIDE" },
            100.0 * REPLAY_TOLERANCE
        );
    }

    println!("-- latency");
    let mut all: Vec<f64> = traced
        .slices
        .iter()
        .flat_map(|s| s.latencies_us.iter().copied())
        .collect();
    println!(
        "  whole window: p50 {:.1} µs, p99 {:.1} µs, p99.9 {:.1} µs over {} operations",
        percentile(&mut all, 0.5),
        percentile(&mut all, 0.99),
        percentile(&mut all, 0.999),
        all.len()
    );
    let steal: Vec<u64> = traced.slices.iter().map(|s| s.steal_ticks).collect();
    let calm = traced.calm_slices();
    println!(
        "  end-to-end figures over {} of {} slices of {:.2} s, {} operations (steal ticks per slice: {:?})",
        calm.len(),
        steal.len(),
        traced.slice_s,
        calm.iter().map(|s| s.latencies_us.len()).sum::<usize>(),
        steal
    );
    let client = get(traced_e2e, "latency_p50_us");
    let service = get(layer_metrics, "qt_rng_service.stats_latency.p50_us");
    println!(
        "  client p50 {client:.1} µs, service admission→delivery p50 {service:.1} µs, gap {:.1} µs",
        client - service
    );
    if traced.stats.validation.windows_validated > 0 {
        let v = &traced.stats.validation;
        println!(
            "  validation: {} windows graded, {} failed at α = 0.001 (reported, not a gate)",
            v.windows_validated, v.windows_failed
        );
    }

    println!("-- tracing overhead (traced vs untraced window, same seed)");
    for name in ["delivered_gbps", "requests_per_s", "latency_p50_us"] {
        let (a, b) = (get(plain_e2e, name), get(traced_e2e, name));
        println!(
            "  {name:<16} untraced {a:>12.4}  traced {b:>12.4}  {:+.1} %",
            100.0 * (b / a - 1.0)
        );
    }

    println!("-- modelled hardware (simulated) beside software (this host)");
    let population: f64 = PAPER_MODULES
        .iter()
        .map(|m| {
            ThroughputModel::new(m.geometry(), m.table3_max_segment_entropy).figure11()[2]
                .throughput_gbps
        })
        .sum::<f64>()
        / PAPER_MODULES.len() as f64;
    println!(
        "  Figure 11 RC+BGP, population average: {population:.3} Gb/s per channel vs the paper's {PAPER_GBPS} ({:+.1} %)",
        100.0 * (population / PAPER_GBPS - 1.0)
    );
    let modelled = layers::model(traced);
    println!(
        "  RC+BGP model of the characterised module: {:.3} Gb/s per channel; software delivered {:.4} Gb/s",
        modelled.throughput_gbps,
        get(traced_e2e, "delivered_gbps")
    );
    if let Some(r) = &verified.replay {
        println!(
            "  QUAC iteration: modelled {:.1} ns, software sampler {:.1} ns",
            modelled.iteration_latency_ns, r.sample_ns_per_iter
        );
        println!(
            "  SHA-256 per number: modelled {:.1} ns (Sha256HardwareCost), software {:.1} ns",
            Sha256HardwareCost::paper_reference().latency_ns(),
            r.digest_ns_per_digest
        );
    }
    if !probed.is_empty() {
        println!("-- layers this workload does not exercise, measured by a short probe run");
        for (name, from) in probed {
            println!("  {name} ({})", from.name());
        }
    }
}
