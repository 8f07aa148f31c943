//! The per-layer ledger of a traced run: every metric named in
//! `BENCHMARK.json`'s `per_layer`, from the benchmark's own spans around
//! each call into a layer.

use qt_nist_sts::TEST_NAMES;
use quac_trng::ThroughputModel;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use crate::client::RunOutput;
use crate::setup::{module, SetupTimes, ShardSpec};
use crate::stats::{histogram_quantile, median};
use crate::verify::Verified;

/// Name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Every per-layer metric, in report order, with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("quac_trng.characterize_module.s", "s"),
        ("qt_rng_service.start.ms", "ms"),
        ("qt_baselines.drange_new.ms", "ms"),
        ("qt_dram_analog.sample_compact_into.ns_per_iter", "ns"),
        ("qt_dram_core.extract_bytes_into.ns_per_iter", "ns"),
        ("qt_crypto.digest_many_into.ns_per_digest", "ns"),
        ("quac_trng.fill_bytes.ns_per_iter", "ns"),
        ("quac_trng.fill_bytes.ns_per_byte", "ns"),
        ("qt_rng_service.worker.fill_busy_s.shard0", "s"),
        ("qt_rng_service.worker.fill_busy_s.shard1", "s"),
        ("qt_rng_service.worker.requests_per_batch", "count"),
        ("qt_rng_service.worker.batches", "count"),
        ("qt_rng_service.submit.p50_us", "us"),
        ("qt_rng_service.submit_mixed.p50_us", "us"),
        ("qt_rng_service.ticket_wait.p50_us", "us"),
        ("qt_rng_service.async_block_on.p50_us", "us"),
        ("qt_rng_service.mixed_wait.p50_us", "us"),
        ("qt_rng_service.contract_frame.ns", "ns"),
        ("qt_rng_service.stats_latency.p50_us", "us"),
        ("qt_rng_service.queue_depth.p50", "count"),
        ("qt_baselines.drange_fill_bytes.ns_per_byte", "ns"),
        ("qt_nist_sts.window.ms", "ms"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    names.extend(
        TEST_NAMES
            .iter()
            .map(|t| (format!("qt_nist_sts.{t}.us"), "us")),
    );
    names.extend([
        ("qt_rng_service.validation.windows_per_s".to_string(), "1/s"),
        (
            "quac_trng.throughput.iteration_latency_ns".to_string(),
            "sim_ns",
        ),
        (
            "quac_trng.throughput.bits_per_iteration".to_string(),
            "bits",
        ),
    ]);
    names
}

/// The modelled RC+BGP configuration of the run's characterised module
/// (DDR4-2400, the paper's Figure 11 setting).
pub fn model(run: &RunOutput) -> quac_trng::ConfigurationThroughput {
    let [_, _, rc_bgp] =
        ThroughputModel::new(module().geometry(), run.module.ch.best_segment_entropy).figure11();
    rc_bgp
}

fn put(m: &mut Metrics, name: &str, value: f64) {
    let unit = per_layer_names()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
    m.insert(name.to_string(), (value, unit));
}

fn put_median(m: &mut Metrics, name: &str, samples: &[f64]) {
    if !samples.is_empty() {
        put(m, name, median(samples));
    }
}

/// The layer metrics a traced run measured. Layers the workload does not
/// exercise are left out (a probe fills them in).
pub fn measure(
    run: &RunOutput,
    verified: &Verified,
    times: Option<&SetupTimes>,
    drange_new_ms: Option<f64>,
) -> Metrics {
    let mut m = Metrics::new();
    if let Some(t) = times {
        put(&mut m, "quac_trng.characterize_module.s", t.characterize_s);
        put(&mut m, "qt_rng_service.start.ms", t.start_ms);
    }
    if let Some(ms) = times.and_then(|t| t.drange_new_ms).or(drange_new_ms) {
        put(&mut m, "qt_baselines.drange_new.ms", ms);
    }
    if let Some(r) = &verified.replay {
        put(
            &mut m,
            "qt_dram_analog.sample_compact_into.ns_per_iter",
            r.sample_ns_per_iter,
        );
        put(
            &mut m,
            "qt_dram_core.extract_bytes_into.ns_per_iter",
            r.extract_ns_per_iter,
        );
        put(
            &mut m,
            "qt_crypto.digest_many_into.ns_per_digest",
            r.digest_ns_per_digest,
        );
        put(
            &mut m,
            "quac_trng.fill_bytes.ns_per_iter",
            r.fill_ns_per_iter,
        );
    }
    if let Some(traces) = &run.traces {
        let (mut quac, mut dr, mut calls) = ((0u64, 0u64), (0u64, 0u64), 0u64);
        for (shard, (trace, spec)) in traces.iter().zip(&run.plan).enumerate() {
            let busy = trace.busy_ns.load(Ordering::Relaxed);
            let bytes = trace.bytes.load(Ordering::Relaxed);
            calls += trace.calls.load(Ordering::Relaxed);
            put(
                &mut m,
                &format!("qt_rng_service.worker.fill_busy_s.shard{shard}"),
                busy as f64 / 1e9,
            );
            let acc = match spec {
                ShardSpec::Quac { .. } => &mut quac,
                ShardSpec::DRange { .. } => &mut dr,
            };
            acc.0 += busy;
            acc.1 += bytes;
        }
        if quac.1 > 0 {
            put(
                &mut m,
                "quac_trng.fill_bytes.ns_per_byte",
                quac.0 as f64 / quac.1 as f64,
            );
        }
        if dr.1 > 0 {
            put(
                &mut m,
                "qt_baselines.drange_fill_bytes.ns_per_byte",
                dr.0 as f64 / dr.1 as f64,
            );
        }
        if calls > 0 {
            put(&mut m, "qt_rng_service.worker.batches", calls as f64);
            let requests: u64 = run.received.iter().map(|r| r.completions).sum();
            put(
                &mut m,
                "qt_rng_service.worker.requests_per_batch",
                requests as f64 / calls as f64,
            );
        }
    }
    if let Some(s) = &run.spans {
        put_median(&mut m, "qt_rng_service.submit.p50_us", &s.submit_us.samples);
        put_median(
            &mut m,
            "qt_rng_service.submit_mixed.p50_us",
            &s.submit_mixed_us.samples,
        );
        put_median(
            &mut m,
            "qt_rng_service.ticket_wait.p50_us",
            &s.ticket_wait_us.samples,
        );
        put_median(
            &mut m,
            "qt_rng_service.async_block_on.p50_us",
            &s.block_on_us.samples,
        );
        put_median(
            &mut m,
            "qt_rng_service.mixed_wait.p50_us",
            &s.mixed_wait_us.samples,
        );
        put_median(
            &mut m,
            "qt_rng_service.contract_frame.ns",
            &s.frame_ns.samples,
        );
    }
    put(
        &mut m,
        "qt_rng_service.stats_latency.p50_us",
        histogram_quantile(&run.stats.latency_us, 0.5),
    );
    put(
        &mut m,
        "qt_rng_service.queue_depth.p50",
        histogram_quantile(&run.stats.queue_depth, 0.5),
    );
    let window_ms: Vec<f64> = verified
        .regraders
        .iter()
        .flat_map(|r| r.window_ms.iter().copied())
        .collect();
    put_median(&mut m, "qt_nist_sts.window.ms", &window_ms);
    for (i, test) in TEST_NAMES.iter().enumerate() {
        let us: Vec<f64> = verified
            .regraders
            .iter()
            .flat_map(|r| r.test_us[i].iter().copied())
            .collect();
        put_median(&mut m, &format!("qt_nist_sts.{test}.us"), &us);
    }
    if run.stats.validation.windows_validated > 0 {
        put(
            &mut m,
            "qt_rng_service.validation.windows_per_s",
            run.stats.validation.windows_validated as f64 / run.drained_s,
        );
    }
    let modelled = model(run);
    put(
        &mut m,
        "quac_trng.throughput.iteration_latency_ns",
        modelled.iteration_latency_ns,
    );
    put(
        &mut m,
        "quac_trng.throughput.bits_per_iteration",
        modelled.bits_per_iteration,
    );
    m
}
