//! End-to-end benchmark of the QUAC-TRNG stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <bulk_64k|spinel_frames|validated_16k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one client thread. The run sets the workload up seven
//! times (the median is `setup_s`), drives it for `--seconds`, checks every
//! output, and prints one JSON line last: the end-to-end metrics with
//! `--trace 0`; with `--trace 1` it also runs a traced window and prints the
//! per-layer ledger and metrics. See README.md.

mod check;
mod client;
mod layers;
mod nist;
mod replay;
mod report;
mod setup;
mod sha256;
mod stats;
mod verify;

use client::{RunOutput, Stop};
use layers::Metrics;
use setup::{setup_with, timed_setup, SetupTimes, Workload};
use stats::{median, percentile};
use verify::{verify, Regrade};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Bytes of shard 0 the external replay regenerates in an untraced run:
/// the verbatim served prefix it is compared with.
const REPLAY_BYTES: usize = check::PREFIX_BYTES;
/// The same in a traced run, where the replay is also timed.
const TRACED_REPLAY_BYTES: usize = 4 << 20;
/// Windows per shard a traced run times test by test.
const TIMED_WINDOWS: u64 = 20;

const USAGE: &str =
    "usage: qt_e2e_bench --workload <bulk_64k|spinel_frames|validated_16k> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let args = Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    };
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn regrade_for(workload: Workload, traced: bool) -> Regrade {
    match (workload, traced) {
        (Workload::Validated16k, _) => Regrade {
            limit: u64::MAX,
            timed: if traced { TIMED_WINDOWS } else { 0 },
        },
        (_, true) => Regrade {
            limit: TIMED_WINDOWS,
            timed: TIMED_WINDOWS,
        },
        (_, false) => Regrade { limit: 0, timed: 0 },
    }
}

/// Probes: short runs, of so many rounds, of the workloads that exercise
/// layers another workload does not (D-RaNGe, mixing, frames and async
/// redemption; continuous validation).
const PROBES: [(Workload, u64); 2] = [(Workload::SpinelFrames, 1000), (Workload::Validated16k, 64)];

/// Latency samples per block: enough that a block's p99 has ten samples
/// beyond it.
const BLOCK_SAMPLES: usize = 1000;

/// The `q`-quantile of latency as the median over blocks of consecutive
/// calm slices holding at least [`BLOCK_SAMPLES`] operations each (a
/// leftover partial block is dropped); over all calm operations when they
/// fill no block. Which shard a closed loop's requests queue behind
/// changes in bursts, so a whole run's p99 swings with a few bursts; a
/// block's p99 is what a thousand consecutive requests see.
fn latency_quantile(calm: &[&client::Slice], q: f64) -> f64 {
    let mut blocks = Vec::new();
    let mut block: Vec<f64> = Vec::new();
    for slice in calm {
        block.extend_from_slice(&slice.latencies_us);
        if block.len() >= BLOCK_SAMPLES {
            blocks.push(percentile(&mut block, q));
            block.clear();
        }
    }
    if blocks.is_empty() {
        return percentile(&mut block, q);
    }
    median(&blocks)
}

/// The end-to-end metrics, over the operations redeemed in the window's
/// calm slices ([`RunOutput::calm_slices`]).
fn end_to_end(run: &RunOutput, times: &SetupTimes) -> Metrics {
    let calm = run.calm_slices();
    // A probe runs a fixed number of rounds in one unbounded slice.
    let slice_s = if run.slice_s.is_finite() {
        run.slice_s
    } else {
        run.wall_s
    };
    let secs = slice_s * calm.len() as f64;
    let ops: u64 = calm.iter().map(|s| s.ops).sum();
    let bytes: u64 = calm.iter().map(|s| s.bytes_ok).sum();
    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_string(), (value, unit));
    };
    put("setup_s", times.total_s, "s");
    put("delivered_gbps", bytes as f64 * 8.0 / secs / 1e9, "Gb/s");
    put("requests_per_s", ops as f64 / secs, "1/s");
    put("latency_p50_us", latency_quantile(&calm, 0.50), "us");
    put("latency_p99_us", latency_quantile(&calm, 0.99), "us");
    put(
        "model_gbps_per_channel",
        layers::model(run).throughput_gbps,
        "sim_Gb/s",
    );
    m
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let mut errors = Vec::new();

    let (setup, times) = timed_setup(w, args.seed, SETUP_REPS);
    let module = setup.module.clone();
    let plain = client::run(setup, args.seed, Stop::Seconds(args.seconds), false);
    errors.extend(verify(&plain, regrade_for(w, false), REPLAY_BYTES).errors);
    let plain_e2e = end_to_end(&plain, &times);
    let (plain_attempted, plain_failed) = (plain.attempted, plain.failed);
    // What the traced window is compared with is kept; the received streams
    // are not.
    drop(plain);

    let (attempted, failed, metrics) = if !args.trace {
        (plain_attempted, plain_failed, plain_e2e)
    } else {
        let (traced_setup, drange_ms) = setup_with(w, args.seed, module.clone(), true);
        let traced = client::run(traced_setup, args.seed, Stop::Seconds(args.seconds), true);
        let verified = verify(&traced, regrade_for(w, true), TRACED_REPLAY_BYTES);
        errors.extend(verified.errors.iter().cloned());
        let mut metrics = layers::measure(&traced, &verified, Some(&times), drange_ms);
        let mut probed = Vec::new();
        for (other, rounds) in PROBES.into_iter().filter(|&(o, _)| o != w) {
            let (probe_setup, drange_ms) = setup_with(other, args.seed, module.clone(), true);
            let probe = client::run(probe_setup, args.seed, Stop::Rounds(rounds), true);
            let probe_verified = verify(&probe, regrade_for(other, true), REPLAY_BYTES);
            errors.extend(probe_verified.errors.iter().cloned());
            for (name, value) in layers::measure(&probe, &probe_verified, None, drange_ms) {
                if !metrics.contains_key(&name) {
                    metrics.insert(name.clone(), value);
                    probed.push((name, other));
                }
            }
        }
        for (name, _) in layers::per_layer_names() {
            if !metrics.contains_key(&name) {
                errors.push(format!("per-layer metric {name} was not measured"));
            }
        }
        let traced_e2e = end_to_end(&traced, &times);
        report::print(
            &plain_e2e,
            &traced,
            &traced_e2e,
            &verified,
            &metrics,
            &probed,
        );
        (traced.attempted, traced.failed, metrics)
    };

    for (name, (value, _)) in &metrics {
        if !value.is_finite() {
            errors.push(format!("{name} is not a finite number"));
        }
    }
    let metrics: Metrics = metrics
        .into_iter()
        .map(|(k, (v, u))| (k, (if v.is_finite() { v } else { 0.0 }, u)))
        .collect();
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!("{}", json(errors.is_empty(), attempted, failed, &metrics));
}
