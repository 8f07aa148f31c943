//! Set-up of one workload: characterise module M1, build the workload's
//! backends, start the service — timed, since `setup_s` is an end-to-end
//! metric — plus the `EntropyBackend` wrapper traced runs put around every
//! shard.

use qt_baselines::DRangeTrng;
use qt_dram_analog::{FailureModel, ModuleProfile, QuacAnalogModel, PAPER_MODULES};
use qt_dram_core::DataPattern;
use qt_rng_service::{
    HealthPolicy, RngService, RngServiceConfig, ServicePolicies, ValidationConfig,
};
use quac_trng::characterize::{characterize_module, CharacterizationConfig};
use quac_trng::fault::FaultInjector;
use quac_trng::pipeline::{shard_seed, QuacTrng};
use quac_trng::{BackendClass, EntropyBackend, ModuleCharacterization};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::stats::{median, SplitMix};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2 QUAC shards, 64 KiB reads, a few outstanding.
    Bulk64k,
    /// QUAC + D-RaNGe mesh, Spinel-sized frames, 64 outstanding.
    SpinelFrames,
    /// 2 QUAC shards, 16 KiB reads, lossless continuous validation.
    Validated16k,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Bulk64k,
        Workload::SpinelFrames,
        Workload::Validated16k,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk64k => "bulk_64k",
            Workload::SpinelFrames => "spinel_frames",
            Workload::Validated16k => "validated_16k",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Module M1 of the paper's population, the module every workload runs on.
pub fn module() -> &'static ModuleProfile {
    &PAPER_MODULES[0]
}

/// How to rebuild one shard's backend from scratch, for the serial
/// reference streams the checks compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSpec {
    /// A `QuacTrng` on M1's characterisation with this noise seed.
    Quac { seed: u64 },
    /// A `DRangeTrng` on M1's failure model with this seed.
    DRange { seed: u64 },
}

/// The characterised module, shared by the run, its checks and its probes.
#[derive(Debug, Clone)]
pub struct Characterized {
    /// M1's analog model.
    pub model: QuacAnalogModel,
    /// Its fast-configuration characterisation.
    pub ch: ModuleCharacterization,
}

impl Characterized {
    /// Builds and characterises M1.
    pub fn new() -> Self {
        let model = module().analog_model();
        let ch = characterize_module(
            &model,
            DataPattern::best_average(),
            &CharacterizationConfig::fast(),
        );
        Characterized { model, ch }
    }

    /// A fresh `QuacTrng` with this noise seed.
    pub fn quac(&self, seed: u64) -> QuacTrng {
        QuacTrng::with_characterization(self.model.clone(), self.ch.clone(), seed)
    }
}

/// A fresh `DRangeTrng` on M1 with this seed.
pub fn drange(seed: u64) -> DRangeTrng {
    let profile = module();
    DRangeTrng::new(
        &FailureModel::new(profile.variation()),
        &profile.geometry(),
        seed,
    )
}

impl ShardSpec {
    /// A fresh, identically seeded backend: the serial reference.
    pub fn build(self, module: &Characterized) -> Box<dyn EntropyBackend> {
        match self {
            ShardSpec::Quac { seed } => Box::new(module.quac(seed)),
            ShardSpec::DRange { seed } => Box::new(drange(seed)),
        }
    }

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ShardSpec::Quac { .. } => "quac",
            ShardSpec::DRange { .. } => "drange",
        }
    }
}

/// The shards of a workload, derived from the run's seed.
pub fn shard_plan(workload: Workload, seed: u64) -> Vec<ShardSpec> {
    let mut rng = SplitMix(seed);
    let base = rng.next_u64();
    match workload {
        Workload::Bulk64k | Workload::Validated16k => (0..2)
            .map(|i| ShardSpec::Quac {
                seed: shard_seed(base, i),
            })
            .collect(),
        Workload::SpinelFrames => vec![
            ShardSpec::Quac {
                seed: shard_seed(base, 0),
            },
            ShardSpec::DRange {
                seed: rng.next_u64(),
            },
        ],
    }
}

/// The service configuration of a workload. Delivery pacing stays
/// unlimited, so every number measures the simulator's software speed.
pub fn service_config(workload: Workload) -> RngServiceConfig {
    let mut cfg = RngServiceConfig::default();
    if workload == Workload::Validated16k {
        cfg.validation = ValidationConfig {
            enabled: true,
            lossless_tap: true,
            // Grade every window but never fence a shard: a quarantine would
            // restart the shard's stream, and the benchmark measures the
            // grading rate, not a statistical verdict (at α = 0.001 a few
            // windows of a sound stream fail by chance).
            policy: HealthPolicy {
                min_pass_ewma: 0.0,
                max_consecutive_failures: u32::MAX,
                ..HealthPolicy::default()
            },
            ..ValidationConfig::enabled()
        };
    }
    cfg
}

/// Per-shard counters of the traced backend wrapper.
#[derive(Debug, Default)]
pub struct ShardTrace {
    /// `fill_bytes` calls: one per worker batch.
    pub calls: AtomicU64,
    /// Nanoseconds spent inside `fill_bytes`.
    pub busy_ns: AtomicU64,
    /// Bytes filled.
    pub bytes: AtomicU64,
}

/// An `EntropyBackend` that times each `fill_bytes` of the backend it wraps.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Box<dyn EntropyBackend>,
    trace: Arc<ShardTrace>,
}

impl EntropyBackend for TimedBackend {
    fn fill_bytes(&mut self, out: &mut [u8]) {
        let start = Instant::now();
        self.inner.fill_bytes(out);
        let ns = start.elapsed().as_nanos() as u64;
        self.trace.calls.fetch_add(1, Ordering::Relaxed);
        self.trace.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.trace
            .bytes
            .fetch_add(out.len() as u64, Ordering::Relaxed);
    }
    fn recharacterize(&mut self, cfg: &CharacterizationConfig) {
        self.inner.recharacterize(cfg);
    }
    fn class(&self) -> BackendClass {
        self.inner.class()
    }
    fn inject_fault(&mut self, fault: FaultInjector) {
        self.inner.inject_fault(fault);
    }
    fn clear_fault(&mut self) {
        self.inner.clear_fault();
    }
    fn delivered_bytes(&self) -> u64 {
        self.inner.delivered_bytes()
    }
    fn fresh_bits_drawn(&self) -> u64 {
        self.inner.fresh_bits_drawn()
    }
    fn buffered_bytes(&self) -> usize {
        self.inner.buffered_bytes()
    }
}

/// Median phase times of the set-up repetitions.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Whole set-up: characterisation + backend construction + start.
    pub total_s: f64,
    /// `characterize_module` (with the analog model it runs on).
    pub characterize_s: f64,
    /// `DRangeTrng::new`, where the workload builds one.
    pub drange_new_ms: Option<f64>,
    /// `RngService::start_mesh_with_policies`.
    pub start_ms: f64,
}

/// A running workload service.
#[derive(Debug)]
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// The characterised module.
    pub module: Characterized,
    /// How each shard was built.
    pub plan: Vec<ShardSpec>,
    /// The service.
    pub service: RngService,
    /// Wrapper counters per shard (traced set-ups only).
    pub traces: Option<Vec<Arc<ShardTrace>>>,
}

fn start(
    workload: Workload,
    module: Characterized,
    plan: Vec<ShardSpec>,
    traced: bool,
) -> (Setup, Option<f64>, f64) {
    let mut drange_ms = None;
    let mut backends: Vec<Box<dyn EntropyBackend>> = Vec::new();
    for spec in &plan {
        backends.push(match *spec {
            ShardSpec::Quac { seed } => Box::new(module.quac(seed)),
            ShardSpec::DRange { seed } => {
                let t = Instant::now();
                let backend = drange(seed);
                drange_ms = Some(t.elapsed().as_secs_f64() * 1e3);
                Box::new(backend)
            }
        });
    }
    let traces = traced.then(|| {
        let traces: Vec<Arc<ShardTrace>> = plan.iter().map(|_| Arc::default()).collect();
        backends = std::mem::take(&mut backends)
            .into_iter()
            .zip(&traces)
            .map(|(inner, trace)| {
                Box::new(TimedBackend {
                    inner,
                    trace: Arc::clone(trace),
                }) as Box<dyn EntropyBackend>
            })
            .collect();
        traces
    });
    let cfg = service_config(workload);
    let policies = match workload {
        Workload::SpinelFrames => ServicePolicies::for_mesh(&cfg),
        Workload::Bulk64k | Workload::Validated16k => ServicePolicies::for_config(&cfg),
    };
    let t = Instant::now();
    let service = RngService::start_mesh_with_policies(backends, cfg, policies);
    let start_ms = t.elapsed().as_secs_f64() * 1e3;
    (
        Setup {
            workload,
            module,
            plan,
            service,
            traces,
        },
        drange_ms,
        start_ms,
    )
}

/// Sets the workload up `reps` times from nothing (the earlier services
/// are shut down idle) and returns the last, with the median phase times.
pub fn timed_setup(workload: Workload, seed: u64, reps: usize) -> (Setup, SetupTimes) {
    let (mut totals, mut characterize, mut dranges, mut starts) = (vec![], vec![], vec![], vec![]);
    let mut last: Option<Setup> = None;
    for _ in 0..reps.max(1) {
        if let Some(previous) = last.take() {
            previous.service.shutdown();
        }
        let t0 = Instant::now();
        let module = Characterized::new();
        characterize.push(t0.elapsed().as_secs_f64());
        let (setup, drange_ms, start_ms) =
            start(workload, module, shard_plan(workload, seed), false);
        totals.push(t0.elapsed().as_secs_f64());
        dranges.extend(drange_ms);
        starts.push(start_ms);
        last = Some(setup);
    }
    let times = SetupTimes {
        total_s: median(&totals),
        characterize_s: median(&characterize),
        drange_new_ms: (!dranges.is_empty()).then(|| median(&dranges)),
        start_ms: median(&starts),
    };
    (last.expect("at least one repetition"), times)
}

/// A set-up over an existing characterisation, optionally traced, with the
/// time `DRangeTrng::new` took where the workload builds one.
pub fn setup_with(
    workload: Workload,
    seed: u64,
    module: Characterized,
    traced: bool,
) -> (Setup, Option<f64>) {
    let (setup, drange_ms, _) = start(workload, module, shard_plan(workload, seed), traced);
    (setup, drange_ms)
}
