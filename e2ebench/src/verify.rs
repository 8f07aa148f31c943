//! Runs every output check of `check.rs` over one run: regenerates each
//! shard's stream serially (one thread per shard), regrades it where the
//! workload asks for it, and replays the first QUAC shard externally.

use qt_rng_service::ServiceStats;

use crate::check::{
    check_checksum, check_ledger, check_mixed, check_windows, compare_stream, PREFIX_BYTES,
};
use crate::client::{OpKind, RunOutput};
use crate::nist::Regrader;
use crate::replay::{replay, ReplayTimes};
use crate::setup::{drange, ShardSpec, Workload};

/// Stream bytes compared against the scalar reference twins.
const TWIN_BYTES: usize = 64 << 10;

/// How much of each shard's stream to regrade.
#[derive(Debug, Clone, Copy)]
pub struct Regrade {
    /// Windows graded per shard.
    pub limit: u64,
    /// Windows per shard on which each test is timed.
    pub timed: u64,
}

/// What the checks found.
#[derive(Debug)]
pub struct Verified {
    /// Every failed check (a sound run has none).
    pub errors: Vec<String>,
    /// Per-shard regrading.
    pub regraders: Vec<Regrader>,
    /// Stage times of the external replay.
    pub replay: Option<ReplayTimes>,
}

fn twin_prefix(spec: ShardSpec, module: &crate::setup::Characterized, n: usize) -> Vec<u8> {
    let mut out = vec![0u8; n];
    match spec {
        ShardSpec::Quac { seed } => module.quac(seed).fill_bytes_reference(&mut out),
        ShardSpec::DRange { seed } => drange(seed).fill_bytes_reference(&mut out),
    }
    out
}

/// One shard: the received stream is gapless and equals the serial
/// backend's; the serial prefix equals the scalar twin's and the verbatim
/// served prefix; and the stream is regraded as far as asked.
fn verify_shard(run: &RunOutput, shard: usize, regrade: Regrade) -> (Vec<String>, Regrader) {
    let received = &run.received[shard];
    let mut errors = received.errors.clone();
    errors.extend(received.gapless().err());
    let mut regrader = Regrader::new(regrade.limit, regrade.timed);
    let mut reference = Vec::new();
    let spec = run.plan[shard];
    let mut backend = spec.build(&run.module);
    let compared = compare_stream(
        received,
        |buf| backend.fill_bytes(buf),
        |bytes| {
            regrader.push(bytes);
            let room = PREFIX_BYTES
                .saturating_sub(reference.len())
                .min(bytes.len());
            reference.extend_from_slice(&bytes[..room]);
        },
    );
    errors.extend(compared.err());
    let n = TWIN_BYTES.min(reference.len());
    if twin_prefix(spec, &run.module, n) != reference[..n] {
        errors.push(format!(
            "shard {shard}: the serial {} stream differs from its scalar reference twin",
            spec.label()
        ));
    }
    if received.prefix != reference {
        errors.push(format!(
            "shard {shard}: the verbatim served prefix differs from the serial stream"
        ));
    }
    (errors, regrader)
}

/// Runs every check. `replay_bytes` is how much of the first shard's
/// stream the external replay regenerates (and times).
pub fn verify(run: &RunOutput, regrade: Regrade, replay_bytes: usize) -> Verified {
    let mut errors = run.errors.clone();
    let shards = run.plan.len();
    let results: Vec<(Vec<String>, Regrader)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| scope.spawn(move || verify_shard(run, shard, regrade)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard check panicked"))
            .collect()
    });
    let mut regraders = Vec::new();
    for (e, r) in results {
        errors.extend(e);
        regraders.push(r);
    }
    for r in &regraders {
        errors.extend(r.errors.iter().cloned());
    }

    let images: Vec<&[u8]> = run
        .received
        .iter()
        .map(|r| r.image.as_deref().unwrap_or_default())
        .collect();
    errors.extend(run.frame_errors.iter().cloned());
    for f in &run.frames {
        errors.extend(check_checksum(f, &images).err());
    }
    for m in &run.mixed {
        errors.extend(check_mixed(m, OpKind::Mixed16.len(), &images).err());
    }
    if run.failed != run.refused + run.errors.len() as u64 {
        errors.push(format!(
            "{} failed operations, {} refused frames and {} other failures",
            run.failed,
            run.refused,
            run.errors.len()
        ));
    }
    errors.extend(check_ledger(&run.stats, &run.received).err());
    if run.workload == Workload::Validated16k {
        errors.extend(check_validation(&run.stats, &regraders).err());
    }

    // (b): the first shard is a QUAC shard in every workload.
    let mut replay_times = None;
    if let ShardSpec::Quac { seed } = run.plan[0] {
        match replay(&run.module, seed, replay_bytes) {
            Ok((stream, times)) => {
                let served = &run.received[0].prefix;
                let n = stream.len().min(served.len());
                if stream[..n] != served[..n] {
                    errors.push("the external replay differs from shard 0's served prefix".into());
                }
                replay_times = Some(times);
            }
            Err(e) => errors.push(e),
        }
    }
    Verified {
        errors,
        regraders,
        replay: replay_times,
    }
}

/// (f) plus the lossless tap's coverage: every served byte was tapped.
fn check_validation(stats: &ServiceStats, regraders: &[Regrader]) -> Result<(), String> {
    let service: Vec<(u64, u64)> = stats
        .shard_health
        .iter()
        .map(|h| (h.windows_validated, h.windows_failed))
        .collect();
    let regraded: Vec<(u64, u64)> = regraders.iter().map(|r| (r.windows, r.failed)).collect();
    check_windows(&service, &regraded)?;
    let v = &stats.validation;
    let (windows, failed) = regraded.iter().fold((0, 0), |(w, f), r| (w + r.0, f + r.1));
    if v.windows_validated != windows || v.windows_failed != failed {
        return Err(format!(
            "service totals {}/{} windows, regrading {windows}/{failed}",
            v.windows_validated, v.windows_failed
        ));
    }
    if v.bytes_dropped != 0 || v.bytes_tapped != stats.completed_bytes || v.quarantines != 0 {
        return Err(format!(
            "lossless tap: {} B tapped, {} B dropped, {} B served, {} quarantines",
            v.bytes_tapped, v.bytes_dropped, stats.completed_bytes, v.quarantines
        ));
    }
    Ok(())
}
