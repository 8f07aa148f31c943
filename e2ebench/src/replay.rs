//! An external replay of one QUAC shard's generation pipeline through its
//! public pieces — `BitSlicedSampler::sample_compact_into` →
//! `BitVec::extract_bytes_into` → SHA-256 — timing each stage, next to a
//! serial `QuacTrng::fill_bytes` over the same iterations.

use qt_crypto::{digest_many_into, Sha256, Sha256Digest, BATCH_LANES};
use qt_dram_analog::{BitSlicedSampler, NoiseRng};
use qt_dram_core::{BitVec, CACHE_BLOCK_BITS};
use std::time::Instant;

use crate::setup::Characterized;

/// Stage times of a replay.
#[derive(Debug, Clone, Copy)]
pub struct ReplayTimes {
    /// Iterations replayed.
    pub iterations: u64,
    /// SHA-256 inputs (256-bit numbers) per iteration.
    pub digests_per_iter: usize,
    /// `sample_compact_into`, ns per iteration.
    pub sample_ns_per_iter: f64,
    /// `extract_bytes_into` over every input block, ns per iteration.
    pub extract_ns_per_iter: f64,
    /// `digest_many_into` (the batched path `fill_bytes` runs), ns per digest.
    pub digest_ns_per_digest: f64,
    /// Serial `QuacTrng::fill_bytes` over the same iterations, ns per
    /// iteration.
    pub fill_ns_per_iter: f64,
}

impl ReplayTimes {
    /// Sampler + extraction + SHA, ns per iteration.
    pub fn stages_ns_per_iter(&self) -> f64 {
        self.sample_ns_per_iter
            + self.extract_ns_per_iter
            + self.digest_ns_per_digest * self.digests_per_iter as f64
    }
}

/// Replays `bytes` of the stream of a QUAC shard with noise seed `seed`.
/// The returned stream is built from scalar `Sha256::digest` outputs; the
/// timed batched digests must equal them.
pub fn replay(
    module: &Characterized,
    seed: u64,
    bytes: usize,
) -> Result<(Vec<u8>, ReplayTimes), String> {
    let ch = &module.ch;
    let probs = module
        .model
        .bitline_probabilities(ch.best_segment, ch.pattern, ch.conditions);
    let sampler = BitSlicedSampler::new(&probs);
    let lanes: Vec<(usize, usize)> = ch
        .entropy_block_ranges()
        .iter()
        .map(|&(s, e)| sampler.lane_range(s * CACHE_BLOCK_BITS, e * CACHE_BLOCK_BITS))
        .collect();
    if lanes.is_empty() {
        return Err("the characterised segment holds no 256-bit input block".into());
    }
    let per_iter = 32 * lanes.len();
    let iterations = bytes.div_ceil(per_iter).max(1);
    // `fill_bytes` runs the same iterations, a batch at a time just before
    // the replay of that batch, so both see the host at the same speed.
    let mut trng = module.quac(seed);
    let mut filled = vec![0u8; BATCH_LANES * per_iter];
    let mut noise = NoiseRng::new(seed);
    let mut compact = BitVec::zeros(sampler.metastable_bits());
    let mut block = Vec::new();
    let mut arena: Vec<u8> = Vec::new();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut digests: Vec<Sha256Digest> = Vec::new();
    // Every message and its batched digest, for the scalar check after the
    // timing.
    let mut checked: Vec<(Vec<u8>, Sha256Digest)> = Vec::with_capacity(iterations * lanes.len());
    let (mut fill_ns, mut sample_ns, mut extract_ns, mut digest_ns) = (0u128, 0u128, 0u128, 0u128);
    let mut done = 0;
    while done < iterations {
        let batch = (iterations - done).min(BATCH_LANES);
        let t = Instant::now();
        trng.fill_bytes(&mut filled[..batch * per_iter]);
        fill_ns += t.elapsed().as_nanos();
        arena.clear();
        spans.clear();
        // The same order of work as `fill_bytes`: each iteration is sampled,
        // then its blocks are packed into the batch's message arena (one
        // span per stage and iteration: single blocks are too short to time).
        for _ in 0..batch {
            let t = Instant::now();
            sampler.sample_compact_into(&mut compact, &mut noise);
            let t1 = Instant::now();
            for &(s, e) in &lanes {
                compact.extract_bytes_into(s, e, &mut block);
                let start = arena.len();
                arena.extend_from_slice(&block);
                spans.push((start, arena.len()));
            }
            sample_ns += (t1 - t).as_nanos();
            extract_ns += t1.elapsed().as_nanos();
        }
        let messages: Vec<&[u8]> = spans.iter().map(|&(s, e)| &arena[s..e]).collect();
        digests.clear();
        let t = Instant::now();
        digest_many_into(&messages, &mut digests);
        digest_ns += t.elapsed().as_nanos();
        checked.extend(
            messages
                .iter()
                .map(|m| m.to_vec())
                .zip(digests.iter().copied()),
        );
        done += batch;
    }
    let mut stream = Vec::with_capacity(iterations * per_iter);
    for (message, batched) in &checked {
        let scalar = Sha256::digest(message);
        if &scalar != batched {
            return Err("digest_many_into differs from the scalar Sha256::digest".into());
        }
        stream.extend_from_slice(&scalar);
    }
    stream.truncate(bytes);

    let iters = iterations as f64;
    Ok((
        stream,
        ReplayTimes {
            iterations: iterations as u64,
            digests_per_iter: lanes.len(),
            sample_ns_per_iter: sample_ns as f64 / iters,
            extract_ns_per_iter: extract_ns as f64 / iters,
            digest_ns_per_digest: digest_ns as f64 / (iters * lanes.len() as f64),
            fill_ns_per_iter: fill_ns as f64 / iters,
        },
    ))
}
