//! Output checks. None depends on timing, on scheduling or on a fresh
//! statistical draw, and all but the cheap structural comparisons made as
//! each operation is redeemed run after the timed window:
//!
//! * (a) each shard's completions, reassembled by offset, tile its stream
//!   with no gap or overlap and equal an identically seeded serial backend;
//!   a prefix of that stream equals the backend's scalar reference twin;
//! * (b) on `bulk_64k`, the external replay reproduces the served prefix
//!   (`replay.rs`);
//! * (c) every mixed completion equals `mix_reference` of its halves;
//! * (d) every frame's checksum equals the benchmark's own SHA-256 of its
//!   payload, and every refusal carries the completion's real budget;
//! * (e) each shard's ledger: claimed ≤ drawn, and served bytes and claimed
//!   bits equal what the client received;
//! * (f) on `validated_16k`, the service's window counts equal a serial
//!   regrading (`nist.rs`).

use qt_rng_service::contract::{TRNG128_MIN_FRESH_BITS, TRNG32_MIN_FRESH_BITS};
use qt_rng_service::mixer::mix_reference;
use qt_rng_service::{
    Completion, ContractError, MixedCompletion, ServiceStats, SourceTelemetry, Trng128, Trng32,
};
use quac_trng::BackendKind;
use std::collections::BTreeMap;

use crate::sha256;
use crate::stats::{StreamHasher, CHECKPOINT_BYTES};

/// Served bytes kept verbatim per shard: the prefix the external replay
/// and the scalar twins are compared against.
pub const PREFIX_BYTES: usize = 1 << 20;

/// One shard's stream as the client receives it: completions are put back
/// in offset order (a completion that arrives early waits in a small
/// reorder buffer), hashed, and optionally kept whole.
#[derive(Debug)]
pub struct Received {
    shard: usize,
    next: u64,
    early: BTreeMap<u64, Vec<u8>>,
    /// Fingerprint of the in-order stream.
    pub hasher: StreamHasher,
    /// The first [`PREFIX_BYTES`] verbatim.
    pub prefix: Vec<u8>,
    /// The whole stream, when the workload's frames and mixed requests are
    /// checked against it.
    pub image: Option<Vec<u8>>,
    /// Fresh bits the completions carried.
    pub fresh_bits: u64,
    /// Completions received.
    pub completions: u64,
    /// Completions that overlapped the stream or came from a restarted one.
    pub errors: Vec<String>,
}

impl Received {
    /// An empty stream of `shard`.
    pub fn new(shard: usize, keep_image: bool) -> Self {
        Received {
            shard,
            next: 0,
            early: BTreeMap::new(),
            hasher: StreamHasher::default(),
            prefix: Vec::new(),
            image: keep_image.then(Vec::new),
            fresh_bits: 0,
            completions: 0,
            errors: Vec::new(),
        }
    }

    /// Takes one completion of this shard.
    pub fn push(&mut self, c: &Completion) {
        self.completions += 1;
        self.fresh_bits += c.fresh_bits;
        let shard = self.shard;
        if c.epoch != 0 {
            self.errors.push(format!(
                "shard {shard}: completion in epoch {} (the stream restarted)",
                c.epoch
            ));
        } else if c.stream_offset < self.next || self.early.contains_key(&c.stream_offset) {
            self.errors.push(format!(
                "shard {shard}: overlap at offset {} (served twice)",
                c.stream_offset
            ));
        } else if c.stream_offset > self.next {
            self.early.insert(c.stream_offset, c.bytes.clone());
        } else {
            self.absorb(&c.bytes);
            while let Some(bytes) = self.early.remove(&self.next) {
                self.absorb(&bytes);
            }
        }
    }

    fn absorb(&mut self, bytes: &[u8]) {
        self.hasher.update(bytes);
        let room = PREFIX_BYTES
            .saturating_sub(self.prefix.len())
            .min(bytes.len());
        self.prefix.extend_from_slice(&bytes[..room]);
        if let Some(image) = &mut self.image {
            image.extend_from_slice(bytes);
        }
        self.next += bytes.len() as u64;
    }

    /// Bytes received in order.
    pub fn len(&self) -> u64 {
        self.next
    }

    /// Every completion received was placed: nothing waits behind a gap.
    pub fn gapless(&self) -> Result<(), String> {
        match self.early.keys().next() {
            None => Ok(()),
            Some(offset) => Err(format!(
                "shard {}: gap at offset {} (next completion starts at {offset})",
                self.shard, self.next
            )),
        }
    }
}

/// Compares a received stream with a reference stream drawn from `fill` in
/// 64 KiB reads; `on_bytes` sees the reference stream in order.
pub fn compare_stream(
    received: &Received,
    mut fill: impl FnMut(&mut [u8]),
    mut on_bytes: impl FnMut(&[u8]),
) -> Result<(), String> {
    let mut reference = StreamHasher::default();
    let mut buf = vec![0u8; 64 << 10];
    let mut left = received.len();
    while left > 0 {
        let n = left.min(buf.len() as u64) as usize;
        fill(&mut buf[..n]);
        reference.update(&buf[..n]);
        on_bytes(&buf[..n]);
        left -= n as u64;
    }
    let mismatch = received
        .hasher
        .checkpoints
        .iter()
        .zip(&reference.checkpoints)
        .position(|(a, b)| a != b);
    let span = match mismatch {
        Some(k) => Some(k as u64 * CHECKPOINT_BYTES),
        None if received.hasher.finish() != reference.finish() => {
            Some(received.hasher.checkpoints.len() as u64 * CHECKPOINT_BYTES)
        }
        None => None,
    };
    match span {
        None => Ok(()),
        Some(from) => Err(format!(
            "shard {}: served bytes in [{from}, {}) differ from the serial reference",
            received.shard,
            (from + CHECKPOINT_BYTES).min(received.len())
        )),
    }
}

/// A mixed completion reduced to what (c) needs once the halves' streams
/// are reassembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixedRecord {
    /// Shard and offset of the first half.
    pub first: (usize, u64),
    /// Shard and offset of the second half.
    pub second: (usize, u64),
    /// Bytes per half.
    pub half_len: usize,
    /// The halves' backends.
    pub backends: (BackendKind, BackendKind),
    /// The mixed bytes the client received.
    pub bytes: [u8; 16],
}

impl MixedRecord {
    /// The record of a mixed completion of at most 16 bytes.
    pub fn of(m: &MixedCompletion) -> Self {
        let mut bytes = [0u8; 16];
        bytes[..m.bytes.len()].copy_from_slice(&m.bytes);
        MixedRecord {
            first: (m.first.shard, m.first.stream_offset),
            second: (m.second.shard, m.second.stream_offset),
            half_len: m.first.bytes.len(),
            backends: (m.first.backend, m.second.backend),
            bytes,
        }
    }
}

/// (c): the mixed bytes equal `mix_reference` of the two halves as the
/// reassembled streams hold them, truncated, and the halves come from two
/// different backends.
pub fn check_mixed(m: &MixedRecord, requested: usize, images: &[&[u8]]) -> Result<(), String> {
    if m.backends.0 == m.backends.1 {
        return Err(format!(
            "mixed request drew both halves from {:?}",
            m.backends.0
        ));
    }
    let half = |(shard, offset): (usize, u64)| -> Option<&[u8]> {
        images
            .get(shard)?
            .get(offset as usize..offset as usize + m.half_len)
    };
    let (Some(a), Some(b)) = (half(m.first), half(m.second)) else {
        return Err(format!(
            "mixed completion: a half at {:?} or {:?} is not in its shard's stream",
            m.first, m.second
        ));
    };
    if b.len() != a.len() || mix_reference(a, b)[..requested] != m.bytes[..requested] {
        return Err(format!(
            "mixed completion (halves at shard {} +{}, shard {} +{}) differs from mix_reference",
            m.first.0, m.first.1, m.second.0, m.second.1
        ));
    }
    Ok(())
}

/// A built frame, reduced to what the deferred checksum check needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRecord {
    /// Serving shard.
    pub shard: usize,
    /// Offset of the payload in the shard's stream.
    pub offset: u64,
    /// Payload bytes.
    pub len: usize,
    /// The frame's checksum.
    pub checksum: [u8; 4],
}

fn frame_structure(
    c: &Completion,
    value: &[u8],
    checksum: [u8; 4],
    telemetry: SourceTelemetry,
    floor: u64,
) -> Result<FrameRecord, String> {
    let want = SourceTelemetry {
        shard: c.shard,
        backend: c.backend,
        epoch: c.epoch,
        stream_offset: c.stream_offset,
        fresh_bits: c.fresh_bits,
    };
    if c.bytes.get(..value.len()) != Some(value) || telemetry != want || c.fresh_bits < floor {
        return Err(format!(
            "frame from shard {} +{}: payload or telemetry does not match its completion",
            c.shard, c.stream_offset
        ));
    }
    Ok(FrameRecord {
        shard: c.shard,
        offset: c.stream_offset,
        len: value.len(),
        checksum,
    })
}

fn refusal(c: &Completion, e: ContractError, floor: u64) -> Result<Option<FrameRecord>, String> {
    match e {
        ContractError::InsufficientFreshBits { claimed, required }
            if claimed == c.fresh_bits && required == floor && claimed < required =>
        {
            Ok(None)
        }
        other => Err(format!(
            "frame from shard {} +{} refused wrongly: {other:?} (completion carries {} fresh bits)",
            c.shard, c.stream_offset, c.fresh_bits
        )),
    }
}

/// (d), the part made as a frame is redeemed: a built frame carries its
/// completion's payload and telemetry (returned as a record for the
/// checksum check), a refused one carries `claimed == fresh_bits <
/// required` (`None`). Integer comparisons only, so the window is not
/// charged for hashing.
pub fn check_trng32(
    c: &Completion,
    frame: Result<&Trng32, ContractError>,
) -> Result<Option<FrameRecord>, String> {
    match frame {
        Ok(f) => frame_structure(
            c,
            &f.value.to_le_bytes(),
            f.checksum,
            f.telemetry,
            TRNG32_MIN_FRESH_BITS,
        )
        .map(Some),
        Err(e) => refusal(c, e, TRNG32_MIN_FRESH_BITS),
    }
}

/// [`check_trng32`] for `Trng128` frames.
pub fn check_trng128(
    c: &Completion,
    frame: Result<&Trng128, ContractError>,
) -> Result<Option<FrameRecord>, String> {
    match frame {
        Ok(f) => {
            frame_structure(c, &f.value, f.checksum, f.telemetry, TRNG128_MIN_FRESH_BITS).map(Some)
        }
        Err(e) => refusal(c, e, TRNG128_MIN_FRESH_BITS),
    }
}

/// (d), after the window: the checksum equals the leading bytes of the
/// benchmark's own SHA-256 of the payload, read from the reassembled stream.
pub fn check_checksum(f: &FrameRecord, images: &[&[u8]]) -> Result<(), String> {
    let payload = images
        .get(f.shard)
        .and_then(|image| image.get(f.offset as usize..f.offset as usize + f.len))
        .ok_or(format!(
            "frame from shard {} +{}: payload is not in the stream",
            f.shard, f.offset
        ))?;
    if sha256::digest(payload)[..4] != f.checksum {
        return Err(format!(
            "frame from shard {} +{}: checksum is wrong",
            f.shard, f.offset
        ));
    }
    Ok(())
}

/// (e): per shard, claimed ≤ drawn, and the ledger's served bytes and
/// claimed bits equal what the client received from that shard.
pub fn check_ledger(stats: &ServiceStats, received: &[Received]) -> Result<(), String> {
    for (shard, (ledger, r)) in stats.per_shard_ledger.iter().zip(received).enumerate() {
        if ledger.fresh_bits_claimed > ledger.fresh_bits_drawn {
            return Err(format!(
                "shard {shard}: ledger claims {} fresh bits of {} drawn",
                ledger.fresh_bits_claimed, ledger.fresh_bits_drawn
            ));
        }
        if ledger.conditioned_bytes_served != r.len() || stats.per_shard_bytes[shard] != r.len() {
            return Err(format!(
                "shard {shard}: ledger served {} B, the client received {} B",
                ledger.conditioned_bytes_served,
                r.len()
            ));
        }
        if ledger.fresh_bits_claimed != r.fresh_bits {
            return Err(format!(
                "shard {shard}: ledger claimed {} fresh bits, completions carry {}",
                ledger.fresh_bits_claimed, r.fresh_bits
            ));
        }
    }
    Ok(())
}

/// (f): the service's per-shard `(validated, failed)` window counts equal
/// the serial regrading's.
pub fn check_windows(service: &[(u64, u64)], regraded: &[(u64, u64)]) -> Result<(), String> {
    if service.len() != regraded.len() {
        return Err(format!(
            "{} shards graded by the service, {} regraded",
            service.len(),
            regraded.len()
        ));
    }
    for (shard, (s, r)) in service.iter().zip(regraded).enumerate() {
        if s != r {
            return Err(format!(
                "shard {shard}: the service graded {} windows ({} failed), the serial regrading {} ({} failed)",
                s.0, s.1, r.0, r.1
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_rng_service::ClientId;

    /// A deterministic stand-in stream: byte `i` of shard `s` is
    /// `(i + 1000 s) · 7 mod 251`.
    fn stream(shard: usize, offset: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| ((offset + i + 1000 * shard as u64) * 7 % 251) as u8)
            .collect()
    }

    fn completion(
        shard: usize,
        backend: BackendKind,
        offset: u64,
        len: usize,
        fresh_bits: u64,
    ) -> Completion {
        Completion {
            client: ClientId(0),
            seq: offset,
            shard,
            epoch: 0,
            stream_offset: offset,
            fresh_bits,
            backend,
            bytes: stream(shard, offset, len),
        }
    }

    fn reference(shard: usize) -> impl FnMut(&mut [u8]) {
        let mut at = 0u64;
        move |out: &mut [u8]| {
            out.copy_from_slice(&stream(shard, at, out.len()));
            at += out.len() as u64;
        }
    }

    /// Shard 0's completions, out of order: [100, 150), [0, 100), [150, 180).
    fn served() -> Vec<Completion> {
        [(100, 50), (0, 100), (150, 30)]
            .into_iter()
            .map(|(offset, len)| completion(0, BackendKind::Quac, offset, len, 8 * len as u64))
            .collect()
    }

    fn receive(completions: &[Completion]) -> Received {
        let mut r = Received::new(0, true);
        for c in completions {
            r.push(c);
        }
        r
    }

    #[test]
    fn a_sound_stream_passes() {
        let r = receive(&served());
        assert!(r.errors.is_empty());
        r.gapless().unwrap();
        assert_eq!(r.len(), 180);
        assert_eq!(r.image.as_deref(), Some(&stream(0, 0, 180)[..]));
        compare_stream(&r, reference(0), |_| {}).unwrap();
    }

    #[test]
    fn one_flipped_byte_is_rejected() {
        let mut completions = served();
        completions[0].bytes[17] ^= 0x10;
        let r = receive(&completions);
        let err = compare_stream(&r, reference(0), |_| {}).unwrap_err();
        assert!(err.contains("differ"), "{err}");
    }

    #[test]
    fn a_dropped_completion_is_a_gap() {
        let mut completions = served();
        completions.remove(1);
        assert!(receive(&completions)
            .gapless()
            .unwrap_err()
            .contains("gap at offset 0"));
    }

    #[test]
    fn a_duplicated_completion_is_an_overlap() {
        let mut completions = served();
        completions.push(completions[1].clone());
        assert!(receive(&completions).errors[0].contains("overlap"));
        // Also when the duplicate is still waiting behind a gap.
        let early = completions[0].clone();
        assert!(receive(&[early.clone(), early]).errors[0].contains("overlap"));
    }

    #[test]
    fn a_restarted_stream_is_rejected() {
        let mut completions = served();
        completions[2].epoch = 1;
        assert!(receive(&completions).errors[0].contains("epoch"));
    }

    #[test]
    fn a_mix_of_the_wrong_halves_is_rejected() {
        let quac = stream(0, 0, 256);
        let drange = stream(1, 0, 256);
        let images: [&[u8]; 2] = [&quac, &drange];
        let first = completion(0, BackendKind::Quac, 64, 64, 600);
        let second = completion(1, BackendKind::DRange, 128, 64, 400);
        let mut bytes = mix_reference(&first.bytes, &second.bytes);
        bytes.truncate(16);
        let sound = MixedCompletion {
            first: first.clone(),
            second: second.clone(),
            bytes: bytes.clone(),
        };
        check_mixed(&MixedRecord::of(&sound), 16, &images).unwrap();
        let other = completion(1, BackendKind::DRange, 192, 64, 400);
        let swapped = MixedCompletion {
            first: first.clone(),
            second: other,
            bytes: bytes.clone(),
        };
        assert!(check_mixed(&MixedRecord::of(&swapped), 16, &images).is_err());
        let same_kind = MixedCompletion {
            first: first.clone(),
            second: first,
            bytes,
        };
        assert!(check_mixed(&MixedRecord::of(&same_kind), 16, &images).is_err());
    }

    #[test]
    fn frames_are_checked_against_an_independent_sha256() {
        let image = stream(1, 0, 64);
        let images: [&[u8]; 2] = [&[], &image];
        let c = completion(1, BackendKind::DRange, 8, 4, 40);
        let frame = Trng32::from_completion(&c).unwrap();
        let record = check_trng32(&c, Ok(&frame)).unwrap().unwrap();
        check_checksum(&record, &images).unwrap();
        let mut forged = record;
        forged.checksum[3] ^= 1;
        assert!(check_checksum(&forged, &images).is_err());
        let mut moved = frame;
        moved.telemetry.stream_offset += 4;
        assert!(check_trng32(&c, Ok(&moved)).is_err());

        let poor = completion(1, BackendKind::DRange, 8, 4, 25);
        let refusal = Trng32::from_completion(&poor).unwrap_err();
        assert_eq!(check_trng32(&poor, Err(refusal)), Ok(None));
        // A refusal that misreports the completion's budget is rejected.
        let lie = ContractError::InsufficientFreshBits {
            claimed: 24,
            required: 32,
        };
        assert!(check_trng32(&poor, Err(lie)).is_err());
    }

    #[test]
    fn a_ledger_that_disagrees_with_the_client_is_rejected() {
        let received = [receive(&served()), Received::new(1, false)];
        let mut stats = ServiceStats {
            per_shard_bytes: vec![180, 0],
            ..ServiceStats::default()
        };
        stats.per_shard_ledger = vec![Default::default(); 2];
        stats.per_shard_ledger[0].conditioned_bytes_served = 180;
        stats.per_shard_ledger[0].fresh_bits_claimed = 8 * 180;
        stats.per_shard_ledger[0].fresh_bits_drawn = 9 * 180;
        check_ledger(&stats, &received).unwrap();
        stats.per_shard_ledger[0].fresh_bits_drawn = 8 * 180 - 1;
        assert!(check_ledger(&stats, &received).is_err());
        stats.per_shard_ledger[0].fresh_bits_drawn = 9 * 180;
        stats.per_shard_ledger[1].conditioned_bytes_served = 1;
        assert!(check_ledger(&stats, &received).is_err());
    }

    #[test]
    fn a_window_count_off_by_one_is_rejected() {
        check_windows(&[(40, 1), (41, 0)], &[(40, 1), (41, 0)]).unwrap();
        assert!(check_windows(&[(40, 1), (41, 0)], &[(40, 1), (42, 0)]).is_err());
        assert!(check_windows(&[(40, 1), (41, 0)], &[(40, 2), (41, 0)]).is_err());
    }
}
