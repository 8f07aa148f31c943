//! Small numeric helpers: exact percentiles, medians, an interpolated
//! quantile of the service's log₂ histograms, a byte-stream fingerprint,
//! and the seeded generator the workloads draw their inputs from.

use qt_rng_service::Histogram;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(&mut values.to_vec(), 0.5)
}

/// The `q`-quantile of a log₂ histogram, interpolated linearly inside the
/// bucket that holds it (bucket 0 holds zeros, bucket `i ≥ 1` holds
/// `[2^(i−1), 2^i)`). The histogram's own `quantile_upper_bound` reports the
/// bucket edge, which is the same number on most runs; interpolating keeps
/// the estimate continuous.
pub fn histogram_quantile(hist: &Histogram, q: f64) -> f64 {
    if hist.count() == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * hist.count() as f64;
    let mut seen = 0.0;
    for (i, &count) in hist.buckets().iter().enumerate() {
        let count = count as f64;
        if count > 0.0 && seen + count >= target {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u64 << (i - 1)) as f64;
            let hi = ((1u64 << i) as f64).min(hist.max() as f64 + 1.0).max(lo);
            return lo + (hi - lo) * ((target - seen) / count);
        }
        seen += count;
    }
    hist.max() as f64
}

/// Stream positions at which [`StreamHasher`] records a checkpoint.
pub const CHECKPOINT_BYTES: u64 = 4 << 20;

/// A 64-bit fingerprint of a byte stream that does not depend on how the
/// stream is sliced, with a checkpoint every [`CHECKPOINT_BYTES`], so a
/// client can check every served byte against a serial reference without
/// keeping the stream in memory, and a mismatch is located to a span.
#[derive(Debug, Clone, Default)]
pub struct StreamHasher {
    h: u64,
    word: [u8; 8],
    fill: usize,
    len: u64,
    /// The fingerprint at each multiple of [`CHECKPOINT_BYTES`].
    pub checkpoints: Vec<u64>,
}

impl StreamHasher {
    fn mix(&mut self, w: u64) {
        const M: u64 = 0x9E37_79B9_7F4A_7C15;
        self.h = (self.h ^ w).wrapping_mul(M).rotate_left(31);
    }

    fn push_byte(&mut self, b: u8) {
        self.word[self.fill] = b;
        self.fill += 1;
        if self.fill == 8 {
            let w = u64::from_le_bytes(self.word);
            self.mix(w);
            self.fill = 0;
        }
    }

    /// Hashes `bytes` as little-endian words continuing the stream position.
    fn absorb(&mut self, mut bytes: &[u8]) {
        while self.fill != 0 && !bytes.is_empty() {
            self.push_byte(bytes[0]);
            bytes = &bytes[1..];
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.push_byte(b);
        }
    }

    /// Appends bytes.
    pub fn update(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let to_checkpoint = CHECKPOINT_BYTES - self.len % CHECKPOINT_BYTES;
            let take = to_checkpoint.min(bytes.len() as u64) as usize;
            self.absorb(&bytes[..take]);
            self.len += take as u64;
            bytes = &bytes[take..];
            if self.len % CHECKPOINT_BYTES == 0 {
                self.checkpoints.push(self.h);
            }
        }
    }

    /// The fingerprint of everything hashed so far.
    pub fn finish(&self) -> u64 {
        let mut tail = [0u8; 8];
        tail[..self.fill].copy_from_slice(&self.word[..self.fill]);
        let h = (self.h ^ u64::from_le_bytes(tail) ^ self.len.rotate_left(17))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 29)
    }
}

/// SplitMix64: the workloads' seeded input generator.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 4.0);
        assert_eq!(percentile(&mut v, 0.5), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn histogram_quantile_stays_inside_its_bucket() {
        let mut h = Histogram::new();
        for v in [100, 110, 120, 130] {
            h.record(v);
        }
        let p50 = histogram_quantile(&h, 0.5);
        assert!((64.0..=131.0).contains(&p50), "{p50}");
    }

    fn hash(parts: &[&[u8]]) -> StreamHasher {
        let mut h = StreamHasher::default();
        for p in parts {
            h.update(p);
        }
        h
    }

    #[test]
    fn stream_hash_ignores_slicing_and_sees_a_flipped_bit() {
        let a: Vec<u8> = (0..1000u32).map(|i| (i * 13 % 256) as u8).collect();
        let whole = hash(&[&a]).finish();
        assert_eq!(whole, hash(&[&a[..3], &a[3..500], &a[500..]]).finish());
        let mut b = a.clone();
        b[999] ^= 1;
        assert_ne!(whole, hash(&[&b]).finish());
        assert_ne!(hash(&[&a[..8]]).finish(), hash(&[&a[..9]]).finish());
    }
}
