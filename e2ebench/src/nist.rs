//! Serial regrading of served streams in 50 kb windows: the check of the
//! service's validation counts on `validated_16k`, and the per-test timing
//! of the traced runs.

use qt_dram_core::BitVec;
use qt_nist_sts::tests15 as t;
use qt_nist_sts::{run_all_tests_serial, Significance, TestResult, TEST_NAMES};
use std::time::Instant;

/// Window size of the service's validator (its default).
pub const WINDOW_BITS: usize = 50_000;
const WINDOW_BYTES: usize = WINDOW_BITS / 8;

/// Windows per shard whose p-values are recomputed through the scalar
/// `*_reference` twins.
const REFERENCE_WINDOWS: u64 = 2;

/// Test `index` of the battery, with the parameters `run_all_tests_serial`
/// uses, through the fast path or the frozen scalar twin.
fn run_one(index: usize, reference: bool, bits: &BitVec) -> TestResult {
    match (index, reference) {
        (0, false) => t::monobit(bits),
        (0, true) => t::monobit_reference(bits),
        (1, false) => t::frequency_within_block(bits, 128),
        (1, true) => t::frequency_within_block_reference(bits, 128),
        (2, false) => t::runs(bits),
        (2, true) => t::runs_reference(bits),
        (3, false) => t::longest_run_of_ones(bits),
        (3, true) => t::longest_run_of_ones_reference(bits),
        (4, false) => t::binary_matrix_rank(bits),
        (4, true) => t::binary_matrix_rank_reference(bits),
        (5, false) => t::dft(bits),
        (5, true) => t::dft_reference(bits),
        (6, false) => t::non_overlapping_template_matching(bits, 9),
        (6, true) => t::non_overlapping_template_matching_reference(bits, 9),
        (7, false) => t::overlapping_template_matching(bits, 9),
        (7, true) => t::overlapping_template_matching_reference(bits, 9),
        (8, false) => t::maurers_universal(bits),
        (8, true) => t::maurers_universal_reference(bits),
        (9, false) => t::linear_complexity(bits, 500),
        (9, true) => t::linear_complexity_reference(bits, 500),
        (10, false) => t::serial(bits, 16),
        (10, true) => t::serial_reference(bits, 16),
        (11, false) => t::approximate_entropy(bits, 10),
        (11, true) => t::approximate_entropy_reference(bits, 10),
        (12, false) => t::cumulative_sums(bits),
        (12, true) => t::cumulative_sums_reference(bits),
        (13, false) => t::random_excursion(bits),
        (13, true) => t::random_excursion_reference(bits),
        (14, false) => t::random_excursion_variant(bits),
        (14, true) => t::random_excursion_variant_reference(bits),
        _ => unreachable!("test index {index} out of range"),
    }
}

fn same(a: &TestResult, b: &TestResult) -> bool {
    a.name == b.name
        && a.applicability == b.applicability
        && a.p_value.to_bits() == b.p_value.to_bits()
}

/// One shard's regrading.
#[derive(Debug)]
pub struct Regrader {
    /// Stop grading after this many windows (`u64::MAX`: grade them all).
    limit: u64,
    /// Time each of the 15 tests on this many windows.
    timed_windows: u64,
    pending: Vec<u8>,
    /// Windows graded.
    pub windows: u64,
    /// Windows that failed at α = 0.001.
    pub failed: u64,
    /// `run_all_tests_serial` time per window, ms.
    pub window_ms: Vec<f64>,
    /// Per test (in `TEST_NAMES` order), µs per timed window.
    pub test_us: Vec<Vec<f64>>,
    /// Disagreements between the serial battery and its per-test replicas.
    pub errors: Vec<String>,
}

impl Regrader {
    /// A regrader of at most `limit` windows that times every test on the
    /// first `timed_windows` of them.
    pub fn new(limit: u64, timed_windows: u64) -> Self {
        Regrader {
            limit,
            timed_windows,
            pending: Vec::with_capacity(WINDOW_BYTES),
            windows: 0,
            failed: 0,
            window_ms: Vec::new(),
            test_us: vec![Vec::new(); TEST_NAMES.len()],
            errors: Vec::new(),
        }
    }

    /// Feeds the next bytes of the shard's stream.
    pub fn push(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() && self.windows < self.limit {
            let take = (WINDOW_BYTES - self.pending.len()).min(bytes.len());
            self.pending.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.pending.len() == WINDOW_BYTES {
                let bits = BitVec::from_bytes(&self.pending, WINDOW_BITS);
                self.pending.clear();
                self.grade(&bits);
            }
        }
    }

    fn grade(&mut self, bits: &BitVec) {
        let t0 = Instant::now();
        let results = run_all_tests_serial(bits);
        self.window_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if !results.iter().all(|r| r.passes(Significance::PAPER)) {
            self.failed += 1;
        }
        let index = self.windows;
        self.windows += 1;
        if index < REFERENCE_WINDOWS {
            for (i, serial) in results.iter().enumerate() {
                if !same(serial, &run_one(i, true, bits)) {
                    self.errors.push(format!(
                        "window {index}: {} differs from its reference twin",
                        TEST_NAMES[i]
                    ));
                }
            }
        }
        if index < self.timed_windows {
            for (i, serial) in results.iter().enumerate() {
                let t = Instant::now();
                let result = run_one(i, false, bits);
                self.test_us[i].push(t.elapsed().as_secs_f64() * 1e6);
                if !same(serial, &result) {
                    self.errors.push(format!(
                        "window {index}: {} differs from the serial battery",
                        TEST_NAMES[i]
                    ));
                }
            }
        }
    }
}
