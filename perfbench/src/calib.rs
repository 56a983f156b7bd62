//! The host-speed reference: a fixed kernel, timed before and after every
//! unit of an untraced run, that scales each end-to-end timing to one
//! nominal host speed.
//!
//! The benchmark's host runs a core at full speed one moment and at half
//! of it the next, in phases of seconds to minutes (neighbours busy on
//! shared cores). Timed alone, a unit measures the host as much as the
//! program. The kernel does the same kind of work as the program (string
//! n-grams counted in a hash map) and none of the program's code, so its
//! time tracks the host's speed and no change to the program moves it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// A fixed-key hasher, so every process's kernel does the same work.
type FixedState = BuildHasherDefault<DefaultHasher>;

/// The kernel's time on an undisturbed core of the reference host, a
/// 2-vCPU Firecracker VM on a Xeon. A scaled timing is the time the unit
/// would have taken had the kernel run at this speed around it.
pub const NOMINAL_S: f64 = 0.020;

/// Words the kernel's fixed text is drawn from.
const WORDS: [&str; 15] = [
    "vendor", "shipping", "stealth", "molly", "quality", "review", "escrow", "pgp", "market",
    "order", "the", "and", "was", "good", "fast",
];
const TEXT_WORDS: usize = 20_000;
const PASSES: usize = 5;

/// The reference kernel and its fixed input.
#[derive(Debug)]
pub struct Reference {
    text: Vec<u8>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut x: u64 = 0x1234_5678;
        let mut text = Vec::new();
        for _ in 0..TEXT_WORDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            text.extend_from_slice(WORDS[(x % WORDS.len() as u64) as usize].as_bytes());
            text.push(b' ');
        }
        Reference { text }
    }

    /// Wall time of one run of the kernel: the text's char 4-grams
    /// counted into a `HashMap<String, u32>` and sorted, five times.
    pub fn time(&self) -> f64 {
        let t = Instant::now();
        for _ in 0..PASSES {
            let mut counts: HashMap<String, u32, FixedState> = HashMap::default();
            for gram in self.text.windows(4) {
                *counts
                    .entry(String::from_utf8_lossy(gram).into_owned())
                    .or_insert(0) += 1;
            }
            let mut sorted: Vec<(String, u32)> = counts.into_iter().collect();
            sorted.sort_unstable();
            std::hint::black_box(&sorted);
        }
        t.elapsed().as_secs_f64()
    }
}

/// `raw` seconds scaled to the nominal speed, given the kernel's times
/// just before and just after them.
pub fn scale(raw: f64, before: f64, after: f64) -> f64 {
    raw * NOMINAL_S * 2.0 / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_kernels_slowdown() {
        assert_eq!(scale(3.0, NOMINAL_S, NOMINAL_S), 3.0);
        assert!((scale(3.0, 2.0 * NOMINAL_S, 4.0 * NOMINAL_S) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_input_is_fixed() {
        let (a, b) = (Reference::new(), Reference::new());
        assert_eq!(a.text, b.text);
        assert!(a.time() > 0.0);
    }
}
