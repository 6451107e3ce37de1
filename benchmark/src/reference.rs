//! The reference kernel that `op_ref` is measured against.
//!
//! On the box this benchmark was built on, wall-clock time of one and the
//! same operation on one and the same input drifts by 20–50 % with the state
//! of the host, over seconds and over hours, and everything the process does
//! slows down or speeds up together. A fixed piece of work timed right
//! before and right after every operation tells the two apart: an operation
//! that takes 30 reference kernels takes 30 of them in either state.
//!
//! The kernel is shaped like the program it stands beside — hash lookups
//! with no locality over a table larger than the private caches, and a small
//! allocation per lookup — and calls nothing of the program, so no change
//! to the program can move it.

use std::collections::HashMap;
use std::time::Instant;

/// Entries of the lookup table (about 40 MB: far past the private caches).
const ENTRIES: u64 = 1_000_000;
/// Lookups per run of the kernel (about 30 ms: long enough that one
/// scheduling hiccup does not decide it).
const LOOKUPS: usize = 150_000;

#[derive(Debug)]
pub struct Reference {
    table: HashMap<u64, u64>,
    state: u64,
}

fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            table: (0..ENTRIES).map(|i| (key(i), i)).collect(),
            state: 1,
        }
    }

    /// Run the kernel once; returns its wall-clock in seconds.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..LOOKUPS {
            // xorshift: the next key depends on nothing the caches remember
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            acc = acc.wrapping_add(self.table[&key(self.state % ENTRIES)]);
            acc = acc.wrapping_add((acc % 1000).to_string().len() as u64);
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let mut r = Reference::new();
        assert_eq!(r.table.len() as u64, ENTRIES);
        assert!(r.run() > 0.0 && r.run() > 0.0);
    }
}
