//! FNV-1a (64-bit) over a workload's simulated outputs.
//!
//! The digest covers what the paper's tables report — query times or the
//! failure kind, achieved throughput, latency statistics, crashes — and
//! nothing about how the simulator got there: kernel event counts stay out,
//! so batching or eliding events remains a legal optimisation.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Hash a float by its exact bits, so any drift in the last place shows.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_bits_matter() {
        let mut a = Fnv::default();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::default();
        c.f64(0.1 + 0.2);
        let mut d = Fnv::default();
        d.f64(0.3);
        assert_ne!(c.finish(), d.finish(), "one ulp apart must differ");
    }
}
