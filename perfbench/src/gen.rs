//! Seeded input generation. Every input a workload sends is derived from
//! the `--seed` argument through this generator, so the same seed always
//! yields the same byte sequences.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that two
    /// inputs drawn from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A string of `len` printable ASCII bytes (0x20..=0x7E), every byte
/// value equally likely: quotes, backslashes and `~` included.
pub fn printable(rng: &mut Rng, len: usize) -> String {
    (0..len).map(|_| char::from(b' ' + rng.below(95) as u8)).collect()
}

/// Like [`printable`], but with a `"`, a `\` and a `~` planted at seeded
/// positions, so every string exercises the text protocol's escaping.
/// `len` must be at least 3.
pub fn printable_with_specials(rng: &mut Rng, len: usize) -> String {
    let mut bytes = printable(rng, len).into_bytes();
    for special in [b'"', b'\\', b'~'] {
        let at = rng.below(len as u64) as usize;
        bytes[at] = special;
    }
    String::from_utf8(bytes).expect("printable ASCII is UTF-8")
}

/// A fast 64-bit checksum of `bytes` (word-at-a-time multiply-xor).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = printable_with_specials(&mut Rng::new(7, 1), 300);
        let b = printable_with_specials(&mut Rng::new(7, 1), 300);
        let c = printable_with_specials(&mut Rng::new(8, 1), 300);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.contains('"') && a.contains('\\') && a.contains('~'));
        assert!(a.bytes().all(|b| (0x20..=0x7E).contains(&b)));
    }

    #[test]
    fn checksum_sees_every_byte() {
        let base = printable(&mut Rng::new(1, 2), 2048);
        let mut bytes = base.clone().into_bytes();
        bytes[2047] ^= 1;
        assert_ne!(checksum(base.as_bytes()), checksum(&bytes));
    }
}
