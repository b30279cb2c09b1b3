//! The generator behind every seeded stream: ChaCha12 with a 64-bit block
//! counter on stream 0, read four blocks at a time through `rand_core`'s
//! block buffer, seeded by `rand_core`'s PCG32 expansion of a `u64`. This is
//! `rand` 0.8's `StdRng`, so a seed gives the published crate's draws.

/// A source of uniformly random words.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// A generator built from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// The generator keyed by all 32 seed bytes.
    fn from_seed(seed: [u8; 32]) -> Self;

    /// `rand_core`'s expansion of a `u64`: PCG32 output words fill the seed.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            chunk.copy_from_slice(&xorshifted.rotate_right(rot).to_le_bytes());
        }
        Self::from_seed(seed)
    }
}

const BLOCK_WORDS: usize = 16;
const BUF_WORDS: usize = 4 * BLOCK_WORDS;
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// The ChaCha block function with `rounds` rounds (a multiple of 2).
fn chacha_block(input: &[u32; 16], rounds: usize, out: &mut [u32]) {
    #[inline(always)]
    fn qr(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(16);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(12);
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(8);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(7);
    }
    let mut x = *input;
    for _ in 0..rounds / 2 {
        qr(&mut x, 0, 4, 8, 12);
        qr(&mut x, 1, 5, 9, 13);
        qr(&mut x, 2, 6, 10, 14);
        qr(&mut x, 3, 7, 11, 15);
        qr(&mut x, 0, 5, 10, 15);
        qr(&mut x, 1, 6, 11, 12);
        qr(&mut x, 2, 7, 8, 13);
        qr(&mut x, 3, 4, 9, 14);
    }
    for (o, (w, i)) in out.iter_mut().zip(x.iter().zip(input)) {
        *o = w.wrapping_add(*i);
    }
}

/// ChaCha12 keyed by the seed, read through a four-block buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StdRng {
    state: [u32; 16],
    buf: [u32; BUF_WORDS],
    index: usize,
}

impl StdRng {
    fn refill(&mut self) {
        for block in self.buf.chunks_mut(BLOCK_WORDS) {
            chacha_block(&self.state, 12, block);
            let ctr = (u64::from(self.state[13]) << 32 | u64::from(self.state[12])) + 1;
            self.state[12] = ctr as u32;
            self.state[13] = (ctr >> 32) as u32;
        }
    }
}

impl RngCore for StdRng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
            self.index = 0;
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    fn next_u64(&mut self) -> u64 {
        let i = self.index;
        if i < BUF_WORDS - 1 {
            self.index += 2;
            u64::from(self.buf[i + 1]) << 32 | u64::from(self.buf[i])
        } else if i >= BUF_WORDS {
            self.refill();
            self.index = 2;
            u64::from(self.buf[1]) << 32 | u64::from(self.buf[0])
        } else {
            // One word left: it becomes the low half, the refill the high.
            let lo = u64::from(self.buf[BUF_WORDS - 1]);
            self.refill();
            self.index = 1;
            u64::from(self.buf[0]) << 32 | lo
        }
    }
}

impl SeedableRng for StdRng {
    fn from_seed(seed: [u8; 32]) -> StdRng {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        for (w, b) in state[4..12].iter_mut().zip(seed.chunks(4)) {
            *w = u32::from_le_bytes(b.try_into().expect("4 bytes"));
        }
        StdRng {
            state,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 7539 §2.3.2's key `00 01 .. 1f`, counter 1, nonce
    /// `00:00:00:09 00:00:00:4a 00:00:00:00`.
    fn rfc7539_input() -> [u32; 16] {
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&SIGMA);
        for (i, w) in input[4..12].iter_mut().enumerate() {
            let b = (4 * i) as u8;
            *w = u32::from_le_bytes([b, b + 1, b + 2, b + 3]);
        }
        input[12] = 1;
        input[13] = 0x0900_0000;
        input[14] = 0x4a00_0000;
        input
    }

    #[test]
    fn chacha20_matches_rfc7539_block_function_vector() {
        let mut out = [0u32; 16];
        chacha_block(&rfc7539_input(), 20, &mut out);
        assert_eq!(
            out,
            [
                0xe4e7f110, 0x15593bd1, 0x1fdd0f50, 0xc47120a3, 0xc7f4d1c7, 0x0368c033, 0x9aaa2204,
                0x4e6cd4c3, 0x466482d2, 0x09aa9f07, 0x05d7c214, 0xa2028bd9, 0xd19c12b5, 0xb94e16de,
                0xe883d0cb, 0x4e3c50a2
            ]
        );
    }

    #[test]
    fn chacha20_matches_rfc7539_zero_key_block() {
        // RFC 7539 appendix A.1, test vector #1: all-zero key, nonce and
        // counter.
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&SIGMA);
        let mut out = [0u32; 16];
        chacha_block(&input, 20, &mut out);
        assert_eq!(
            out,
            [
                0xade0b876, 0x903df1a0, 0xe56a5d40, 0x28bd8653, 0xb819d2bd, 0x1aed8da0, 0xccef36a8,
                0xc70d778b, 0x7c5941da, 0x8d485751, 0x3fe02477, 0x374ad8b8, 0xf4b8436a, 0x1ca11815,
                0x69b687c3, 0x8665eeb2
            ]
        );
    }

    #[test]
    fn stdrng_value_stability() {
        // `rand` 0.8's own value-stability check for `StdRng`: the second
        // generator is seeded from 32 bytes of the first one's stream.
        let mut seed = [0u8; 32];
        seed[..16].copy_from_slice(&[1, 0, 0, 0, 23, 0, 0, 0, 200, 1, 0, 0, 210, 30, 0, 0]);
        let mut rng0 = StdRng::from_seed(seed);
        let x0 = rng0.next_u64();
        let mut seed1 = [0u8; 32];
        for chunk in seed1.chunks_mut(4) {
            chunk.copy_from_slice(&rng0.next_u32().to_le_bytes());
        }
        let x1 = StdRng::from_seed(seed1).next_u64();
        assert_eq!([x0, x1], [10719222850664546238, 14064965282130556830]);
    }

    #[test]
    fn u64_reads_straddle_the_buffer_edge_in_word_order() {
        // 63 u32 reads leave one buffered word; the next u64 takes it as
        // its low half and the first word of the refill as its high half.
        let mut words = StdRng::seed_from_u64(5);
        let stream: Vec<u32> = (0..66).map(|_| words.next_u32()).collect();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..63 {
            rng.next_u32();
        }
        assert_eq!(
            rng.next_u64(),
            u64::from(stream[64]) << 32 | u64::from(stream[63])
        );
        assert_eq!(rng.next_u32(), stream[65]);
    }
}
