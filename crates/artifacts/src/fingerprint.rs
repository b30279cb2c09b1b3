//! 128-bit FNV-1a content hashes.
//!
//! One hash function names content everywhere in the pipeline:
//!
//! * a message's content hash, which the store dedups on;
//! * the blob address of every captured artifact (message bytes, and a
//!   screenshot's `CBXBMP1` bytes from `Bitmap::to_bytes`);
//! * the key of the artifact-decode memo (campaign generators reuse
//!   attachment bytes across messages) and of the screenshot-analysis
//!   cache, which is keyed by the screenshot's blob address, so the one
//!   pixel hash serves both jobs;
//! * a screenshot's page key (`cb_browser::Screenshot::key`, the hash of
//!   the page source the shot is drawn from), which maps to the blob
//!   address so a page seen before is never hashed at pixel level again.
//!
//! FNV-1a is deterministic across runs and platforms — a requirement for
//! the cache-purity invariant (DESIGN.md §8) — and at 128 bits accidental
//! collisions are out of reach for any corpus this simulation produces.

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// 128-bit FNV-1a hash of a byte slice.
pub fn fnv128(data: &[u8]) -> u128 {
    fnv128_iter(data.iter().copied())
}

/// 128-bit FNV-1a hash of a byte stream — for content that is not
/// contiguous in memory (pixel channels, composite keys).
pub fn fnv128_iter(bytes: impl IntoIterator<Item = u8>) -> u128 {
    let mut h = FNV_OFFSET;
    for b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_input_sensitive() {
        assert_eq!(fnv128(b"abc"), fnv128(b"abc"));
        assert_ne!(fnv128(b"abc"), fnv128(b"abd"));
        assert_ne!(fnv128(b""), fnv128(b"\0"));
        // Matches the iterator form.
        assert_eq!(fnv128(b"payload"), fnv128_iter(b"payload".iter().copied()));
    }

    #[test]
    fn known_empty_hash_is_offset_basis() {
        assert_eq!(fnv128(b""), 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d);
    }
}
