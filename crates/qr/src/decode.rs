//! Full QR decoding: format recovery, unmasking, de-interleaving,
//! Reed–Solomon correction, and byte-mode segment parsing.

use crate::bits::BitReader;
use crate::matrix::QrMatrix;
use crate::reed_solomon;
use crate::tables::{block_info, byte_mode_count_bits, BlockInfo};
use std::fmt;

/// Errors from decoding a matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Neither format-information copy could be decoded.
    BadFormat,
    /// A block had more errors than its Reed–Solomon code can correct.
    Uncorrectable {
        /// Index of the failing block.
        block: usize,
    },
    /// The data stream did not start with a byte-mode segment.
    UnsupportedMode {
        /// The 4-bit mode indicator found.
        mode: u8,
    },
    /// The declared payload length exceeds the available data.
    Truncated,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadFormat => write!(f, "format information unreadable"),
            DecodeError::Uncorrectable { block } => {
                write!(f, "block {block} has uncorrectable errors")
            }
            DecodeError::UnsupportedMode { mode } => {
                write!(f, "unsupported mode indicator {mode:04b}")
            }
            DecodeError::Truncated => write!(f, "payload truncated"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Reverse the encoder's interleaving, restoring per-block codewords
/// `(data ‖ parity)`.
fn deinterleave(stream: &[u8], info: &BlockInfo) -> Vec<Vec<u8>> {
    let num_blocks = info.g1_blocks + info.g2_blocks;
    let block_data_len = |i: usize| {
        if i < info.g1_blocks {
            info.g1_data
        } else {
            info.g2_data
        }
    };
    let mut blocks: Vec<Vec<u8>> = (0..num_blocks)
        .map(|i| Vec::with_capacity(block_data_len(i) + info.ec_per_block))
        .collect();
    let max_data = info.g1_data.max(info.g2_data);
    let mut pos = 0;
    for col in 0..max_data {
        for (i, block) in blocks.iter_mut().enumerate() {
            if col < block_data_len(i) {
                block.push(stream[pos]);
                pos += 1;
            }
        }
    }
    // parity region
    let mut parities: Vec<Vec<u8>> = vec![Vec::with_capacity(info.ec_per_block); num_blocks];
    for _col in 0..info.ec_per_block {
        for parity in parities.iter_mut() {
            parity.push(stream[pos]);
            pos += 1;
        }
    }
    for (block, parity) in blocks.iter_mut().zip(parities) {
        block.extend(parity);
    }
    blocks
}

/// Decode a QR matrix back to its byte payload.
///
/// # Errors
///
/// Returns [`DecodeError`] if the format information is unreadable, any
/// block is uncorrectable, or the segment is not byte-mode.
pub fn decode_matrix(matrix: &QrMatrix) -> Result<Vec<u8>, DecodeError> {
    let (level, mask) = matrix.read_format().ok_or(DecodeError::BadFormat)?;
    let version = matrix.version();
    let info = block_info(version, level);

    // Unmask a working copy, then read the zigzag bit stream.
    let mut work = matrix.clone();
    work.apply_mask(mask);
    let bits = work.extract_data_bits();
    let mut stream = vec![0u8; info.total_codewords()];
    for (i, chunk) in bits.chunks(8).take(stream.len()).enumerate() {
        let mut b = 0u8;
        for (j, &bit) in chunk.iter().enumerate() {
            if bit {
                b |= 1 << (7 - j);
            }
        }
        stream[i] = b;
    }

    // De-interleave and error-correct each block.
    let mut data = Vec::with_capacity(info.total_data());
    for (idx, mut block) in deinterleave(&stream, &info).into_iter().enumerate() {
        let data_len = block.len() - info.ec_per_block;
        reed_solomon::correct(&mut block, info.ec_per_block)
            .map_err(|_| DecodeError::Uncorrectable { block: idx })?;
        data.extend_from_slice(&block[..data_len]);
    }

    // Parse the byte-mode segment.
    let mut r = BitReader::new(&data);
    let mode = r.read(4).ok_or(DecodeError::Truncated)? as u8;
    if mode == 0 {
        // terminator: empty message
        return Ok(Vec::new());
    }
    if mode != 0b0100 {
        return Err(DecodeError::UnsupportedMode { mode });
    }
    let count = r
        .read(byte_mode_count_bits(version))
        .ok_or(DecodeError::Truncated)? as usize;
    let mut payload = Vec::with_capacity(count);
    for _ in 0..count {
        payload.push(r.read(8).ok_or(DecodeError::Truncated)? as u8);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_bytes;
    use crate::tables::EcLevel;

    #[test]
    fn round_trip_all_levels() {
        let payload = b"https://evil-site.example/dhfYWfH?user=victim";
        for level in [EcLevel::L, EcLevel::M, EcLevel::Q, EcLevel::H] {
            let s = encode_bytes(payload, level).unwrap();
            assert_eq!(decode_matrix(s.matrix()).unwrap(), payload, "{level:?}");
        }
    }

    #[test]
    fn round_trip_every_supported_version() {
        // Grow payloads to force each version at level L.
        for v in 1..=10usize {
            let cap = crate::encode::byte_capacity(v, EcLevel::L);
            let prev = if v == 1 {
                0
            } else {
                crate::encode::byte_capacity(v - 1, EcLevel::L)
            };
            let len = (prev + cap) / 2 + 1;
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let s = encode_bytes(&payload, EcLevel::L).unwrap();
            assert_eq!(s.version(), v, "expected version {v}");
            assert_eq!(decode_matrix(s.matrix()).unwrap(), payload);
        }
    }

    #[test]
    fn round_trip_binary_payload() {
        let payload: Vec<u8> = (0..=255).collect();
        let s = encode_bytes(&payload, EcLevel::L).unwrap();
        assert_eq!(decode_matrix(s.matrix()).unwrap(), payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        let s = encode_bytes(b"", EcLevel::M).unwrap();
        assert_eq!(decode_matrix(s.matrix()).unwrap(), b"");
    }

    #[test]
    fn module_damage_is_corrected() {
        let payload = b"https://evil-site.example/";
        let s = encode_bytes(payload, EcLevel::H).unwrap();
        let mut damaged = s.matrix().clone();
        // Flip a handful of data modules (simulating print damage / dirt).
        let positions = damaged.data_positions();
        for &(r, c) in positions.iter().step_by(positions.len() / 10).take(8) {
            let v = damaged.get(r, c);
            damaged.set(r, c, !v);
        }
        assert_eq!(decode_matrix(&damaged).unwrap(), payload);
    }

    #[test]
    fn heavy_damage_is_rejected_not_miscorrected() {
        let payload = b"https://ok.example/";
        let s = encode_bytes(payload, EcLevel::L).unwrap();
        let mut damaged = s.matrix().clone();
        for &(r, c) in damaged.data_positions().iter().step_by(2) {
            let v = damaged.get(r, c);
            damaged.set(r, c, !v);
        }
        match decode_matrix(&damaged) {
            Err(_) => {}
            Ok(p) => assert_ne!(p, payload.to_vec(), "silent miscorrection to original"),
        }
    }

    #[test]
    fn format_damage_is_tolerated() {
        let payload = b"resilient";
        let s = encode_bytes(payload, EcLevel::M).unwrap();
        let mut damaged = s.matrix().clone();
        // Corrupt two bits of format copy 1; BCH decoding must survive.
        let v = damaged.get(8, 0);
        damaged.set(8, 0, !v);
        let v = damaged.get(8, 1);
        damaged.set(8, 1, !v);
        assert_eq!(decode_matrix(&damaged).unwrap(), payload);
    }

    #[test]
    fn deinterleave_inverts_interleave() {
        for (v, l) in [(3, EcLevel::Q), (8, EcLevel::M), (10, EcLevel::L)] {
            let info = block_info(v, l);
            let data: Vec<u8> = (0..info.total_data())
                .map(|i| (i * 7 % 256) as u8)
                .collect();
            let stream = crate::encode::interleave(&data, &info);
            let blocks = deinterleave(&stream, &info);
            let mut reassembled = Vec::new();
            for (i, b) in blocks.iter().enumerate() {
                let dl = if i < info.g1_blocks {
                    info.g1_data
                } else {
                    info.g2_data
                };
                reassembled.extend_from_slice(&b[..dl]);
            }
            assert_eq!(reassembled, data, "v{v} {l:?}");
        }
    }
}
