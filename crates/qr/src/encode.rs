//! Byte-mode QR encoding: segment bit stream, block splitting, Reed–Solomon
//! parity, interleaving, mask selection.

use crate::bits::BitWriter;
use crate::matrix::QrMatrix;
use crate::reed_solomon;
use crate::tables::{block_info, byte_mode_count_bits, BlockInfo, EcLevel, MAX_VERSION};
use std::fmt;

/// Byte-mode indicator.
const MODE_BYTE: u32 = 0b0100;
/// Alternating pad codewords from the spec.
const PAD_BYTES: [u8; 2] = [0xEC, 0x11];

/// Errors from encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// The payload exceeds the capacity of version [`MAX_VERSION`] at the
    /// requested EC level.
    TooLong {
        /// Payload length in bytes.
        len: usize,
        /// Maximum supported at this level.
        max: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::TooLong { len, max } => {
                write!(f, "payload of {len} bytes exceeds capacity {max}")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// A fully encoded QR symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QrSymbol {
    matrix: QrMatrix,
    version: usize,
    level: EcLevel,
    mask: u8,
}

impl QrSymbol {
    /// The module grid.
    pub fn matrix(&self) -> &QrMatrix {
        &self.matrix
    }

    /// Symbol version.
    pub fn version(&self) -> usize {
        self.version
    }

    /// Error-correction level.
    pub fn level(&self) -> EcLevel {
        self.level
    }

    /// The mask pattern that won penalty selection.
    pub fn mask(&self) -> u8 {
        self.mask
    }
}

/// Byte capacity of `(version, level)` for a single byte-mode segment.
pub fn byte_capacity(version: usize, level: EcLevel) -> usize {
    let capacity_bits = block_info(version, level).total_data() * 8;
    let overhead = 4 + byte_mode_count_bits(version);
    capacity_bits.saturating_sub(overhead) / 8
}

/// Smallest version that fits `len` payload bytes at `level`.
fn choose_version(len: usize, level: EcLevel) -> Result<usize, EncodeError> {
    for v in 1..=MAX_VERSION {
        if byte_capacity(v, level) >= len {
            return Ok(v);
        }
    }
    Err(EncodeError::TooLong {
        len,
        max: byte_capacity(MAX_VERSION, level),
    })
}

/// Build the padded data-codeword sequence for `payload`.
fn build_data_codewords(payload: &[u8], version: usize, level: EcLevel) -> Vec<u8> {
    let info = block_info(version, level);
    let capacity_bits = info.total_data() * 8;
    let mut w = BitWriter::new();
    w.push(MODE_BYTE, 4);
    w.push(payload.len() as u32, byte_mode_count_bits(version));
    for &b in payload {
        w.push(b as u32, 8);
    }
    // Terminator: up to 4 zero bits.
    let terminator = (capacity_bits - w.len()).min(4);
    w.push(0, terminator);
    // Pad to byte boundary.
    let to_byte = (8 - w.len() % 8) % 8;
    w.push(0, to_byte);
    let mut codewords = w.to_bytes();
    // Pad codewords alternating 0xEC / 0x11.
    let mut i = 0;
    while codewords.len() < info.total_data() {
        codewords.push(PAD_BYTES[i % 2]);
        i += 1;
    }
    codewords
}

/// Split data codewords into blocks, append RS parity, and interleave.
pub(crate) fn interleave(data: &[u8], info: &BlockInfo) -> Vec<u8> {
    // Partition into blocks.
    let mut blocks: Vec<&[u8]> = Vec::new();
    let mut offset = 0;
    for _ in 0..info.g1_blocks {
        blocks.push(&data[offset..offset + info.g1_data]);
        offset += info.g1_data;
    }
    for _ in 0..info.g2_blocks {
        blocks.push(&data[offset..offset + info.g2_data]);
        offset += info.g2_data;
    }
    let parities: Vec<Vec<u8>> = blocks
        .iter()
        .map(|b| reed_solomon::encode(b, info.ec_per_block))
        .collect();

    let max_data = info.g1_data.max(info.g2_data);
    let mut out = Vec::with_capacity(info.total_codewords());
    for col in 0..max_data {
        for b in &blocks {
            if col < b.len() {
                out.push(b[col]);
            }
        }
    }
    for col in 0..info.ec_per_block {
        for p in &parities {
            out.push(p[col]);
        }
    }
    out
}

/// Encode `payload` in byte mode at the given EC level, selecting the
/// smallest fitting version (1–10) and the penalty-optimal mask.
///
/// # Errors
///
/// Returns [`EncodeError::TooLong`] if the payload does not fit version 10.
pub fn encode_bytes(payload: &[u8], level: EcLevel) -> Result<QrSymbol, EncodeError> {
    let version = choose_version(payload.len(), level)?;
    let info = block_info(version, level);
    let data = build_data_codewords(payload, version, level);
    debug_assert_eq!(data.len(), info.total_data());
    let stream = interleave(&data, &info);

    let bits: Vec<bool> = stream
        .iter()
        .flat_map(|&b| (0..8).rev().map(move |i| b >> i & 1 == 1))
        .collect();

    let mut best: Option<(u32, QrMatrix, u8)> = None;
    for mask in 0..8u8 {
        let mut m = QrMatrix::new(version);
        m.place_data(&bits);
        m.apply_mask(mask);
        m.write_format(level, mask);
        let p = m.penalty();
        if best.as_ref().map(|(bp, _, _)| p < *bp).unwrap_or(true) {
            best = Some((p, m, mask));
        }
    }
    let (_, matrix, mask) = best.expect("eight masks evaluated");
    Ok(QrSymbol {
        matrix,
        version,
        level,
        mask,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_match_known_values() {
        // Published byte-mode capacities.
        assert_eq!(byte_capacity(1, EcLevel::L), 17);
        assert_eq!(byte_capacity(1, EcLevel::M), 14);
        assert_eq!(byte_capacity(1, EcLevel::H), 7);
        assert_eq!(byte_capacity(4, EcLevel::L), 78);
        assert_eq!(byte_capacity(10, EcLevel::L), 271);
        assert_eq!(byte_capacity(10, EcLevel::H), 119);
    }

    #[test]
    fn version_selection_is_minimal() {
        assert_eq!(choose_version(17, EcLevel::L), Ok(1));
        assert_eq!(choose_version(18, EcLevel::L), Ok(2));
        assert_eq!(choose_version(271, EcLevel::L), Ok(10));
        assert!(choose_version(272, EcLevel::L).is_err());
    }

    #[test]
    fn data_codewords_are_padded_to_capacity() {
        let cw = build_data_codewords(b"AB", 1, EcLevel::M);
        assert_eq!(cw.len(), 16);
        // mode+count+2 bytes = 4+8+16 = 28 bits -> terminator 4 -> 4 bytes
        // then padding alternates EC 11 EC 11 ...
        assert_eq!(cw[4], 0xEC);
        assert_eq!(cw[5], 0x11);
        assert_eq!(cw[6], 0xEC);
    }

    #[test]
    fn interleave_multi_block_order() {
        // v3-Q: 2 blocks x 17 data, ec 18. Data 0..34.
        let data: Vec<u8> = (0..34).collect();
        let info = block_info(3, EcLevel::Q);
        let out = interleave(&data, &info);
        assert_eq!(out.len(), 70);
        // interleaved data: d0 of block1 (0), d0 of block2 (17), d1 (1), ...
        assert_eq!(&out[..6], &[0, 17, 1, 18, 2, 19]);
    }

    #[test]
    fn interleave_uneven_groups() {
        // v10-L: 2x68 + 2x69 data, ec 18.
        let info = block_info(10, EcLevel::L);
        let data: Vec<u8> = (0..info.total_data() as u16)
            .map(|x| (x % 251) as u8)
            .collect();
        let out = interleave(&data, &info);
        assert_eq!(out.len(), 346);
    }

    #[test]
    fn encoded_symbol_has_valid_format() {
        let s = encode_bytes(b"https://example.test/a", EcLevel::M).unwrap();
        assert_eq!(s.matrix().read_format(), Some((EcLevel::M, s.mask())));
        assert_eq!(s.version(), 2);
    }

    #[test]
    fn empty_payload_encodes() {
        let s = encode_bytes(b"", EcLevel::H).unwrap();
        assert_eq!(s.version(), 1);
    }

    #[test]
    fn long_payload_selects_high_version() {
        let payload = vec![b'x'; 200];
        let s = encode_bytes(&payload, EcLevel::L).unwrap();
        assert!(s.version() >= 8, "version {}", s.version());
    }

    #[test]
    fn oversized_payload_rejected() {
        let payload = vec![b'x'; 300];
        assert!(matches!(
            encode_bytes(&payload, EcLevel::L),
            Err(EncodeError::TooLong { .. })
        ));
    }
}
