//! The wire format of the segment log: length-prefixed, CRC-checked binary
//! frames.
//!
//! ```text
//! frame := kind:u8  len:u32le  crc32:u32le  payload:[u8; len]
//! ```
//!
//! `crc32` covers the payload only; `kind` and `len` are implicitly checked
//! by the decode rules (unknown kind or impossible length reads as a torn
//! tail). A segment file is a plain concatenation of frames, so the set of
//! valid segment files is prefix-closed: any crash mid-write leaves a valid
//! prefix followed by a tail the reader can detect and truncate.

use crate::crc::crc32;

/// Bytes of header before the payload (`kind` + `len` + `crc32`).
pub const FRAME_HEADER_LEN: usize = 9;

/// Frame kind: a canonically encoded [`ScanRecord`](crawlerbox::ScanRecord).
pub const KIND_RECORD: u8 = 1;

/// Frame kind: the blob addresses referenced by the *next* record frame —
/// a concatenation of little-endian `u128` fnv128 hashes. Written before
/// its record so a crash between the two leaves at worst an orphan blob
/// plus an unreferenced blob-ref frame, never a record whose evidence is
/// missing. Replaying these frames is what makes orphan-blob GC possible:
/// artifact hashes are deliberately absent from the canonical record
/// payload.
pub const KIND_BLOB_REF: u8 = 2;

/// Decode a [`KIND_BLOB_REF`] payload into its blob addresses. `None` when
/// the payload length is not a multiple of 16.
pub fn decode_blob_refs(payload: &[u8]) -> Option<Vec<u128>> {
    if !payload.len().is_multiple_of(16) {
        return None;
    }
    Some(
        payload
            .chunks_exact(16)
            .map(|c| u128::from_le_bytes(c.try_into().expect("16 bytes")))
            .collect(),
    )
}

/// Encode blob addresses as a [`KIND_BLOB_REF`] payload.
pub fn encode_blob_refs(hashes: &[u128]) -> Vec<u8> {
    let mut out = Vec::with_capacity(hashes.len() * 16);
    for h in hashes {
        out.extend_from_slice(&h.to_le_bytes());
    }
    out
}

/// Upper bound on a single payload — anything larger reads as corruption
/// rather than a 4 GiB allocation.
pub const MAX_PAYLOAD_LEN: u32 = 64 * 1024 * 1024;

/// Encode one frame.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_PAYLOAD_LEN as usize,
        "payload too large"
    );
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One step of a frame walk over a segment buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameStep<'a> {
    /// A complete, CRC-clean frame; the next frame starts at `next`.
    Frame {
        /// Frame kind byte.
        kind: u8,
        /// The payload slice.
        payload: &'a [u8],
        /// Offset of the next frame.
        next: usize,
    },
    /// Clean end of the buffer — `at` was exactly the buffer length.
    End,
    /// The bytes from `at` onward are not a valid frame: a torn tail after
    /// a crash, or corruption.
    Torn {
        /// Offset of the first bad byte.
        at: usize,
        /// Human-readable reason.
        reason: String,
    },
}

/// Decode the frame starting at offset `at` of `buf`.
pub fn next_frame(buf: &[u8], at: usize) -> FrameStep<'_> {
    if at == buf.len() {
        return FrameStep::End;
    }
    if at + FRAME_HEADER_LEN > buf.len() {
        return FrameStep::Torn {
            at,
            reason: format!(
                "partial header ({} of {FRAME_HEADER_LEN} bytes)",
                buf.len() - at
            ),
        };
    }
    let kind = buf[at];
    if kind != KIND_RECORD && kind != KIND_BLOB_REF {
        return FrameStep::Torn {
            at,
            reason: format!("unknown frame kind {kind:#x}"),
        };
    }
    let len = u32::from_le_bytes(buf[at + 1..at + 5].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD_LEN {
        return FrameStep::Torn {
            at,
            reason: format!("implausible payload length {len}"),
        };
    }
    let want = u32::from_le_bytes(buf[at + 5..at + 9].try_into().expect("4 bytes"));
    let start = at + FRAME_HEADER_LEN;
    let end = start + len as usize;
    if end > buf.len() {
        return FrameStep::Torn {
            at,
            reason: format!("payload truncated ({} of {len} bytes)", buf.len() - start),
        };
    }
    let payload = &buf[start..end];
    let got = crc32(payload);
    if got != want {
        return FrameStep::Torn {
            at,
            reason: format!("crc mismatch (stored {want:#010x}, computed {got:#010x})"),
        };
    }
    FrameStep::Frame {
        kind,
        payload,
        next: end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_multiple_frames() {
        let mut buf = encode_frame(KIND_RECORD, b"first");
        buf.extend_from_slice(&encode_frame(KIND_RECORD, b""));
        buf.extend_from_slice(&encode_frame(KIND_RECORD, b"third payload"));
        let mut at = 0;
        let mut seen = Vec::new();
        loop {
            match next_frame(&buf, at) {
                FrameStep::Frame {
                    kind,
                    payload,
                    next,
                } => {
                    assert_eq!(kind, KIND_RECORD);
                    seen.push(payload.to_vec());
                    at = next;
                }
                FrameStep::End => break,
                FrameStep::Torn { at, reason } => panic!("torn at {at}: {reason}"),
            }
        }
        assert_eq!(
            seen,
            vec![b"first".to_vec(), Vec::new(), b"third payload".to_vec()]
        );
    }

    #[test]
    fn every_truncation_point_reads_as_torn_tail() {
        let mut buf = encode_frame(KIND_RECORD, b"intact");
        let keep = buf.len();
        buf.extend_from_slice(&encode_frame(KIND_RECORD, b"torn away"));
        for cut in keep..buf.len() - 1 {
            let torn = &buf[..cut + 1];
            match next_frame(torn, 0) {
                FrameStep::Frame { next, .. } => {
                    assert_eq!(next, keep);
                    assert!(
                        matches!(next_frame(torn, next), FrameStep::Torn { at, .. } if at == keep),
                        "cut at {cut}: tail not detected"
                    );
                }
                other => panic!("cut at {cut}: first frame unreadable: {other:?}"),
            }
        }
    }

    #[test]
    fn blob_ref_payload_round_trips() {
        let hashes = vec![1u128, u128::MAX, 0xDEAD_BEEF_CAFE];
        let payload = encode_blob_refs(&hashes);
        assert_eq!(decode_blob_refs(&payload), Some(hashes));
        assert_eq!(decode_blob_refs(&[]), Some(Vec::new()));
        assert_eq!(
            decode_blob_refs(&[0u8; 15]),
            None,
            "partial hash is invalid"
        );
        let frame = encode_frame(KIND_BLOB_REF, &payload);
        assert!(matches!(
            next_frame(&frame, 0),
            FrameStep::Frame {
                kind: KIND_BLOB_REF,
                ..
            }
        ));
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut buf = encode_frame(KIND_RECORD, b"payload under test");
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert!(matches!(
            next_frame(&buf, 0),
            FrameStep::Torn { at: 0, ref reason } if reason.contains("crc mismatch")
        ));
    }

    #[test]
    fn unknown_kind_and_silly_length_are_torn() {
        let buf = encode_frame(0x7F, b"x");
        assert!(matches!(next_frame(&buf, 0), FrameStep::Torn { at: 0, .. }));
        let mut buf = vec![KIND_RECORD];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0; 4]);
        assert!(matches!(next_frame(&buf, 0), FrameStep::Torn { at: 0, .. }));
    }
}
