//! The wire format of the segment log: length-prefixed, CRC-checked binary
//! frames, grouped into record pairs.
//!
//! ```text
//! frame := kind:u8  len:u32le  crc32:u32le  payload:[u8; len]
//! pair  := [blob-ref frame] record frame
//! ```
//!
//! `crc32` covers the payload only; `kind` and `len` are implicitly checked
//! by the decode rules (unknown kind or impossible length reads as a torn
//! tail). A segment file is a plain concatenation of pairs, so the set of
//! valid segment files is prefix-closed: any crash mid-write leaves a valid
//! prefix followed by a tail the reader can detect and truncate.
//!
//! A pair is one log entry: a record's optional [`KIND_BLOB_REF`] frame
//! naming its blob addresses, then its [`KIND_RECORD`] frame. The pair
//! grammar has exactly one codec: [`encode_pair`] writes a pair and
//! [`next_pair`] reads one, deciding whether a bad pair is torn (a crash
//! could have left it) or corrupt (no crash could have).

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
fn decode_blob_refs(payload: &[u8]) -> Option<Vec<u128>> {
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
fn encode_blob_refs(hashes: &[u128]) -> Vec<u8> {
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
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    push_frame(&mut out, kind, payload);
    out
}

/// Append one encoded frame to `out`.
fn push_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_PAYLOAD_LEN as usize,
        "payload too large"
    );
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encode one pair: a [`KIND_BLOB_REF`] frame naming `refs` (omitted when
/// `refs` is empty), then the [`KIND_RECORD`] frame carrying `payload`.
/// Writers append the result in one write, so a pair never spans a
/// segment roll.
pub fn encode_pair(refs: &[u128], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * FRAME_HEADER_LEN + refs.len() * 16 + payload.len());
    if !refs.is_empty() {
        push_frame(&mut out, KIND_BLOB_REF, &encode_blob_refs(refs));
    }
    push_frame(&mut out, KIND_RECORD, payload);
    out
}

/// One step of a frame walk over a segment buffer.
#[derive(Debug, PartialEq, Eq)]
enum FrameStep<'a> {
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
fn next_frame(buf: &[u8], at: usize) -> FrameStep<'_> {
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

/// One step of a pair walk over a segment buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum PairStep<'a> {
    /// A complete pair; the next pair starts at `next`.
    Pair {
        /// The blob addresses of the blob-ref frame (empty without one).
        refs: Vec<u128>,
        /// The record frame's payload.
        payload: &'a [u8],
        /// Offset of the record frame (past the blob-ref frame, if any).
        record_at: usize,
        /// Offset of the next pair.
        next: usize,
    },
    /// Clean end of the buffer — `at` was exactly the buffer length.
    End,
    /// The pair starting at `at` is cut short: torn framing, or a complete
    /// blob-ref frame with nothing after it. A crash mid-append leaves
    /// exactly this, so in a log's last segment it is a tail to truncate.
    Torn {
        /// Offset of the pair's first frame.
        at: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// CRC-clean frames that do not form a pair: a malformed blob-ref
    /// payload, or a blob-ref frame followed by another. No crash leaves
    /// these.
    Corrupt {
        /// Offset of the pair's first frame.
        at: usize,
        /// Human-readable reason.
        reason: String,
    },
}

/// Decode the pair starting at offset `at` of `buf`. The caller judges
/// the record payload itself; this decides only the pair grammar.
pub fn next_pair(buf: &[u8], at: usize) -> PairStep<'_> {
    let (refs, record_at) = match next_frame(buf, at) {
        FrameStep::End => return PairStep::End,
        FrameStep::Torn { at, reason } => return PairStep::Torn { at, reason },
        FrameStep::Frame {
            kind: KIND_RECORD,
            payload,
            next,
        } => {
            return PairStep::Pair {
                refs: Vec::new(),
                payload,
                record_at: at,
                next,
            }
        }
        // `next_frame` yields only the two known kinds: a blob-ref.
        FrameStep::Frame { payload, next, .. } => match decode_blob_refs(payload) {
            Some(refs) => (refs, next),
            None => {
                return PairStep::Corrupt {
                    at,
                    reason: "malformed blob-ref payload".to_string(),
                }
            }
        },
    };
    match next_frame(buf, record_at) {
        FrameStep::Frame {
            kind: KIND_RECORD,
            payload,
            next,
        } => PairStep::Pair {
            refs,
            payload,
            record_at,
            next,
        },
        FrameStep::Frame { .. } => PairStep::Corrupt {
            at,
            reason: "blob-ref frame not followed by a record".to_string(),
        },
        FrameStep::End => PairStep::Torn {
            at,
            reason: "trailing blob-ref frame with no record".to_string(),
        },
        FrameStep::Torn { reason, .. } => PairStep::Torn {
            at,
            reason: format!("torn record after blob-ref: {reason}"),
        },
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

    #[test]
    fn stray_blob_ref_frames_are_corrupt_and_a_lone_one_is_torn() {
        let a = encode_pair(&[1], b"a");
        let mut buf = a.clone();
        buf.extend_from_slice(&encode_frame(KIND_BLOB_REF, &encode_blob_refs(&[2])));
        buf.extend_from_slice(&encode_pair(&[3], b"b"));
        assert!(matches!(next_pair(&buf, 0), PairStep::Pair { next, .. } if next == a.len()));
        assert!(matches!(
            next_pair(&buf, a.len()),
            PairStep::Corrupt { at, .. } if at == a.len()
        ));

        let mut buf = encode_frame(KIND_BLOB_REF, &[0u8; 15]);
        buf.extend_from_slice(&encode_frame(KIND_RECORD, b"r"));
        assert!(matches!(
            next_pair(&buf, 0),
            PairStep::Corrupt { at: 0, .. }
        ));

        let buf = encode_frame(KIND_BLOB_REF, &encode_blob_refs(&[1]));
        assert!(matches!(next_pair(&buf, 0), PairStep::Torn { at: 0, .. }));
    }

    /// Every step of a walk from offset 0: the pairs, then the step that
    /// ended the walk.
    fn walk(buf: &[u8]) -> Vec<PairStep<'_>> {
        let mut steps = Vec::new();
        let mut at = 0;
        loop {
            let step = next_pair(buf, at);
            match step {
                PairStep::Pair { next, .. } => at = next,
                _ => {
                    steps.push(step);
                    return steps;
                }
            }
            steps.push(step);
        }
    }

    #[test]
    fn pair_walk_round_trips_and_every_cut_is_a_torn_tail() {
        use cb_sim::prop::{bytes, check, vec};
        use cb_sim::{prop_assert, prop_assert_eq};
        let pair = (vec((0..u64::MAX, 0..u64::MAX), 0..4), bytes(0..301));
        check("next_pair", 64, vec(pair, 1..7), |pairs| {
            let pairs: Vec<(Vec<u128>, Vec<u8>)> = pairs
                .into_iter()
                .map(|(refs, payload)| {
                    let refs = refs.iter().map(|&(hi, lo)| (hi as u128) << 64 | lo as u128);
                    (refs.collect(), payload)
                })
                .collect();
            let mut buf = Vec::new();
            let mut starts = vec![0];
            let mut want = Vec::new();
            for (refs, payload) in &pairs {
                let at = buf.len();
                buf.extend_from_slice(&encode_pair(refs, payload));
                starts.push(buf.len());
                let blob_ref_len = if refs.is_empty() {
                    0
                } else {
                    FRAME_HEADER_LEN + 16 * refs.len()
                };
                want.push(PairStep::Pair {
                    refs: refs.clone(),
                    payload,
                    record_at: at + blob_ref_len,
                    next: buf.len(),
                });
            }
            want.push(PairStep::End);
            prop_assert_eq!(walk(&buf), want);
            for cut in 0..buf.len() {
                let steps = walk(&buf[..cut]);
                let whole = starts.iter().filter(|&&s| s > 0 && s <= cut).count();
                prop_assert_eq!(steps.len(), whole + 1, "cut at {cut}");
                prop_assert_eq!(&steps[..whole], &want[..whole], "cut at {cut}");
                let end = &steps[whole];
                if starts.contains(&cut) {
                    prop_assert_eq!(*end, PairStep::End, "cut at {cut}");
                } else {
                    prop_assert!(
                        matches!(end, PairStep::Torn { at, .. } if *at == starts[whole]),
                        "cut at {cut}: {end:?}"
                    );
                }
            }
            Ok(())
        });
    }
}
