//! Store-only ZIP archives with the real on-disk layout: local file headers
//! (`PK\x03\x04`), central directory (`PK\x01\x02`), end-of-central-directory
//! record (`PK\x05\x06`), and CRC-32 integrity.
//!
//! The paper found five messages delivering ZIP archives whose members were
//! HTA droppers (§V); CrawlerBox "unpacks ZIP files, and each file within is
//! subjected to the appropriate analysis". No compression is implemented —
//! method 0 (store) keeps the format real while avoiding an inflate
//! dependency; the pipeline only needs member traversal and integrity.

use std::fmt;

const LOCAL_SIG: u32 = 0x0403_4B50;
const CENTRAL_SIG: u32 = 0x0201_4B50;
const EOCD_SIG: u32 = 0x0605_4B50;

/// CRC-32 (IEEE, reflected) computed bitwise — no table needed at our sizes.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// One archive member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZipEntry {
    /// Member path.
    pub name: String,
    /// Uncompressed (= stored) bytes.
    pub data: Vec<u8>,
}

/// An in-memory ZIP archive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZipArchive {
    entries: Vec<ZipEntry>,
}

/// Errors from reading an archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZipError {
    /// The end-of-central-directory record was not found.
    MissingEocd,
    /// A signature did not match the expected record type.
    BadSignature {
        /// Byte offset of the bad record.
        offset: usize,
    },
    /// The file is shorter than a record claims.
    Truncated,
    /// A member's CRC-32 did not match its data.
    CrcMismatch {
        /// The failing member.
        name: String,
    },
    /// A compression method other than store was used.
    UnsupportedMethod {
        /// The method id found.
        method: u16,
    },
    /// A member name was not valid UTF-8.
    BadName,
}

impl fmt::Display for ZipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZipError::MissingEocd => write!(f, "missing end-of-central-directory record"),
            ZipError::BadSignature { offset } => write!(f, "bad record signature at {offset}"),
            ZipError::Truncated => write!(f, "archive truncated"),
            ZipError::CrcMismatch { name } => write!(f, "crc mismatch in member {name}"),
            ZipError::UnsupportedMethod { method } => {
                write!(f, "unsupported compression method {method}")
            }
            ZipError::BadName => write!(f, "member name is not valid utf-8"),
        }
    }
}

impl std::error::Error for ZipError {}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u16(data: &[u8], at: usize) -> Result<u16, ZipError> {
    data.get(at..at + 2)
        .map(|s| u16::from_le_bytes([s[0], s[1]]))
        .ok_or(ZipError::Truncated)
}

fn get_u32(data: &[u8], at: usize) -> Result<u32, ZipError> {
    data.get(at..at + 4)
        .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
        .ok_or(ZipError::Truncated)
}

impl ZipArchive {
    /// An empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a member.
    pub fn add(&mut self, name: &str, data: &[u8]) -> &mut Self {
        self.entries.push(ZipEntry {
            name: name.to_string(),
            data: data.to_vec(),
        });
        self
    }

    /// The members in archive order.
    pub fn entries(&self) -> &[ZipEntry] {
        &self.entries
    }

    /// Find a member by exact name.
    pub fn entry(&self, name: &str) -> Option<&ZipEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Serialize to the ZIP wire format (store method).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut central = Vec::new();
        for e in &self.entries {
            let offset = out.len() as u32;
            let crc = crc32(&e.data);
            let name = e.name.as_bytes();
            // local file header
            put_u32(&mut out, LOCAL_SIG);
            put_u16(&mut out, 20); // version needed
            put_u16(&mut out, 0); // flags
            put_u16(&mut out, 0); // method: store
            put_u16(&mut out, 0); // mod time
            put_u16(&mut out, 0x2140); // mod date (arbitrary fixed)
            put_u32(&mut out, crc);
            put_u32(&mut out, e.data.len() as u32);
            put_u32(&mut out, e.data.len() as u32);
            put_u16(&mut out, name.len() as u16);
            put_u16(&mut out, 0); // extra len
            out.extend_from_slice(name);
            out.extend_from_slice(&e.data);
            // central directory record
            put_u32(&mut central, CENTRAL_SIG);
            put_u16(&mut central, 20); // version made by
            put_u16(&mut central, 20); // version needed
            put_u16(&mut central, 0);
            put_u16(&mut central, 0);
            put_u16(&mut central, 0);
            put_u16(&mut central, 0x2140);
            put_u32(&mut central, crc);
            put_u32(&mut central, e.data.len() as u32);
            put_u32(&mut central, e.data.len() as u32);
            put_u16(&mut central, name.len() as u16);
            put_u16(&mut central, 0); // extra
            put_u16(&mut central, 0); // comment
            put_u16(&mut central, 0); // disk start
            put_u16(&mut central, 0); // internal attrs
            put_u32(&mut central, 0); // external attrs
            put_u32(&mut central, offset);
            central.extend_from_slice(name);
        }
        let cd_offset = out.len() as u32;
        out.extend_from_slice(&central);
        // EOCD
        put_u32(&mut out, EOCD_SIG);
        put_u16(&mut out, 0); // disk
        put_u16(&mut out, 0); // cd disk
        put_u16(&mut out, self.entries.len() as u16);
        put_u16(&mut out, self.entries.len() as u16);
        put_u32(&mut out, central.len() as u32);
        put_u32(&mut out, cd_offset);
        put_u16(&mut out, 0); // comment len
        out
    }

    /// Parse a ZIP file, verifying signatures and CRCs.
    ///
    /// # Errors
    ///
    /// Returns [`ZipError`] on structural or integrity failures.
    pub fn parse(data: &[u8]) -> Result<ZipArchive, ZipError> {
        // Locate EOCD by scanning backwards for its signature.
        let eocd = (0..data.len().saturating_sub(21))
            .rev()
            .find(|&i| get_u32(data, i) == Ok(EOCD_SIG))
            .ok_or(ZipError::MissingEocd)?;
        let count = get_u16(data, eocd + 10)? as usize;
        let cd_offset = get_u32(data, eocd + 16)? as usize;

        let mut entries = Vec::with_capacity(count);
        let mut pos = cd_offset;
        for _ in 0..count {
            if get_u32(data, pos)? != CENTRAL_SIG {
                return Err(ZipError::BadSignature { offset: pos });
            }
            let method = get_u16(data, pos + 10)?;
            if method != 0 {
                return Err(ZipError::UnsupportedMethod { method });
            }
            let crc = get_u32(data, pos + 16)?;
            let size = get_u32(data, pos + 24)? as usize;
            let name_len = get_u16(data, pos + 28)? as usize;
            let extra_len = get_u16(data, pos + 30)? as usize;
            let comment_len = get_u16(data, pos + 32)? as usize;
            let local_offset = get_u32(data, pos + 42)? as usize;
            let name_bytes = data
                .get(pos + 46..pos + 46 + name_len)
                .ok_or(ZipError::Truncated)?;
            let name = String::from_utf8(name_bytes.to_vec()).map_err(|_| ZipError::BadName)?;

            // Read the member via its local header.
            if get_u32(data, local_offset)? != LOCAL_SIG {
                return Err(ZipError::BadSignature {
                    offset: local_offset,
                });
            }
            let l_name_len = get_u16(data, local_offset + 26)? as usize;
            let l_extra_len = get_u16(data, local_offset + 28)? as usize;
            let data_start = local_offset + 30 + l_name_len + l_extra_len;
            let member = data
                .get(data_start..data_start + size)
                .ok_or(ZipError::Truncated)?;
            if crc32(member) != crc {
                return Err(ZipError::CrcMismatch { name });
            }
            entries.push(ZipEntry {
                name,
                data: member.to_vec(),
            });
            pos += 46 + name_len + extra_len + comment_len;
        }
        Ok(ZipArchive { entries })
    }
}

impl FromIterator<ZipEntry> for ZipArchive {
    fn from_iter<T: IntoIterator<Item = ZipEntry>>(iter: T) -> Self {
        ZipArchive {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn round_trip_multiple_members() {
        let mut a = ZipArchive::new();
        a.add("readme.txt", b"hello")
            .add("dropper.hta", b"<script>new ActiveXObject('x')</script>")
            .add("dir/nested.bin", &[0u8, 255, 3, 7]);
        let bytes = a.to_bytes();
        let b = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            b.entry("dropper.hta").unwrap().data,
            b"<script>new ActiveXObject('x')</script>"
        );
    }

    #[test]
    fn wire_format_starts_with_pk() {
        let mut a = ZipArchive::new();
        a.add("x", b"y");
        let bytes = a.to_bytes();
        assert_eq!(&bytes[..4], b"PK\x03\x04");
    }

    #[test]
    fn empty_archive_round_trips() {
        let a = ZipArchive::new();
        let b = ZipArchive::parse(&a.to_bytes()).unwrap();
        assert!(b.entries().is_empty());
    }

    #[test]
    fn corrupted_member_fails_crc() {
        let mut a = ZipArchive::new();
        a.add("f.txt", b"important payload");
        let mut bytes = a.to_bytes();
        // flip a byte inside the stored data region (after the 30+5 header)
        bytes[35] ^= 0xFF;
        assert!(matches!(
            ZipArchive::parse(&bytes),
            Err(ZipError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn garbage_has_no_eocd() {
        assert_eq!(
            ZipArchive::parse(b"this is not a zip"),
            Err(ZipError::MissingEocd)
        );
    }

    #[test]
    fn truncated_archive_detected() {
        let mut a = ZipArchive::new();
        a.add("file.bin", &[7u8; 100]);
        let bytes = a.to_bytes();
        // Keep the EOCD but cut out the middle so member data is missing.
        let mut cut = bytes[..20].to_vec();
        cut.extend_from_slice(&bytes[bytes.len() - 22..]);
        assert!(ZipArchive::parse(&cut).is_err());
    }

    #[test]
    fn binary_names_rejected() {
        let mut a = ZipArchive::new();
        a.add("ok", b"x");
        let mut bytes = a.to_bytes();
        // corrupt the name byte in both local and central records
        let positions: Vec<usize> = bytes
            .windows(2)
            .enumerate()
            .filter(|(_, w)| *w == b"ok")
            .map(|(i, _)| i)
            .collect();
        for p in positions {
            bytes[p] = 0xFF;
            bytes[p + 1] = 0xFE;
        }
        // CRC mismatch check happens after name parse; invalid UTF-8 name
        // must be rejected as BadName.
        assert_eq!(ZipArchive::parse(&bytes), Err(ZipError::BadName));
    }

    #[test]
    fn entries_preserve_order() {
        let mut a = ZipArchive::new();
        for i in 0..10 {
            a.add(&format!("m{i}"), &[i as u8]);
        }
        let b = ZipArchive::parse(&a.to_bytes()).unwrap();
        let names: Vec<&str> = b.entries().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            (0..10)
                .map(|i| format!("m{i}"))
                .collect::<Vec<_>>()
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
        );
    }
}
