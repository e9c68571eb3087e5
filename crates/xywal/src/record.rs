//! Record framing: length-prefixed, checksummed frames.
//!
//! ```text
//! ┌────────────┬──────────────┬──────────────────────────────┐
//! │ u32 LE len │ u64 LE FNV64 │ body (len bytes)             │
//! └────────────┴──────────────┴──────────────────────────────┘
//! body := tag u8
//!         key_len u32 LE, key (UTF-8)
//!         version u64 LE                  (Delta only)
//!         payload (UTF-8 XML, to end of body)
//! ```
//!
//! The checksum is FNV-1a over the body. It is there to detect *torn
//! writes* — a crash mid-`write(2)` leaves a prefix of the frame — and bit
//! rot, not adversarial tampering. Decoding never trusts `len` beyond a
//! sanity cap, so a corrupted length cannot make the reader allocate or
//! walk past the buffer.

/// Largest accepted body, far beyond any real document snapshot. A decoded
/// length above this is treated as frame corruption.
pub const MAX_BODY_BYTES: u32 = 256 << 20;

/// Frame header size: length + checksum.
pub const FRAME_HEADER_BYTES: usize = 4 + 8;

const TAG_INIT: u8 = 0;
const TAG_DELTA: u8 = 1;

/// One logged warehouse event. Payloads are plain XML (a canonical
/// document, or a delta in `xydelta::xml_io` form), so a log is greppable
/// with the same tools as the documents it versions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A document's first version: the canonical serialization of version 0.
    Init {
        /// Document key.
        key: String,
        /// Canonical XML of version 0.
        xml: String,
    },
    /// One completed delta, moving `key` from `version - 1` to `version`.
    Delta {
        /// Document key.
        key: String,
        /// The version this delta produces (≥ 1).
        version: u64,
        /// The delta in `xydelta::xml_io` form.
        delta_xml: String,
    },
}

impl Record {
    /// The document key the record belongs to.
    pub fn key(&self) -> &str {
        match self {
            Record::Init { key, .. } | Record::Delta { key, .. } => key,
        }
    }

    /// The version the record produces (0 for `Init`).
    pub fn version(&self) -> u64 {
        match self {
            Record::Init { .. } => 0,
            Record::Delta { version, .. } => *version,
        }
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Record::Init { key, xml } => {
                out.push(TAG_INIT);
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key.as_bytes());
                out.extend_from_slice(xml.as_bytes());
            }
            Record::Delta { key, version, delta_xml } => {
                out.push(TAG_DELTA);
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key.as_bytes());
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(delta_xml.as_bytes());
            }
        }
    }
}

/// Why a frame failed to decode. The distinction matters to recovery: any
/// of these at the tail of the last segment is a torn write; anywhere else
/// it is corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does.
    Truncated,
    /// The length prefix exceeds [`MAX_BODY_BYTES`].
    OversizedLength(u32),
    /// The stored checksum does not match the body.
    ChecksumMismatch,
    /// Unknown record tag byte.
    BadTag(u8),
    /// The body is structurally malformed (short fields, non-UTF-8 text).
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => f.write_str("frame truncated"),
            FrameError::OversizedLength(n) => write!(f, "frame length {n} exceeds cap"),
            FrameError::ChecksumMismatch => f.write_str("checksum mismatch"),
            FrameError::BadTag(t) => write!(f, "unknown record tag {t}"),
            FrameError::Malformed(what) => write!(f, "malformed body: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// FNV-1a over `bytes` — tiny, dependency-free, and strong enough to catch
/// torn writes and single-bit rot.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encode `record` as one complete frame (header + body).
pub fn encode_frame(record: &Record) -> Vec<u8> {
    let mut body = Vec::new();
    record.encode_body(&mut body);
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv64(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decode the frame starting at `buf[0]`. Returns the record and the total
/// number of bytes the frame occupies.
pub fn decode_frame(buf: &[u8]) -> Result<(Record, usize), FrameError> {
    if buf.len() < FRAME_HEADER_BYTES {
        return Err(FrameError::Truncated);
    }
    // INVARIANT: the slice bounds are checked against buf.len() above /
    // below; try_into on a 4- or 8-byte slice of matching length cannot fail.
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    if len > MAX_BODY_BYTES {
        return Err(FrameError::OversizedLength(len));
    }
    // INVARIANT: 4..12 is in bounds — buf.len() >= FRAME_HEADER_BYTES == 12.
    let stored = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let end = FRAME_HEADER_BYTES + len as usize;
    if buf.len() < end {
        return Err(FrameError::Truncated);
    }
    let body = &buf[FRAME_HEADER_BYTES..end];
    if fnv64(body) != stored {
        return Err(FrameError::ChecksumMismatch);
    }
    let record = decode_body(body)?;
    Ok((record, end))
}

fn decode_body(body: &[u8]) -> Result<Record, FrameError> {
    let (&tag, rest) = body.split_first().ok_or(FrameError::Malformed("empty body"))?;
    if rest.len() < 4 {
        return Err(FrameError::Malformed("missing key length"));
    }
    // INVARIANT: rest has at least 4 bytes, checked on the line above.
    let key_len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
    let rest = &rest[4..];
    if rest.len() < key_len {
        return Err(FrameError::Malformed("key extends past body"));
    }
    let key = std::str::from_utf8(&rest[..key_len])
        .map_err(|_| FrameError::Malformed("key is not UTF-8"))?
        .to_string();
    let rest = &rest[key_len..];
    match tag {
        TAG_INIT => {
            let xml = std::str::from_utf8(rest)
                .map_err(|_| FrameError::Malformed("payload is not UTF-8"))?
                .to_string();
            Ok(Record::Init { key, xml })
        }
        TAG_DELTA => {
            if rest.len() < 8 {
                return Err(FrameError::Malformed("missing version"));
            }
            // INVARIANT: rest has at least 8 bytes, checked on the line above.
            let version = u64::from_le_bytes(rest[0..8].try_into().unwrap());
            let delta_xml = std::str::from_utf8(&rest[8..])
                .map_err(|_| FrameError::Malformed("payload is not UTF-8"))?
                .to_string();
            Ok(Record::Delta { key, version, delta_xml })
        }
        other => Err(FrameError::BadTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Record> {
        vec![
            Record::Init { key: "site/a.xml".into(), xml: "<a><v>1</v></a>".into() },
            Record::Delta {
                key: "site/a.xml".into(),
                version: 1,
                delta_xml: "<delta>…</delta>".into(),
            },
            Record::Init { key: String::new(), xml: String::new() },
        ]
    }

    #[test]
    fn roundtrip_every_kind() {
        for rec in sample() {
            let frame = encode_frame(&rec);
            let (back, used) = decode_frame(&frame).unwrap();
            assert_eq!(back, rec);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn concatenated_frames_decode_in_sequence() {
        let recs = sample();
        let mut buf = Vec::new();
        for r in &recs {
            buf.extend_from_slice(&encode_frame(r));
        }
        let mut off = 0;
        let mut out = Vec::new();
        while off < buf.len() {
            let (r, used) = decode_frame(&buf[off..]).unwrap();
            out.push(r);
            off += used;
        }
        assert_eq!(out, recs);
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let frame = encode_frame(&sample()[1]);
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut]).unwrap_err();
            assert_eq!(err, FrameError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let frame = encode_frame(&sample()[0]);
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            // A flip may corrupt the length (truncated/oversized), the
            // checksum, or the body — but it must never decode cleanly to
            // the original record *at this offset*.
            if let Ok((rec, _)) = decode_frame(&bad) {
                assert_ne!(rec, sample()[0], "flip at byte {i} went unnoticed");
            }
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut body = vec![9u8];
        body.extend_from_slice(&0u32.to_le_bytes());
        let mut frame = Vec::new();
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv64(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        assert_eq!(decode_frame(&frame).unwrap_err(), FrameError::BadTag(9));
    }

    #[test]
    fn oversized_length_rejected_without_reading_body() {
        let mut frame = (MAX_BODY_BYTES + 1).to_le_bytes().to_vec();
        frame.extend_from_slice(&[0u8; 8]);
        assert!(matches!(decode_frame(&frame), Err(FrameError::OversizedLength(_))));
    }

    #[test]
    fn fnv64_is_the_reference_function() {
        // Reference vectors for FNV-1a 64-bit.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
