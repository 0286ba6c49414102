//! Byte-oriented run-length coding.
//!
//! Encoding: a sequence of `(count, byte)` pairs where `count` is `1..=255`.
//! Zero-filled and trimmed flash pages collapse to a handful of bytes, which
//! is why the offload engine tries RLE alongside LZ77.

use crate::DecompressError;

/// Run-length encodes `data`.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    encode_into(data, &mut out);
    out
}

/// Run-length encodes `data`, appending the payload to `out`.
pub fn encode_into(data: &[u8], out: &mut Vec<u8>) {
    let mut i = 0usize;
    while i < data.len() {
        let byte = data[i];
        let cap = (data.len() - i).min(u8::MAX as usize);
        let broadcast = u64::from(byte) * 0x0101_0101_0101_0101;
        let mut run = 1usize;
        // Extend eight bytes at a time — runs are the whole point of this
        // codec, so the extension loop is the hot part on zero/trim pages.
        while run + 8 <= cap {
            let w = u64::from_le_bytes(data[i + run..i + run + 8].try_into().expect("8 bytes"));
            let diff = w ^ broadcast;
            if diff != 0 {
                run += (diff.trailing_zeros() / 8) as usize;
                break;
            }
            run += 8;
        }
        while run < cap && data[i + run] == byte {
            run += 1;
        }
        out.push(run as u8);
        out.push(byte);
        i += run;
    }
}

/// Decodes a run-length payload.
///
/// # Errors
///
/// Returns [`DecompressError::Corrupt`] on an odd-length payload or a zero
/// run count.
pub fn decode(payload: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::new();
    decode_into(payload, &mut out)?;
    Ok(out)
}

/// Like [`decode`], but appends the decoded bytes to `out`. On error `out`
/// may hold a partial decode past its original length.
///
/// # Errors
///
/// As [`decode`].
pub fn decode_into(payload: &[u8], out: &mut Vec<u8>) -> Result<(), DecompressError> {
    if payload.len() % 2 != 0 {
        return Err(DecompressError::Corrupt("rle payload has odd length"));
    }
    for pair in payload.chunks_exact(2) {
        let (count, byte) = (pair[0], pair[1]);
        if count == 0 {
            return Err(DecompressError::Corrupt("rle run count of zero"));
        }
        out.extend(std::iter::repeat(byte).take(count as usize));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_runs() {
        assert_eq!(encode(&[0, 0, 0, 1]), vec![3, 0, 1, 1]);
    }

    #[test]
    fn empty_input() {
        assert_eq!(encode(&[]), Vec::<u8>::new());
        assert_eq!(decode(&[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn run_longer_than_255_splits() {
        let data = vec![9u8; 300];
        let enc = encode(&data);
        assert_eq!(enc, vec![255, 9, 45, 9]);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn round_trip_mixed() {
        let data = b"aaabbbcccabcabc";
        assert_eq!(decode(&encode(data)).unwrap(), data);
    }

    #[test]
    fn rejects_odd_payload() {
        assert!(decode(&[1]).is_err());
    }

    #[test]
    fn rejects_zero_count() {
        assert!(decode(&[0, 5]).is_err());
    }

    #[test]
    fn worst_case_doubles() {
        let data: Vec<u8> = (0..=255u8).collect();
        assert_eq!(encode(&data).len(), data.len() * 2);
    }
}
