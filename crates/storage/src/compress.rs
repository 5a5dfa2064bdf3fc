//! A small LZ77-family compressor standing in for GZIP in the RCFile format.
//!
//! Format: a stream of tokens.
//! * `0x00..=0x7F` — literal run: control byte holds `len-1` (1..=128
//!   literal bytes follow).
//! * `0x80..=0xFF` — match: control byte holds `0x80 | (len-MIN_MATCH)`
//!   (match length `MIN_MATCH..=MIN_MATCH+127`), followed by a little-endian
//!   `u16` back-distance (1..=65535).
//!
//! Greedy matching via a hash table over 4-byte prefixes. Compression
//! ratios on TPC-H-like data land near the paper's GZIP-on-RCFile ratio
//! (~0.3–0.4) because column-major chunks are highly self-similar.

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = MIN_MATCH + 127;
const WINDOW: usize = 65_535;
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compress `input`. Always succeeds; worst case ~= input + input/128 + 1.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut lit_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, input: &[u8]| {
        let mut s = from;
        while s < to {
            let n = (to - s).min(128);
            out.push((n - 1) as u8);
            out.extend_from_slice(&input[s..s + n]);
            s += n;
        }
    };

    while i + MIN_MATCH <= input.len() {
        let h = hash4(input, i);
        let cand = table[h];
        table[h] = i;
        let mut matched = 0usize;
        if cand != usize::MAX && i - cand <= WINDOW && input[cand..cand + 4] == input[i..i + 4] {
            let limit = (input.len() - i).min(MAX_MATCH);
            let mut l = 4;
            while l < limit && input[cand + l] == input[i + l] {
                l += 1;
            }
            matched = l;
        }
        if matched >= MIN_MATCH {
            flush_literals(&mut out, lit_start, i, input);
            let dist = (i - cand) as u16;
            out.push(0x80 | (matched - MIN_MATCH) as u8);
            out.extend_from_slice(&dist.to_le_bytes());
            // Index a few positions inside the match to keep finding overlaps.
            let end = i + matched;
            let mut j = i + 1;
            while j + MIN_MATCH <= input.len() && j < end {
                table[hash4(input, j)] = j;
                j += 1;
            }
            i = end;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, lit_start, input.len(), input);
    out
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(mut input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() * 3);
    while let Some((&ctrl, rest)) = input.split_first() {
        input = rest;
        if ctrl < 0x80 {
            let n = ctrl as usize + 1;
            out.extend_from_slice(&input[..n]);
            input = &input[n..];
        } else {
            let len = (ctrl & 0x7F) as usize + MIN_MATCH;
            let dist = u16::from_le_bytes([input[0], input[1]]) as usize;
            input = &input[2..];
            let start = out.len() - dist;
            if len <= dist {
                out.extend_from_within(start..start + len);
            } else {
                // Byte-at-a-time copy: the match overlaps its own output.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    out
}

/// Varint + zigzag helpers used by the column serializers.
pub mod varint {
    /// Append an unsigned LEB128 varint.
    pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let b = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                out.push(b);
                return;
            }
            out.push(b | 0x80);
        }
    }

    /// Read an unsigned varint, returning (value, bytes consumed).
    pub fn read_u64(data: &[u8]) -> (u64, usize) {
        let mut v = 0u64;
        let mut shift = 0;
        for (i, &b) in data.iter().enumerate() {
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return (v, i + 1);
            }
            shift += 7;
        }
        panic!("truncated varint");
    }

    pub fn zigzag(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
    }

    pub fn unzigzag(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c);
        assert_eq!(d, data, "round trip failed for {} bytes", data.len());
    }

    #[test]
    fn empty_and_tiny() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data: Vec<u8> = b"FURNITURE|BUILDING|AUTOMOBILE|"
            .iter()
            .cycle()
            .take(30_000)
            .copied()
            .collect();
        let c = compress(&data);
        assert!(
            (c.len() as f64) < data.len() as f64 * 0.15,
            "ratio {} too poor",
            c.len() as f64 / data.len() as f64
        );
        round_trip(&data);
    }

    #[test]
    fn incompressible_data_survives() {
        // Pseudo-random bytes: xorshift.
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 64 + 16);
        round_trip(&data);
    }

    #[test]
    fn overlapping_matches() {
        round_trip(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab");
        round_trip(b"abcabcabcabcabcabcabcabcabcabcabcabcabc");
    }

    #[test]
    fn varint_round_trip() {
        use varint::*;
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let (back, n) = read_u64(&buf);
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
