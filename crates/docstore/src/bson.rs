//! A minimal BSON-style document codec, enough to measure real document
//! sizes for the YCSB record shape (string key + ten 100-byte string
//! fields). Layout per element: `type:u8, name:cstring, i32 len, bytes,
//! NUL` (string elements only — all YCSB fields are strings).

/// One document: ordered (name, value) string pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Doc {
    pub fields: Vec<(String, String)>,
}

impl Doc {
    /// The YCSB record: `_id` = 24-byte key, `field0..field9` of
    /// `field_len` bytes each.
    pub fn ycsb(key: &str, field_len: usize) -> Doc {
        let mut fields = vec![("_id".to_string(), key.to_string())];
        for i in 0..10 {
            fields.push((format!("field{i}"), "x".repeat(field_len)));
        }
        Doc { fields }
    }

    /// Encode to BSON-ish bytes: `i32 total_len, elements..., 0x00`.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        for (name, value) in &self.fields {
            body.push(0x02); // string element
            body.extend_from_slice(name.as_bytes());
            body.push(0);
            body.extend_from_slice(&(value.len() as i32 + 1).to_le_bytes());
            body.extend_from_slice(value.as_bytes());
            body.push(0);
        }
        let total = body.len() as i32 + 5;
        let mut out = Vec::with_capacity(total as usize);
        out.extend_from_slice(&total.to_le_bytes());
        out.extend_from_slice(&body);
        out.push(0);
        out
    }

    /// Decode (panics on malformed input — documents are only produced by
    /// [`Doc::encode`] in this system).
    pub fn decode(data: &[u8]) -> Doc {
        let (total, mut buf) = read_i32_le(data);
        assert_eq!(total as usize, data.len(), "length prefix mismatch");
        let mut fields = Vec::new();
        while buf.len() > 1 {
            assert_eq!(buf[0], 0x02, "only string elements supported");
            let name_end = buf.iter().position(|&b| b == 0).expect("name NUL");
            let name = String::from_utf8(buf[1..name_end].to_vec()).expect("utf8 name");
            let (len, rest) = read_i32_le(&buf[name_end + 1..]);
            let len = len as usize;
            let value = String::from_utf8(rest[..len - 1].to_vec()).expect("utf8 value");
            buf = &rest[len..];
            fields.push((name, value));
        }
        assert_eq!(buf, [0], "trailing NUL");
        Doc { fields }
    }
}

/// Split a little-endian `i32` off the front of `buf`.
fn read_i32_le(buf: &[u8]) -> (i32, &[u8]) {
    let (head, rest) = buf.split_at(4);
    (i32::from_le_bytes(head.try_into().expect("4 bytes")), rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let d = Doc::ycsb("user000000000000000042", 100);
        let bytes = d.encode();
        assert_eq!(Doc::decode(&bytes), d);
    }

    #[test]
    fn ycsb_record_is_about_1_kilobyte() {
        // The paper: 1024-byte records (24-byte key + 10 × 100-byte
        // fields). BSON overhead adds names and framing.
        let d = Doc::ycsb(&format!("{:024}", 42), 100);
        let len = d.encode().len();
        assert!(
            (1024..1200).contains(&len),
            "encoded YCSB doc ≈ 1.1 KB, got {len}"
        );
        // 32 KB extents hold ~29-31 documents.
        let per_extent = 32 * 1024 / len;
        assert!((27..=32).contains(&per_extent));
    }
}
