//! The RCFile layout (He et al., ICDE 2011): rows are grouped into *row
//! groups*; within a group each column is stored contiguously and
//! compressed on its own. Readers that project a subset of columns only
//! decompress those chunks — but decompression is CPU-intensive, which is
//! exactly the "RCFile has a high CPU overhead" effect the paper measures
//! (≈ 70 MB/s per map task, CPU-bound).

use crate::compress::{self, varint};
use relational::{DataType, Row, Schema, Value};

/// Default rows per row group (sized so a group is a few MB, like Hive's
/// 4 MB default).
pub const DEFAULT_ROW_GROUP: usize = 16 * 1024;

/// One row group: per-column compressed chunks.
#[derive(Clone, Debug)]
pub struct RowGroup {
    pub n_rows: usize,
    /// Compressed bytes per column.
    pub columns: Vec<Vec<u8>>,
    /// Uncompressed bytes per column (for cost accounting).
    pub raw_sizes: Vec<u64>,
}

/// An RCFile: an ordered list of row groups plus the schema.
#[derive(Clone, Debug)]
pub struct RcFile {
    pub schema: Schema,
    pub groups: Vec<RowGroup>,
}

impl RcFile {
    /// Encode rows into row groups of `rows_per_group`.
    pub fn write(rows: &[Row], schema: &Schema, rows_per_group: usize) -> RcFile {
        assert!(rows_per_group > 0);
        let groups = rows
            .chunks(rows_per_group)
            .map(|chunk| encode_group(chunk, schema))
            .collect();
        RcFile {
            schema: schema.clone(),
            groups,
        }
    }

    pub fn n_rows(&self) -> usize {
        self.groups.iter().map(|g| g.n_rows).sum()
    }

    /// Total compressed size (what HDFS stores and disks read).
    pub fn compressed_size(&self) -> u64 {
        self.groups
            .iter()
            .map(|g| g.columns.iter().map(|c| c.len() as u64).sum::<u64>())
            .sum()
    }

    /// Compressed size of only the given columns (lazy projection reads).
    pub fn compressed_size_of(&self, cols: &[usize]) -> u64 {
        self.groups
            .iter()
            .map(|g| cols.iter().map(|&c| g.columns[c].len() as u64).sum::<u64>())
            .sum()
    }

    /// Total uncompressed size.
    pub fn uncompressed_size(&self) -> u64 {
        self.groups
            .iter()
            .map(|g| g.raw_sizes.iter().sum::<u64>())
            .sum()
    }

    /// Decode every row.
    pub fn read_all(&self) -> Vec<Row> {
        let all: Vec<usize> = (0..self.schema.len()).collect();
        self.read_columns(&all)
    }

    /// Decode a projection: output rows contain `cols` in the given order.
    pub fn read_columns(&self, cols: &[usize]) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.n_rows());
        for g in &self.groups {
            let mut decoded: Vec<std::vec::IntoIter<Value>> = cols
                .iter()
                .map(|&c| {
                    decode_column(&g.columns[c], self.schema.field(c).ty, g.n_rows).into_iter()
                })
                .collect();
            for _ in 0..g.n_rows {
                out.push(
                    decoded
                        .iter_mut()
                        .map(|col| col.next().expect("a value per row"))
                        .collect(),
                );
            }
        }
        out
    }
}

fn encode_group(rows: &[Row], schema: &Schema) -> RowGroup {
    let mut columns = Vec::with_capacity(schema.len());
    let mut raw_sizes = Vec::with_capacity(schema.len());
    for c in 0..schema.len() {
        let raw = encode_column(rows, c, schema.field(c).ty);
        raw_sizes.push(raw.len() as u64);
        columns.push(compress::compress(&raw));
    }
    RowGroup {
        n_rows: rows.len(),
        columns,
        raw_sizes,
    }
}

fn encode_column(rows: &[Row], c: usize, ty: DataType) -> Vec<u8> {
    let mut out = Vec::new();
    // Nulls bitmap.
    let mut bitmap = vec![0u8; rows.len().div_ceil(8)];
    for (i, row) in rows.iter().enumerate() {
        if row[c].is_null() {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&bitmap);
    for row in rows {
        match (&row[c], ty) {
            (Value::Null, _) => {}
            (Value::Bool(b), DataType::Bool) => out.push(*b as u8),
            (Value::I64(v), DataType::I64) => varint::write_u64(&mut out, varint::zigzag(*v)),
            (Value::F64(v), DataType::F64) => out.extend_from_slice(&v.to_le_bytes()),
            (Value::Decimal(v), DataType::Decimal) => {
                varint::write_u64(&mut out, varint::zigzag(*v))
            }
            (Value::Date(v), DataType::Date) => {
                varint::write_u64(&mut out, varint::zigzag(*v as i64))
            }
            (Value::Str(s), DataType::Str) => {
                varint::write_u64(&mut out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
            (v, t) => panic!("value {v:?} does not match column type {t:?}"),
        }
    }
    out
}

fn decode_column(compressed: &[u8], ty: DataType, n_rows: usize) -> Vec<Value> {
    let raw = compress::decompress(compressed);
    let bitmap_len = n_rows.div_ceil(8);
    let (bitmap, mut data) = raw.split_at(bitmap_len);
    let mut out = Vec::with_capacity(n_rows);
    for i in 0..n_rows {
        if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            out.push(Value::Null);
            continue;
        }
        match ty {
            DataType::Bool => {
                out.push(Value::Bool(data[0] != 0));
                data = &data[1..];
            }
            DataType::I64 => {
                let (v, n) = varint::read_u64(data);
                out.push(Value::I64(varint::unzigzag(v)));
                data = &data[n..];
            }
            DataType::F64 => {
                let mut b = [0u8; 8];
                b.copy_from_slice(&data[..8]);
                out.push(Value::F64(f64::from_le_bytes(b)));
                data = &data[8..];
            }
            DataType::Decimal => {
                let (v, n) = varint::read_u64(data);
                out.push(Value::Decimal(varint::unzigzag(v)));
                data = &data[n..];
            }
            DataType::Date => {
                let (v, n) = varint::read_u64(data);
                out.push(Value::Date(varint::unzigzag(v) as i32));
                data = &data[n..];
            }
            DataType::Str => {
                let (len, n) = varint::read_u64(data);
                data = &data[n..];
                let s = std::str::from_utf8(&data[..len as usize]).expect("bad utf8");
                out.push(Value::str(s));
                data = &data[len as usize..];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::date::date;

    fn schema() -> Schema {
        Schema::of(&[
            ("k", DataType::I64),
            ("price", DataType::Decimal),
            ("flag", DataType::Str),
            ("ship", DataType::Date),
            ("rate", DataType::F64),
        ])
    }

    fn sample_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    Value::I64(i as i64 * 32),
                    Value::Decimal(10_000 + (i % 1000) as i64),
                    Value::str(if i % 2 == 0 { "A" } else { "R" }),
                    Value::Date(date(1995, 1, 1) + (i % 2000) as i32),
                    Value::F64(i as f64 * 0.25),
                ]
            })
            .collect()
    }

    #[test]
    fn round_trip_all_columns() {
        let rows = sample_rows(5000);
        let f = RcFile::write(&rows, &schema(), 1024);
        assert_eq!(f.groups.len(), 5); // 5000 / 1024 → 5 groups
        assert_eq!(f.n_rows(), 5000);
        assert_eq!(f.read_all(), rows);
    }

    #[test]
    fn projection_reads_only_requested_columns() {
        let rows = sample_rows(100);
        let f = RcFile::write(&rows, &schema(), 64);
        let proj = f.read_columns(&[2, 0]);
        assert_eq!(proj.len(), 100);
        assert_eq!(proj[3], vec![Value::str("R"), Value::I64(96)]);
        // Projected compressed size strictly smaller than whole file.
        assert!(f.compressed_size_of(&[0]) < f.compressed_size());
    }

    #[test]
    fn compresses_tpch_like_data() {
        let rows = sample_rows(20_000);
        let f = RcFile::write(&rows, &schema(), DEFAULT_ROW_GROUP);
        let ratio = f.compressed_size() as f64 / f.uncompressed_size() as f64;
        assert!(ratio < 0.7, "expected some compression, ratio={ratio:.3}");
    }

    #[test]
    fn nulls_round_trip() {
        let s = Schema::of(&[("a", DataType::I64), ("b", DataType::Str)]);
        let rows = vec![
            vec![Value::Null, Value::str("x")],
            vec![Value::I64(1), Value::Null],
            vec![Value::Null, Value::Null],
        ];
        let f = RcFile::write(&rows, &s, 2);
        assert_eq!(f.read_all(), rows);
    }

    #[test]
    fn empty_file() {
        let f = RcFile::write(&[], &schema(), 128);
        assert_eq!(f.n_rows(), 0);
        assert_eq!(f.read_all(), Vec::<Row>::new());
        assert_eq!(f.compressed_size(), 0);
    }
}
