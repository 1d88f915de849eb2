//! Compact binary CSR serialization — fast reload for large stand-ins.
//!
//! Format (little-endian):
//! ```text
//! magic  8 bytes  "NULPACSR"
//! version u32     1
//! |V|    u64
//! |E|    u64
//! offsets (|V|+1) × u64
//! targets |E| × u32
//! weights |E| × f32 bit patterns
//! ```

use super::{check_vertex_count, parse_err, IoError, PREALLOC};
use crate::csr::Csr;
use std::io::{Read, Write};

const MAGIC: &[u8; 8] = b"NULPACSR";
const VERSION: u32 = 1;

/// Serialize a graph to the binary CSR format.
pub fn write_binary<W: Write>(g: &Csr, mut out: W) -> std::io::Result<()> {
    out.write_all(MAGIC)?;
    out.write_all(&VERSION.to_le_bytes())?;
    out.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    out.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    for &o in g.offsets() {
        out.write_all(&(o as u64).to_le_bytes())?;
    }
    for &t in g.targets() {
        out.write_all(&t.to_le_bytes())?;
    }
    for &w in g.weights() {
        out.write_all(&w.to_bits().to_le_bytes())?;
    }
    Ok(())
}

/// Deserialize a graph written by [`write_binary`].
pub fn read_binary<R: Read>(mut input: R) -> Result<Csr, IoError> {
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(parse_err(0, "bad magic — not a NULPACSR file"));
    }
    let version = read_u32(&mut input)?;
    if version != VERSION {
        return Err(parse_err(0, format!("unsupported version {version}")));
    }
    let n = usize::try_from(read_u64(&mut input)?).unwrap_or(usize::MAX);
    check_vertex_count(0, n)?;
    let m = usize::try_from(read_u64(&mut input)?).unwrap_or(usize::MAX);

    // The counts come from the file: preallocate at most PREALLOC
    // entries and grow past that only as bytes actually arrive.
    let mut offsets = Vec::with_capacity(n.min(PREALLOC) + 1);
    for _ in 0..=n {
        offsets.push(read_u64(&mut input)? as usize);
    }
    let mut targets = Vec::with_capacity(m.min(PREALLOC));
    for _ in 0..m {
        targets.push(read_u32(&mut input)?);
    }
    let mut weights = Vec::with_capacity(m.min(PREALLOC));
    for _ in 0..m {
        let bits = read_u32(&mut input)?;
        let w = f32::from_bits(bits);
        if !w.is_finite() {
            return Err(parse_err(0, "non-finite weight in binary file"));
        }
        weights.push(w);
    }
    Csr::try_from_raw(offsets, targets, weights).map_err(|e| parse_err(0, e))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, IoError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, IoError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{caveman_weighted, erdos_renyi};
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        for g in [caveman_weighted(3, 5, 0.5), erdos_renyi(80, 200, 7)] {
            let mut buf = Vec::new();
            write_binary(&g, &mut buf).unwrap();
            let g2 = read_binary(Cursor::new(buf)).unwrap();
            assert_eq!(g, g2);
        }
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = crate::Csr::empty(4);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(Cursor::new(buf)).unwrap(), g);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(read_binary(Cursor::new(b"NOTACSR!rest".to_vec())).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let g = caveman_weighted(2, 4, 1.0);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(Cursor::new(buf)).is_err());
    }

    #[test]
    fn rejects_corrupt_offsets() {
        let g = caveman_weighted(2, 4, 1.0);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // corrupt the first offset (offset table starts at byte 8+4+8+8=28)
        buf[28] = 0xff;
        assert!(read_binary(Cursor::new(buf)).is_err());
    }

    /// Overwrite the little-endian `u64` at `at`.
    fn poke_u64(buf: &mut [u8], at: usize, v: u64) {
        buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    #[test]
    fn corrupt_arrays_are_errors_not_panics() {
        let g = caveman_weighted(2, 4, 1.0);
        let mut clean = Vec::new();
        write_binary(&g, &mut clean).unwrap();
        let (n, m) = (g.num_vertices(), g.num_edges());
        let offsets_at = 28;
        let targets_at = offsets_at + 8 * (n + 1);

        // an interior offset far past the edge arrays
        let mut buf = clean.clone();
        poke_u64(&mut buf, offsets_at + 8, 1 << 40);
        let err = read_binary(Cursor::new(buf)).unwrap_err().to_string();
        assert!(err.contains("past the edge arrays"), "{err}");

        // decreasing offsets
        let mut buf = clean.clone();
        poke_u64(&mut buf, offsets_at + 8 * 2, 1);
        poke_u64(&mut buf, offsets_at + 8 * 3, 0);
        assert!(read_binary(Cursor::new(buf)).is_err());

        // a target id outside 0..n (the last edge, so adjacency stays sorted)
        let mut buf = clean.clone();
        let last = targets_at + 4 * (m - 1);
        buf[last..last + 4].copy_from_slice(&(n as u32 + 5).to_le_bytes());
        let err = read_binary(Cursor::new(buf)).unwrap_err().to_string();
        assert!(err.contains("out of range"), "{err}");

        // header |E| disagreeing with the offsets (lengths mismatch)
        let mut buf = clean.clone();
        poke_u64(&mut buf, 20, m as u64 - 1);
        assert!(read_binary(Cursor::new(buf)).is_err());

        // vertex counts larger than the file holds fail at end of input
        // without allocating for the claimed size
        for claimed in [u64::MAX / 2, 1 << 31] {
            let mut buf = clean.clone();
            poke_u64(&mut buf, 12, claimed);
            assert!(read_binary(Cursor::new(buf)).is_err());
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let g = crate::Csr::empty(1);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf[8] = 9; // version field
        assert!(read_binary(Cursor::new(buf)).is_err());
    }
}
