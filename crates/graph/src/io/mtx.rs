//! MatrixMarket coordinate format, the SuiteSparse interchange format used
//! by the paper's dataset loaders. Supports `matrix coordinate
//! {real,integer,pattern} {general,symmetric}` with 1-based indices.

use super::{
    check_claimed_vertex_count, parse_err, parse_f32, parse_u64, read_all, utf8, Fields, IoError,
    Lines, PREALLOC,
};
use crate::builder::GraphBuilder;
use crate::csr::{Csr, VertexId};
use std::io::{BufRead, Write};

/// Whether a line is data: not blank and not a `%` comment.
fn is_data(fields: &Fields) -> bool {
    fields.get(0).is_some_and(|f| f[0] != b'%')
}

/// Field `i` as an index or count, as `str::parse::<usize>` reads it.
fn usize_at(fields: &Fields, i: usize) -> Option<usize> {
    usize::try_from(parse_u64(fields.get(i)?)?).ok()
}

/// Read a MatrixMarket file into a symmetrized graph. `general` matrices
/// get reverse edges added (the paper's preprocessing for directed webs);
/// `symmetric` matrices store each off-diagonal entry once and we expand
/// it to both directions. Diagonal entries (self loops) are dropped. A
/// size line claiming more than 2^28 rows is rejected. The input is read
/// into one buffer and its lines scanned as
/// [`read_edge_list`](super::read_edge_list) scans them, without an
/// allocation per line.
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<Csr, IoError> {
    let (text, read_err) = read_all(reader);
    let mut lines = Lines::new(&text, read_err);

    // Header
    let (_, header, _) = lines
        .next_line()?
        .ok_or_else(|| parse_err(1, "empty file"))?;
    let header = utf8(header)?;
    if !header.starts_with("%%MatrixMarket") {
        return Err(parse_err(1, "missing %%MatrixMarket header"));
    }
    let toks: Vec<String> = header
        .split_whitespace()
        .map(|s| s.to_lowercase())
        .collect();
    if toks.len() < 5 || toks[1] != "matrix" || toks[2] != "coordinate" {
        return Err(parse_err(1, "only `matrix coordinate` supported"));
    }
    let field = toks[3].as_str();
    if !matches!(field, "real" | "integer" | "pattern") {
        return Err(parse_err(1, format!("unsupported field type `{field}`")));
    }
    let symmetry = toks[4].as_str();
    if !matches!(symmetry, "general" | "symmetric") {
        return Err(parse_err(1, format!("unsupported symmetry `{symmetry}`")));
    }
    let pattern = field == "pattern";

    // Size line (after comments)
    let (szno, size) = loop {
        let (lineno, _, fields) = lines
            .next_line()?
            .ok_or_else(|| parse_err(0, "missing size line"))?;
        if is_data(&fields) {
            break (lineno, fields);
        }
    };
    let rows = usize_at(&size, 0).ok_or_else(|| parse_err(szno, "bad row count"))?;
    let cols = usize_at(&size, 1).ok_or_else(|| parse_err(szno, "bad column count"))?;
    let nnz = usize_at(&size, 2).ok_or_else(|| parse_err(szno, "bad nnz count"))?;
    if rows != cols {
        return Err(parse_err(szno, "adjacency matrix must be square"));
    }
    check_claimed_vertex_count(szno, rows)?;

    // KeepFirst: a `general` file that already stores both (u,v) and (v,u)
    // must not see its weights doubled by our unconditional symmetrization.
    let mut b = GraphBuilder::new(rows)
        .duplicate_policy(crate::builder::DuplicatePolicy::KeepFirst)
        .reserve(nnz.min(PREALLOC) * 2);
    let mut seen = 0usize;
    while let Some((lineno, _, fields)) = lines.next_line()? {
        if !is_data(&fields) {
            continue;
        }
        let u = usize_at(&fields, 0).ok_or_else(|| parse_err(lineno, "bad row index"))?;
        let v = usize_at(&fields, 1).ok_or_else(|| parse_err(lineno, "bad column index"))?;
        let w = if pattern {
            1.0
        } else {
            fields
                .get(2)
                .and_then(parse_f32)
                .ok_or_else(|| parse_err(lineno, "missing value"))?
        };
        if u == 0 || v == 0 || u > rows || v > cols {
            return Err(parse_err(lineno, "index out of range (1-based)"));
        }
        if !w.is_finite() {
            return Err(parse_err(lineno, "non-finite value"));
        }
        seen += 1;
        let (u, v) = ((u - 1) as VertexId, (v - 1) as VertexId);
        if u == v {
            continue; // drop diagonal
        }
        // both symmetric storage and the paper's symmetrization want both
        // directions present
        b.push_undirected(u, v, w);
    }
    if seen != nnz {
        return Err(parse_err(
            0,
            format!("expected {nnz} entries, found {seen}"),
        ));
    }
    Ok(b.build())
}

/// Write as `matrix coordinate real symmetric`, storing each undirected
/// edge once (lower triangle).
pub fn write_matrix_market<W: Write>(g: &Csr, mut out: W) -> std::io::Result<()> {
    let mut entries = Vec::new();
    for u in g.vertices() {
        for (v, w) in g.neighbors(u) {
            if v <= u {
                entries.push((u, v, w));
            }
        }
    }
    writeln!(out, "%%MatrixMarket matrix coordinate real symmetric")?;
    writeln!(
        out,
        "{} {} {}",
        g.num_vertices(),
        g.num_vertices(),
        entries.len()
    )?;
    for (u, v, w) in entries {
        writeln!(out, "{} {} {}", u + 1, v + 1, w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_symmetric_pattern() {
        let txt =
            "%%MatrixMarket matrix coordinate pattern symmetric\n% comment\n3 3 2\n2 1\n3 2\n";
        let g = read_matrix_market(Cursor::new(txt)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.has_edge(1, 2) && g.has_edge(2, 1));
    }

    #[test]
    fn parse_general_real() {
        let txt = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.5\n";
        let g = read_matrix_market(Cursor::new(txt)).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(3.5));
        assert_eq!(g.edge_weight(1, 0), Some(3.5)); // symmetrized
    }

    #[test]
    fn diagonal_dropped() {
        let txt = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 2 1.0\n";
        let g = read_matrix_market(Cursor::new(txt)).unwrap();
        assert_eq!(g.num_self_loops(), 0);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn roundtrip() {
        let g = crate::gen::caveman(2, 5);
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let g2 = read_matrix_market(Cursor::new(buf)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn general_with_both_directions_not_doubled() {
        let txt = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 3.0\n2 1 3.0\n";
        let g = read_matrix_market(Cursor::new(txt)).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
        assert_eq!(g.edge_weight(1, 0), Some(3.0));
    }

    #[test]
    fn rejects_non_square() {
        let txt = "%%MatrixMarket matrix coordinate real general\n2 3 0\n";
        assert!(read_matrix_market(Cursor::new(txt)).is_err());
    }

    #[test]
    fn rejects_wrong_nnz() {
        let txt = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n";
        assert!(read_matrix_market(Cursor::new(txt)).is_err());
    }

    #[test]
    fn rejects_zero_index() {
        let txt = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market(Cursor::new(txt)).is_err());
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market(Cursor::new("not a header\n")).is_err());
        let arr = "%%MatrixMarket matrix array real general\n2 2\n";
        assert!(read_matrix_market(Cursor::new(arr)).is_err());
    }
}
