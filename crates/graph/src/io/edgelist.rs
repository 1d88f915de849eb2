//! Whitespace-separated edge lists: `u v [w]` per line, `#`/`%` comments.
//! Vertex ids are 0-based. Missing weights default to 1 (unweighted input,
//! as the paper assumes).
//!
//! [`read_edge_list`] scans the input with the line scanner the text
//! readers share (see [`crate::io`]) and queues each edge straight into
//! the [`GraphBuilder`], so reading allocates nothing per line. Lines,
//! fields, numbers and errors are those of `BufRead::lines`,
//! `str::split_whitespace` and `str::parse`.

use super::{
    check_claimed_vertex_count, check_vertex_count, parse_err, parse_f32, parse_u64, utf8, Fields,
    IoError, LineScanner, PREALLOC,
};
use crate::builder::GraphBuilder;
use crate::csr::{Csr, VertexId};
use std::io::{BufRead, Write};

/// Header line [`write_edge_list`] emits ahead of the edges.
const HEADER_PREFIX: &str = "# nu-lpa edge list:";

/// `N`, and `M` if it parses, from a `# nu-lpa edge list: N vertices, M
/// edges` header line.
fn header_counts(line: &str) -> Option<(usize, Option<usize>)> {
    let mut it = line.strip_prefix(HEADER_PREFIX)?.split_whitespace();
    let n = it.next()?.parse().ok()?;
    it.next()?.starts_with("vertices").then_some(())?;
    Some((n, it.next().and_then(|m| m.parse().ok())))
}

/// Read an edge list. `num_vertices` may be larger than the max id seen;
/// pass `None` to take |V| from the [`write_edge_list`] header when the
/// input has one (so trailing isolated vertices survive a round trip),
/// else to size the graph to `max_id + 1`. A header claiming more than
/// 2^28 vertices is rejected. Ids ≥ |V| are rejected. When
/// `symmetrize` is set, missing reverse edges are added (paper's
/// preprocessing; see [`GraphBuilder::symmetrize`]).
pub fn read_edge_list<R: BufRead>(
    reader: R,
    num_vertices: Option<usize>,
    symmetrize: bool,
) -> Result<Csr, IoError> {
    let mut lines = LineScanner::new(reader);
    // |V| is known only at the end; the reader checks ids and weights itself
    let mut b = GraphBuilder::new(0);
    let mut edges = 0usize;
    let mut max_id: u64 = 0;
    // |V| claimed by the header, and the header's line number
    let mut header: Option<(usize, usize)> = None;
    while let Some((lineno, line)) = lines.next_line()? {
        let mut it = Fields::new(line)?;
        let first = match it.next() {
            None => continue,
            Some([b'#' | b'%', ..]) => {
                if header.is_some() {
                    continue;
                }
                if let Some((n, m)) = header_counts(utf8(line)?.trim()) {
                    header = Some((n, lineno));
                    // Room for 2(N + M) queue entries: three times the
                    // bytes of the CSR the queue becomes, of which only
                    // the first M entries are touched. glibc keeps up to
                    // twice the largest mapping freed as free heap before
                    // it trims, so freeing this queue keeps a process that
                    // goes on to hold a few CSR-sized arrays (a copy, a
                    // dynamic update's output) from trimming its heap and
                    // page-faulting it in again after every load
                    // (EXPERIMENTS.md, "Text load").
                    let room = n.saturating_add(m.unwrap_or(0)).saturating_mul(2);
                    b = b.reserve(room.min(PREALLOC));
                }
                continue;
            }
            Some(first) => first,
        };
        let u = parse_u64(first).ok_or_else(|| parse_err(lineno, "bad source vertex"))?;
        let v = parse_u64(
            it.next()
                .ok_or_else(|| parse_err(lineno, "missing target vertex"))?,
        )
        .ok_or_else(|| parse_err(lineno, "bad target vertex"))?;
        let w = match it.next() {
            Some(s) => parse_f32(s).ok_or_else(|| parse_err(lineno, "bad weight"))?,
            None => 1.0,
        };
        if !w.is_finite() {
            return Err(parse_err(lineno, "non-finite weight"));
        }
        if u >= u32::MAX as u64 || v >= u32::MAX as u64 {
            return Err(parse_err(lineno, "vertex id exceeds u32 range"));
        }
        max_id = max_id.max(u).max(v);
        edges += 1;
        b.push_unchecked(u as VertexId, v as VertexId, w);
    }
    if let (None, Some((n, lineno))) = (num_vertices, header) {
        check_claimed_vertex_count(lineno, n)?;
    }
    let n = match num_vertices.or(header.map(|(n, _)| n)) {
        Some(n) => {
            if edges > 0 && max_id as usize >= n {
                return Err(parse_err(0, format!("vertex {max_id} >= |V| = {n}")));
            }
            n
        }
        None => {
            if edges == 0 {
                0
            } else {
                max_id as usize + 1
            }
        }
    };
    check_vertex_count(0, n)?;
    b.set_num_vertices(n);
    if symmetrize {
        b = b.symmetrize();
    }
    Ok(b.build())
}

/// Write the stored directed edges as `u v w` lines.
pub fn write_edge_list<W: Write>(g: &Csr, mut out: W) -> std::io::Result<()> {
    writeln!(
        out,
        "# nu-lpa edge list: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for u in g.vertices() {
        for (v, w) in g.neighbors(u) {
            writeln!(out, "{u} {v} {w}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        let g = crate::gen::caveman(3, 4);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf), Some(g.num_vertices()), false).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let txt = "# header\n\n% more\n0 1\n1 2 2.5\n";
        let g = read_edge_list(Cursor::new(txt), None, false).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.edge_weight(1, 2), Some(2.5));
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn symmetrize_on_read() {
        let txt = "0 1\n";
        let g = read_edge_list(Cursor::new(txt), None, true).unwrap();
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn sizes_to_max_id() {
        let txt = "0 9\n";
        let g = read_edge_list(Cursor::new(txt), None, false).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn rejects_bad_tokens() {
        assert!(read_edge_list(Cursor::new("0 x\n"), None, false).is_err());
        assert!(read_edge_list(Cursor::new("0\n"), None, false).is_err());
        assert!(read_edge_list(Cursor::new("0 1 inf\n"), None, false).is_err());
    }

    #[test]
    fn rejects_vertex_beyond_given_n() {
        assert!(read_edge_list(Cursor::new("0 5\n"), Some(3), false).is_err());
    }

    #[test]
    fn header_keeps_trailing_isolated_vertices() {
        // Vertices 4 and 5 have no edges; only the header says they exist.
        let g = GraphBuilder::new(6)
            .add_undirected_edge(0, 1, 1.0)
            .add_undirected_edge(2, 3, 2.0)
            .build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf), None, true).unwrap();
        assert_eq!(g2.num_vertices(), 6);
        assert_eq!(g, g2);
    }

    #[test]
    fn header_bounds_vertex_ids() {
        let txt = "# nu-lpa edge list: 3 vertices, 1 edges\n0 5\n";
        assert!(read_edge_list(Cursor::new(txt), None, false).is_err());
        // an explicit |V| still wins over the header
        let g = read_edge_list(Cursor::new(txt), Some(8), false).unwrap();
        assert_eq!(g.num_vertices(), 8);
    }

    #[test]
    fn empty_input() {
        let g = read_edge_list(Cursor::new(""), None, false).unwrap();
        assert_eq!(g.num_vertices(), 0);
    }
}
