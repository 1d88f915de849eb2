//! Whitespace-separated edge lists: `u v [w]` per line, `#`/`%` comments.
//! Vertex ids are 0-based. Missing weights default to 1 (unweighted input,
//! as the paper assumes).
//!
//! [`read_edge_list_on`] reads its input into one buffer, cuts it after
//! `\n` bytes into one chunk per lane and parses the chunks on scoped
//! threads, the calling thread taking the first (GVEL, Sahu, "Fast Graph
//! Loading in Edgelist and CSR formats", loads the same way). Each lane
//! splits its lines with the readers' shared one-pass scanner (see
//! [`crate::io`]) and queues its edges into a [`GraphBuilder`] of its
//! own, the first lane into the one that becomes the graph; the later
//! lanes' queues are appended in chunk order, so the builder sees the
//! queue a one-lane read gives. The header and the first error are taken
//! in file order, an error's line number offset by the lines of the
//! chunks ahead of it. Lines, fields, numbers and errors are those of
//! `BufRead::lines`, `str::split_whitespace` and `str::parse`.

use super::{
    check_claimed_vertex_count, check_vertex_count, parse_err, parse_f32, parse_u64, read_all,
    utf8, Fields, IoError, Lines, PREALLOC,
};
use crate::builder::GraphBuilder;
use crate::csr::{Csr, VertexId};
use crate::threads::resolve_threads;
use std::io::{BufRead, Write};

/// Header line [`write_edge_list`] emits ahead of the edges.
const HEADER_PREFIX: &str = "# nu-lpa edge list:";

/// Fewest bytes of text a lane is given. On the 2-vCPU development host a
/// scoped thread took 45–60 µs to spawn and join (median of 2,000) and a
/// lane parsed 330–590 bytes per µs, so a lane of this size parses for two
/// to four times its start-up cost. Smaller inputs load on fewer lanes;
/// the built-in test graphs (≤ 14 KB as text) load on one.
const MIN_LANE_BYTES: usize = 1 << 16;

/// `N`, and `M` if it parses, from a `# nu-lpa edge list: N vertices, M
/// edges` header line.
fn header_counts(line: &str) -> Option<(usize, Option<usize>)> {
    let mut it = line.strip_prefix(HEADER_PREFIX)?.split_whitespace();
    let n = it.next()?.parse().ok()?;
    it.next()?.starts_with("vertices").then_some(())?;
    Some((n, it.next().and_then(|m| m.parse().ok())))
}

/// What one lane found in its chunk.
struct Lane {
    builder: GraphBuilder,
    /// Lines of the chunk scanned; all of them unless `error` is set.
    lines: usize,
    edges: usize,
    max_id: u64,
    /// |V| claimed by the chunk's first header, and its line in the chunk.
    header: Option<(usize, usize)>,
    /// The chunk's first error, with its line number in the chunk.
    error: Option<IoError>,
}

impl Lane {
    /// Parse `chunk`. Only the first lane sizes its queue from the header,
    /// since its queue holds the whole file's edges in the end.
    fn parse(chunk: &[u8], first: bool) -> Lane {
        let mut lane = Lane {
            // |V| is known only at the end; the lane checks ids and weights
            builder: GraphBuilder::new(0),
            lines: 0,
            edges: 0,
            max_id: 0,
            header: None,
            error: None,
        };
        let mut lines = Lines::new(chunk, None);
        lane.error = lane.scan(&mut lines, first).err();
        lane.lines = lines.count();
        lane
    }

    fn scan(&mut self, lines: &mut Lines, first: bool) -> Result<(), IoError> {
        loop {
            let (u, v, w) = match lines.next_plain() {
                Some((u, v, w)) => (u, v, w.map_or(1.0, |w| w as f32)),
                None => match lines.next_line()? {
                    None => return Ok(()),
                    Some((lineno, line, fields)) => {
                        match self.line(lineno, line, &fields, first)? {
                            Some(edge) => edge,
                            None => continue,
                        }
                    }
                },
            };
            if u >= u32::MAX as u64 || v >= u32::MAX as u64 {
                return Err(parse_err(lines.count(), "vertex id exceeds u32 range"));
            }
            self.max_id = self.max_id.max(u).max(v);
            self.edges += 1;
            self.builder.push_unchecked(u as VertexId, v as VertexId, w);
        }
    }

    /// The edge on a line that is not plain digits, or `None` for a blank
    /// line or a comment, whose header the lane takes if it has none yet.
    fn line(
        &mut self,
        lineno: usize,
        line: &[u8],
        fields: &Fields,
        first: bool,
    ) -> Result<Option<(u64, u64, f32)>, IoError> {
        let source = match fields.get(0) {
            None => return Ok(None),
            Some([b'#' | b'%', ..]) => {
                if self.header.is_none() {
                    if let Some((n, m)) = header_counts(utf8(line)?.trim()) {
                        self.header = Some((n, lineno));
                        if first {
                            // Room for 2(N + M) queue entries: three times
                            // the bytes of the CSR the queue becomes, of
                            // which only the first M entries are touched.
                            // glibc keeps up to twice the largest mapping
                            // freed as free heap before it trims, so
                            // freeing this queue keeps a process that goes
                            // on to hold a few CSR-sized arrays (a copy, a
                            // dynamic update's output) from trimming its
                            // heap and page-faulting it in again after
                            // every load (EXPERIMENTS.md, "Text load").
                            let room = n.saturating_add(m.unwrap_or(0)).saturating_mul(2);
                            let b = std::mem::replace(&mut self.builder, GraphBuilder::new(0));
                            self.builder = b.reserve(room.min(PREALLOC));
                        }
                    }
                }
                return Ok(None);
            }
            Some(source) => source,
        };
        let u = parse_u64(source).ok_or_else(|| parse_err(lineno, "bad source vertex"))?;
        let v = parse_u64(
            fields
                .get(1)
                .ok_or_else(|| parse_err(lineno, "missing target vertex"))?,
        )
        .ok_or_else(|| parse_err(lineno, "bad target vertex"))?;
        let w = match fields.get(2) {
            Some(s) => parse_f32(s).ok_or_else(|| parse_err(lineno, "bad weight"))?,
            None => 1.0,
        };
        if !w.is_finite() {
            return Err(parse_err(lineno, "non-finite weight"));
        }
        Ok(Some((u, v, w)))
    }
}

/// `text` cut after `\n` bytes into `lanes` chunks of about equal
/// length (one empty where a line is longer than a chunk).
fn chunks(text: &[u8], lanes: usize) -> Vec<&[u8]> {
    let mut out = Vec::with_capacity(lanes);
    let mut rest = text;
    for left in (1..=lanes).rev() {
        let at = rest.len() / left;
        let end = rest[at..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| at + i + 1);
        let (chunk, tail) = rest.split_at(end);
        out.push(chunk);
        rest = tail;
    }
    out
}

/// Read an edge list. `num_vertices` may be larger than the max id seen;
/// pass `None` to take |V| from the [`write_edge_list`] header when the
/// input has one (so trailing isolated vertices survive a round trip),
/// else to size the graph to `max_id + 1`. Either way a count from the
/// file of more than 2^28 vertices is rejected. Ids ≥ |V| are rejected.
/// When `symmetrize` is set, missing reverse edges are added (paper's
/// preprocessing; see [`GraphBuilder::symmetrize`]). Parses on the lanes
/// [`crate::resolve_threads`]`(0)` gives; see [`read_edge_list_on`].
pub fn read_edge_list<R: BufRead>(
    reader: R,
    num_vertices: Option<usize>,
    symmetrize: bool,
) -> Result<Csr, IoError> {
    read_edge_list_on(reader, num_vertices, symmetrize, 0)
}

/// [`read_edge_list`] on `lanes` threads, the calling one included; `0`
/// resolves as [`crate::resolve_threads`] does. Each lane is given at
/// least 64 KiB of the input, so a smaller input loads on fewer lanes. The
/// graph and every error are the same at any lane count.
pub fn read_edge_list_on<R: BufRead>(
    reader: R,
    num_vertices: Option<usize>,
    symmetrize: bool,
    lanes: usize,
) -> Result<Csr, IoError> {
    let (text, read_err) = read_all(reader);
    let lanes = resolve_threads(lanes)
        .min(text.len() / MIN_LANE_BYTES)
        .max(1);
    let chunks = chunks(&text, lanes);
    let (head, tail) = chunks.split_first().expect("at least one lane");
    let parsed = std::thread::scope(|s| {
        let handles: Vec<_> = tail
            .iter()
            .map(|&chunk| s.spawn(move || Lane::parse(chunk, false)))
            .collect();
        let mut parsed = vec![Lane::parse(head, true)];
        for h in handles {
            parsed.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        parsed
    });

    let mut builder: Option<GraphBuilder> = None;
    let (mut lines, mut edges, mut max_id) = (0, 0, 0u64);
    // |V| claimed by the file's first header, and its line
    let mut header: Option<(usize, usize)> = None;
    for lane in parsed {
        if let Some(e) = lane.error {
            return Err(match e {
                IoError::Parse { line, msg } => parse_err(lines + line, msg),
                e => e,
            });
        }
        header = header.or(lane.header.map(|(n, line)| (n, lines + line)));
        lines += lane.lines;
        edges += lane.edges;
        max_id = max_id.max(lane.max_id);
        match builder.as_mut() {
            None => builder = Some(lane.builder),
            Some(b) => b.append(lane.builder),
        }
    }
    if let Some(e) = read_err {
        return Err(e.into());
    }
    let mut b = builder.expect("at least one lane");

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
        None if edges == 0 => 0,
        None => {
            // held to what a header may claim, so that one huge id cannot
            // size a multi-gigabyte offsets array
            let n = max_id as usize + 1;
            check_claimed_vertex_count(0, n)?;
            n
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
