//! Exactness oracle for the text edge-list reader and the builder.
//!
//! `reference_read_edge_list` and `reference_build` are the reader and
//! builder as they were before the line scanner and the counting-sort
//! build: one `String` per line from `BufRead::lines`, `str::trim` /
//! `split_whitespace` / `parse`, then the old sort + binary-search
//! symmetrize and one global `(u, v, weight bits)` sort. The only rule
//! added to it since is the limit on the |V| a file may claim or imply.
//! The current code must give the same CSR bit for bit, or the same error
//! string, on any number of load lanes.

use nulpa_graph::io::{read_edge_list, read_edge_list_on, IoError};
use nulpa_graph::{Csr, DuplicatePolicy, GraphBuilder, VertexId, Weight};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{BufRead, BufReader, Read};

/// The old `GraphBuilder::symmetrize` + `build` over a queue that
/// `push_edge` has already filtered.
fn reference_build(
    n: usize,
    mut edges: Vec<(VertexId, VertexId, Weight)>,
    duplicates: DuplicatePolicy,
    symmetrize: bool,
) -> Csr {
    if symmetrize {
        let mut seen: Vec<(VertexId, VertexId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        seen.sort_unstable();
        let mut extra = Vec::new();
        for &(u, v, w) in &edges {
            if u != v && seen.binary_search(&(v, u)).is_err() {
                extra.push((v, u, w));
            }
        }
        edges.extend(extra);
    }
    edges.sort_unstable_by_key(|e| (e.0, e.1, e.2.to_bits()));
    match duplicates {
        DuplicatePolicy::KeepAll => {}
        DuplicatePolicy::SumWeights => {
            edges.dedup_by(|next, acc| {
                if next.0 == acc.0 && next.1 == acc.1 {
                    acc.2 += next.2;
                    true
                } else {
                    false
                }
            });
        }
        DuplicatePolicy::KeepFirst => {
            edges.dedup_by_key(|&mut (u, v, _)| (u, v));
        }
    }
    let mut offsets = vec![0usize; n + 1];
    for &(u, _, _) in &edges {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let (targets, weights) = edges.into_iter().map(|(_, v, w)| (v, w)).unzip();
    Csr::from_raw(offsets, targets, weights)
}

fn parse_err(line: usize, msg: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        msg: msg.into(),
    }
}

/// Most vertices a file may claim in its header or imply by its largest
/// id (the reader's `MAX_CLAIMED_VERTICES`).
const MAX_CLAIMED_VERTICES: usize = 1 << 28;

fn header_vertices(line: &str) -> Option<usize> {
    let mut it = line.strip_prefix("# nu-lpa edge list:")?.split_whitespace();
    let n = it.next()?.parse().ok()?;
    it.next()?.starts_with("vertices").then_some(n)
}

/// The old `read_edge_list`: `lines()`, `trim`, `split_whitespace`,
/// `parse`, an intermediate edge `Vec`, then `reference_build`.
fn reference_read_edge_list<R: BufRead>(
    reader: R,
    num_vertices: Option<usize>,
    symmetrize: bool,
) -> Result<Csr, IoError> {
    let mut edges: Vec<(VertexId, VertexId, f32)> = Vec::new();
    let mut max_id: u64 = 0;
    // |V| claimed by the first header, and its line
    let mut header: Option<(usize, usize)> = None;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = lineno + 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            if header.is_none() {
                header = header_vertices(t).map(|n| (n, lineno));
            }
            continue;
        }
        let mut it = t.split_whitespace();
        let u: u64 = it
            .next()
            .unwrap()
            .parse()
            .map_err(|_| parse_err(lineno, "bad source vertex"))?;
        let v: u64 = it
            .next()
            .ok_or_else(|| parse_err(lineno, "missing target vertex"))?
            .parse()
            .map_err(|_| parse_err(lineno, "bad target vertex"))?;
        let w: f32 = match it.next() {
            Some(s) => s.parse().map_err(|_| parse_err(lineno, "bad weight"))?,
            None => 1.0,
        };
        if !w.is_finite() {
            return Err(parse_err(lineno, "non-finite weight"));
        }
        if u >= u32::MAX as u64 || v >= u32::MAX as u64 {
            return Err(parse_err(lineno, "vertex id exceeds u32 range"));
        }
        max_id = max_id.max(u).max(v);
        edges.push((u as VertexId, v as VertexId, w));
    }
    let check_vertex_count = |line: usize, n: usize| {
        if n >= u32::MAX as usize {
            return Err(parse_err(
                line,
                format!("|V| = {n} exceeds the u32 vertex-id range"),
            ));
        }
        Ok(())
    };
    let check_claim = |line: usize, n: usize| {
        check_vertex_count(line, n)?;
        if n > MAX_CLAIMED_VERTICES {
            return Err(parse_err(
                line,
                format!("|V| = {n} exceeds the {MAX_CLAIMED_VERTICES} vertices a header may claim"),
            ));
        }
        Ok(())
    };
    if let (None, Some((n, lineno))) = (num_vertices, header) {
        check_claim(lineno, n)?;
    }
    let n = match num_vertices.or(header.map(|(n, _)| n)) {
        Some(n) => {
            if !edges.is_empty() && max_id as usize >= n {
                return Err(parse_err(0, format!("vertex {max_id} >= |V| = {n}")));
            }
            n
        }
        None if edges.is_empty() => 0,
        None => {
            let n = max_id as usize + 1;
            check_claim(0, n)?;
            n
        }
    };
    check_vertex_count(0, n)?;
    edges.retain(|&(u, v, _)| u != v);
    Ok(reference_build(
        n,
        edges,
        DuplicatePolicy::SumWeights,
        symmetrize,
    ))
}

/// `offsets`, `targets` and the weight bit patterns are all equal.
fn bit_identical(a: &Csr, b: &Csr) -> bool {
    let bits = |g: &Csr| g.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    a.offsets() == b.offsets() && a.targets() == b.targets() && bits(a) == bits(b)
}

fn same_result(got: &Result<Csr, IoError>, want: &Result<Csr, IoError>) -> bool {
    match (got, want) {
        (Ok(a), Ok(b)) => bit_identical(a, b),
        (Err(a), Err(b)) => a.to_string() == b.to_string(),
        _ => false,
    }
}

fn pick<'a>(rng: &mut ChaCha8Rng, xs: &[&'a str]) -> &'a str {
    xs[rng.gen_range(0..xs.len())]
}

/// One of the space-separated words of `words`.
fn pick_word<'a>(rng: &mut ChaCha8Rng, words: &'a str) -> &'a str {
    pick(rng, &words.split(' ').collect::<Vec<_>>())
}

const IDS: &str = "0 1 2 3 4 5 6 7 01 007 +2 -1 1e0 x 4294967294 4294967295 \
                   99999999999999999999 18446744073709551615 0000000000000000000003";
const COMMON_WEIGHTS: &str = "1 2 1234567 0000007";
const WEIGHTS: &str = "1 2 1234567 0000007 12345678 16777217 16777219 9007199254740993 \
                       9999999999999999999 99999999999999999999 2.5 0.1 -0 -0.0 3e-38 +3 .5 5. \
                       1e0 inf -inf NaN 1e39 0x1 w";
const SPACES: &[&str] = &[
    " ", " ", "\t", "  ", " \t", "\x0b", "\x0c", "\u{a0}", "\u{3000}",
];
const ENDINGS: &[&str] = &["\n", "\n", "\n", "\r\n", "\r\n", "\r", "\n\n", "\r\r\n"];

/// One random line, ending included.
fn random_line(rng: &mut ChaCha8Rng, out: &mut Vec<u8>) {
    let pad = |rng: &mut ChaCha8Rng| match rng.gen_range(0..8) {
        0 => pick(rng, SPACES),
        _ => "",
    };
    let sep = |rng: &mut ChaCha8Rng| pick(rng, SPACES);
    let small_id = |rng: &mut ChaCha8Rng| {
        if rng.gen_bool(0.85) {
            rng.gen_range(0..8u32).to_string()
        } else {
            pick_word(rng, IDS).to_string()
        }
    };
    let p = pad(rng);
    out.extend_from_slice(p.as_bytes());
    match rng.gen_range(0..40) {
        0 => out.extend_from_slice(b"# a comment"),
        1 => out.extend_from_slice(b"% another comment"),
        2 => {
            let n = rng.gen_range(0..12);
            out.extend_from_slice(format!("# nu-lpa edge list: {n} vertices, 3 edges").as_bytes());
        }
        3 => {}
        4 => out.extend_from_slice(b"#\xff invalid in a comment"),
        5 => out.extend_from_slice(b"0 1 \xe2\x82"),
        6 => {
            out.push(b'#');
            out.extend(std::iter::repeat_n(b'c', rng.gen_range(10..40)));
        }
        7 => out.extend_from_slice("0\u{2003}1".as_bytes()),
        8 => {
            let u = small_id(rng);
            out.extend_from_slice(u.as_bytes());
        }
        _ => {
            let (u, v) = (small_id(rng), small_id(rng));
            out.extend_from_slice(u.as_bytes());
            out.extend_from_slice(sep(rng).as_bytes());
            out.extend_from_slice(v.as_bytes());
            if rng.gen_bool(0.6) {
                out.extend_from_slice(sep(rng).as_bytes());
                let w = if rng.gen_bool(0.7) {
                    pick_word(rng, COMMON_WEIGHTS)
                } else {
                    pick_word(rng, WEIGHTS)
                };
                out.extend_from_slice(w.as_bytes());
            }
            if rng.gen_bool(0.05) {
                out.extend_from_slice(b" extra fields");
            }
        }
    }
    let p = pad(rng);
    out.extend_from_slice(p.as_bytes());
    let e = pick(rng, ENDINGS);
    out.extend_from_slice(e.as_bytes());
}

fn random_text(rng: &mut ChaCha8Rng) -> Vec<u8> {
    let mut txt = Vec::new();
    for _ in 0..rng.gen_range(0..14) {
        random_line(rng, &mut txt);
    }
    // a missing final newline now and then
    if rng.gen_bool(0.2) {
        while txt.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
            txt.pop();
        }
    }
    txt
}

#[test]
fn read_edge_list_matches_the_lines_reader_bit_for_bit() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xed9e);
    let mut accepted = 0;
    for case in 0..20_000 {
        let txt = random_text(&mut rng);
        let n = match rng.gen_range(0..4) {
            0 => Some(rng.gen_range(0..10usize)),
            _ => None,
        };
        let symmetrize = rng.gen_bool(0.5);
        let capacity = match rng.gen_range(0..5) {
            0 => 8192,
            _ => rng.gen_range(1..=16),
        };
        let got = read_edge_list(BufReader::with_capacity(capacity, &txt[..]), n, symmetrize);
        let want = reference_read_edge_list(&txt[..], n, symmetrize);
        accepted += usize::from(want.is_ok());
        assert!(
            same_result(&got, &want),
            "case {case}: {:?} (|V| {n:?}, symmetrize {symmetrize}, capacity {capacity}): \
             got {got:?}, want {want:?}",
            String::from_utf8_lossy(&txt)
        );
    }
    // both outcomes are exercised
    assert!((2_000..18_000).contains(&accepted), "{accepted} accepted");
}

#[test]
fn long_lines_across_refills_match_the_lines_reader() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x10e9);
    for case in 0..200 {
        let mut txt = Vec::new();
        for _ in 0..rng.gen_range(1..6) {
            if rng.gen_bool(0.3) {
                txt.extend_from_slice(b"% ");
                txt.extend(std::iter::repeat_n(b'x', rng.gen_range(8_000..20_000)));
                txt.push(b'\n');
            } else {
                random_line(&mut rng, &mut txt);
            }
        }
        let capacity = [1, 7, 64, 8192][rng.gen_range(0..4)];
        let got = read_edge_list(BufReader::with_capacity(capacity, &txt[..]), None, true);
        let want = reference_read_edge_list(&txt[..], None, true);
        assert!(
            same_result(&got, &want),
            "case {case} (capacity {capacity}): got {got:?}, want {want:?}"
        );
    }
}

/// Bytes that give every lane count up to 8 its own lanes: the reader
/// gives each lane at least 64 KiB of text.
const EIGHT_LANES: usize = 8 << 16;

/// The reader at every lane count from 1 to 8 gives the reference's
/// result, and so the 1-lane result.
fn check_lanes(txt: &[u8], n: Option<usize>, symmetrize: bool, what: &str) {
    let want = reference_read_edge_list(txt, n, symmetrize);
    let one = read_edge_list_on(txt, n, symmetrize, 1);
    assert!(
        same_result(&one, &want),
        "{what}: 1 lane: got {one:?}, want {want:?}"
    );
    for lanes in 2..=8 {
        let got = read_edge_list_on(txt, n, symmetrize, lanes);
        assert!(
            same_result(&got, &want) && same_result(&got, &one),
            "{what}: {lanes} lanes: got {got:?}, want {want:?}"
        );
    }
}

/// A `%` comment line of `len` bytes, `\n` included.
fn comment(len: usize) -> Vec<u8> {
    assert!(len >= 2);
    let mut line = vec![b'c'; len];
    line[0] = b'%';
    line[len - 1] = b'\n';
    line
}

/// A line the reader accepts: small ids, plain weights, any separator
/// and ending.
fn clean_line(rng: &mut ChaCha8Rng, out: &mut Vec<u8>) {
    let (u, v) = (rng.gen_range(0..8u32), rng.gen_range(0..8u32));
    let sep = pick(rng, SPACES);
    out.extend_from_slice(format!("{u}{sep}{v}").as_bytes());
    if rng.gen_bool(0.5) {
        let w = pick_word(rng, COMMON_WEIGHTS);
        out.extend_from_slice(format!("{sep}{w}").as_bytes());
    }
    out.extend_from_slice(pick(rng, ENDINGS).as_bytes());
}

#[test]
fn every_lane_count_matches_the_lines_reader() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1a9e5);
    for case in 0..24 {
        // dense short lines, or lines between long comments, so that the
        // chunk cuts land both among short lines and after long ones
        let filler = [0.0, 0.05, 0.5][case % 3];
        // the share of lines drawn from the full random corpus, errors
        // and headers included
        let wild = [0.0, 0.001, 0.01, 0.1][case / 3 % 4];
        let mut txt = Vec::new();
        while txt.len() < EIGHT_LANES + 1000 {
            if rng.gen_bool(wild) {
                random_line(&mut rng, &mut txt);
            } else {
                clean_line(&mut rng, &mut txt);
            }
            if rng.gen_bool(filler) {
                txt.extend(comment(rng.gen_range(2..40_000)));
            }
        }
        if rng.gen_bool(0.3) {
            while txt.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                txt.pop();
            }
        }
        let n = [None, Some(8)][rng.gen_range(0..2)];
        check_lanes(&txt, n, rng.gen_bool(0.5), &format!("case {case}"));
    }
}

#[test]
fn a_cut_inside_a_crlf_line_ending() {
    // for each lane count k, the text is cut first at length / k, between
    // the `\r` and the `\n` of a `\r\n` ending
    let len = EIGHT_LANES + 4096;
    for k in 2..=8 {
        let newline = len / k;
        let mut txt = comment(newline - 4);
        txt.extend_from_slice(b"1 2\r\n");
        assert_eq!(txt[newline], b'\n');
        txt.extend(comment(len - txt.len() - 6));
        txt.extend_from_slice(b"3 4\r\n0");
        check_lanes(&txt, None, false, &format!("cut at {k}"));
    }
}

#[test]
fn a_last_line_without_a_newline() {
    for last in [
        &b"3 4"[..],
        b"3 4\r",
        b"3 4 2.5",
        b"3",
        b"# nu-lpa edge list: 9 vertices",
    ] {
        let mut txt = b"0 1\n".to_vec();
        txt.extend(comment(EIGHT_LANES));
        txt.extend_from_slice(last);
        check_lanes(&txt, None, true, &String::from_utf8_lossy(last));
    }
}

/// `lines` joined with long comments in between, so that each of them
/// lands in a chunk of its own at most lane counts; also the 1-based
/// line number of each.
fn spread(lines: &[&str]) -> (Vec<u8>, Vec<usize>) {
    let gap = EIGHT_LANES / lines.len();
    let mut txt = Vec::new();
    let mut numbers = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        // a few short lines, then one long one
        for j in 0..i + 1 {
            txt.extend_from_slice(format!("{} {}\n", j % 3, i % 3).as_bytes());
        }
        txt.extend(comment(gap));
        txt.extend_from_slice(line.as_bytes());
        txt.push(b'\n');
        numbers.push(txt.iter().filter(|&&b| b == b'\n').count());
    }
    (txt, numbers)
}

#[test]
fn a_header_in_a_later_chunk() {
    // the first header wins, wherever it lies
    let (txt, _) = spread(&[
        "0 1",
        "1 2",
        "# nu-lpa edge list: 9 vertices, 3 edges",
        "2 3",
    ]);
    check_lanes(&txt, None, true, "header");
    let g = read_edge_list_on(&txt[..], None, true, 4).unwrap();
    assert_eq!(g.num_vertices(), 9);
    let (txt, _) = spread(&[
        "0 1",
        "# nu-lpa edge list: 7 vertices, 3 edges",
        "# nu-lpa edge list: 12 vertices, 3 edges",
        "2 3",
    ]);
    check_lanes(&txt, None, false, "two headers");
    // a header below the largest id, or above what it may claim
    let (txt, _) = spread(&["0 1", "1 2", "# nu-lpa edge list: 2 vertices, 3 edges"]);
    check_lanes(&txt, None, false, "small header");
    let (txt, numbers) = spread(&["0 1", "1 2", "# nu-lpa edge list: 999999999 vertices"]);
    check_lanes(&txt, None, false, "oversized header");
    let err = read_edge_list_on(&txt[..], None, false, 8)
        .unwrap_err()
        .to_string();
    assert!(err.contains(&format!("line {}:", numbers[2])), "{err}");
}

#[test]
fn errors_in_two_chunks_the_earlier_wins() {
    let bad = ["0 x", "0", "0 1 inf", "5000000000 1", "\u{a0}0 1 \u{ff}x"];
    for (i, first) in bad.iter().enumerate() {
        let second = bad[(i + 1) % bad.len()];
        let (txt, numbers) = spread(&["0 1", first, "1 2", second, "2 3"]);
        check_lanes(&txt, None, false, &format!("{first:?} then {second:?}"));
        let err = read_edge_list_on(&txt[..], None, false, 5)
            .unwrap_err()
            .to_string();
        assert!(err.contains(&format!("line {}:", numbers[1])), "{err}");
    }
    // an invalid UTF-8 line ahead of a parse error
    let (mut txt, _) = spread(&["0 1", "1 2", "0 y"]);
    let at = txt.len() / 3;
    let end = at + txt[at..].iter().position(|&b| b == b'\n').unwrap();
    txt.splice(end..end, *b" \xff");
    check_lanes(&txt, None, false, "invalid UTF-8");
}

#[test]
fn lines_split_by_non_ascii_whitespace() {
    let (txt, _) = spread(&[
        "0\u{2003}1",
        "1\u{a0}2\u{3000}2.5",
        "\u{2003}2 3\u{a0}",
        "3\u{2003}4 7 extra",
        "# nu-lpa edge list:\u{a0}6 vertices",
    ]);
    check_lanes(&txt, None, true, "non-ASCII whitespace");
    assert_eq!(
        read_edge_list_on(&txt[..], None, true, 3)
            .unwrap()
            .num_vertices(),
        6
    );
}

/// A reader that gives the first `ok` bytes of `data`, then fails.
struct FailAfter<'a> {
    data: &'a [u8],
    ok: usize,
}

impl Read for FailAfter<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.ok == 0 {
            return Err(std::io::Error::other("the disk went away"));
        }
        let n = buf.len().min(self.ok).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        self.ok -= n;
        Ok(n)
    }
}

#[test]
fn a_read_error_after_a_bad_line_loses_to_it() {
    let (txt, numbers) = spread(&["0 1", "1 2", "0 x", "2 3", "1 y"]);
    let bad_at = |k: usize| {
        let line_start = txt
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .nth(numbers[k] - 2)
            .unwrap()
            .0;
        line_start + 1
    };
    // failing before the first bad line, inside it, after it, and inside
    // the second one
    for ok in [
        bad_at(1) + 2,
        bad_at(2) + 1,
        bad_at(2) + 4,
        bad_at(3) + 3,
        bad_at(4) + 2,
    ] {
        for lanes in 1..=8 {
            let reader = || BufReader::with_capacity(4096, FailAfter { data: &txt, ok });
            let got = read_edge_list_on(reader(), None, false, lanes);
            let want = reference_read_edge_list(reader(), None, false);
            assert!(
                same_result(&got, &want),
                "fail after {ok} bytes, {lanes} lanes: got {got:?}, want {want:?}"
            );
        }
    }
    let got = read_edge_list_on(
        BufReader::new(FailAfter {
            data: &txt,
            ok: bad_at(2) + 4,
        }),
        None,
        false,
        4,
    );
    let err = got.unwrap_err().to_string();
    assert!(
        err.contains(&format!("line {}: bad target", numbers[2])),
        "{err}"
    );
    let got = read_edge_list_on(
        BufReader::new(FailAfter {
            data: &txt,
            ok: bad_at(2) + 1,
        }),
        None,
        false,
        4,
    );
    assert!(got.unwrap_err().to_string().contains("the disk went away"));
}

/// A weight whose bits make summation order visible, now and then a
/// signed zero, a negative, a tiny or a huge value.
fn random_weight(rng: &mut ChaCha8Rng) -> Weight {
    match rng.gen_range(0..12) {
        0 => 0.0,
        1 => -0.0,
        2 => 0.1,
        3 => 3e-38,
        4 => -rng.gen_range(0.1f32..3.0),
        5 => 1e30,
        _ => rng.gen_range(0.1f32..3.0),
    }
}

#[test]
fn builder_matches_the_sort_and_search_builder_bit_for_bit() {
    let policies = [
        DuplicatePolicy::SumWeights,
        DuplicatePolicy::KeepFirst,
        DuplicatePolicy::KeepAll,
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(0xb01d);
    for case in 0..4_000 {
        let n = rng.gen_range(1..14usize);
        let mut edges = Vec::new();
        for _ in 0..rng.gen_range(0..4 * n) {
            let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            edges.push((u, v, random_weight(&mut rng)));
            // parallel edges, reverses and exact repeats
            match rng.gen_range(0..6) {
                0 => edges.push((u, v, random_weight(&mut rng))),
                1 => edges.push((v, u, random_weight(&mut rng))),
                2 => edges.push(*edges.last().unwrap()),
                _ => {}
            }
        }
        if rng.gen_bool(0.3) {
            edges.sort_unstable_by_key(|e| (e.0, e.1));
        }
        for policy in policies {
            for keep_self_loops in [false, true] {
                for symmetrize in [false, true] {
                    let mut b = GraphBuilder::new(n)
                        .keep_self_loops(keep_self_loops)
                        .duplicate_policy(policy)
                        .add_edges(edges.iter().copied());
                    if symmetrize {
                        b = b.symmetrize();
                    }
                    let got = b.build();
                    let queued = edges
                        .iter()
                        .copied()
                        .filter(|&(u, v, _)| keep_self_loops || u != v)
                        .collect();
                    let want = reference_build(n, queued, policy, symmetrize);
                    assert!(
                        bit_identical(&got, &want),
                        "case {case} ({policy:?}, self loops {keep_self_loops}, symmetrize \
                         {symmetrize}): edges {edges:?}: got {got:?}, want {want:?}"
                    );
                }
            }
        }
    }
}
