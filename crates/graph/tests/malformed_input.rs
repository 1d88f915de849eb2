//! Malformed input for the three graph readers: truncated files, garbage
//! headers, oversized counts, non-finite weights, self loops and
//! duplicate edges. Every case must return `Err` or the reader's
//! documented normalisation; none may panic.

use nulpa_graph::io::{read_binary, read_edge_list, read_matrix_market, write_binary};
use nulpa_graph::{gen, Csr};
use std::io::{BufReader, Cursor};

fn edge_list(txt: &[u8]) -> Result<Csr, String> {
    read_edge_list(Cursor::new(txt), None, false).map_err(|e| e.to_string())
}

/// Read through an 8 KiB `BufReader`, so long lines straddle refills.
fn edge_list_buffered(txt: &[u8]) -> Result<Csr, String> {
    read_edge_list(BufReader::new(txt), None, false).map_err(|e| e.to_string())
}

fn mtx(txt: &[u8]) -> Result<Csr, String> {
    read_matrix_market(Cursor::new(txt)).map_err(|e| e.to_string())
}

fn binary(bytes: &[u8]) -> Result<Csr, String> {
    read_binary(Cursor::new(bytes)).map_err(|e| e.to_string())
}

fn binary_of(g: &Csr) -> Vec<u8> {
    let mut buf = Vec::new();
    write_binary(g, &mut buf).unwrap();
    buf
}

/// Overwrite the little-endian `u64` at `at`.
fn poke_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Byte offsets of the binary format's fields (see `io/binary.rs`).
const N_AT: usize = 12;
const M_AT: usize = 20;
const OFFSETS_AT: usize = 28;

#[test]
fn edge_list_truncated() {
    for txt in [
        &b"0 1 2.5\n1"[..],
        b"0 1 2.5\n1 ",
        b"0 1 2.5\n1 2 -",
        b"0 1\n\xe2\x82",
    ] {
        let r = edge_list(txt);
        assert!(r.is_err(), "{:?} accepted", String::from_utf8_lossy(txt));
    }
    // a cut that still leaves a complete float is a valid last line
    let g = edge_list(b"0 1 2.5\n1 2 2.").unwrap();
    assert_eq!(g.edge_weight(1, 2), Some(2.0));
}

#[test]
fn edge_list_garbage_headers() {
    // a header whose count does not parse is an ordinary comment
    for header in [
        "# nu-lpa edge list: lots vertices, 1 edges",
        "# nu-lpa edge list: -3 vertices, 1 edges",
        "# nu-lpa edge list: 99999999999999999999999 vertices",
        "# nu-lpa edge list:",
        "# nu-lpa edge list: 7 edges",
    ] {
        let g = edge_list(format!("{header}\n0 1\n").as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 2, "{header}");
    }
    for txt in [&b"\x00\x01garbage\n"[..], b"NULPACSR\n", b"u v w\n0 1 1\n"] {
        assert!(edge_list(txt).is_err());
    }
}

#[test]
fn edge_list_oversized_counts() {
    for n in [u64::MAX, 1 << 40, u32::MAX as u64] {
        let txt = format!("# nu-lpa edge list: {n} vertices, 1 edges\n0 1\n");
        let err = edge_list(txt.as_bytes()).unwrap_err();
        assert!(err.contains("u32"), "{err}");
    }
    // in the u32 range, but more than a header is trusted to claim: an
    // error naming the header line, not a |V|-sized allocation
    for n in [u32::MAX as u64 - 1, 1 << 29] {
        let txt = format!("# comment\n# nu-lpa edge list: {n} vertices, 1 edges\n0 1\n");
        let err = edge_list(txt.as_bytes()).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("header may claim"), "{err}");
    }
    for txt in [
        &b"0 4294967295\n"[..],
        b"0 4294967294\n",
        b"4294967296 0\n",
        b"0 99999999999999999999999\n",
        b"0 4294967293\n",
    ] {
        assert!(edge_list(txt).is_err());
    }
    // with no header, |V| implied by one huge id is held to the same
    // limit: an error, not a |V|-sized allocation
    let err = edge_list(b"0 4294967293\n").unwrap_err();
    assert!(err.contains("header may claim"), "{err}");
    // unless the caller gives |V|
    let err = read_edge_list(Cursor::new("0 4294967293\n"), Some(8), false)
        .unwrap_err()
        .to_string();
    assert!(err.contains(">= |V| = 8"), "{err}");
    let err = read_edge_list(Cursor::new("0 1\n"), Some(usize::MAX), false)
        .unwrap_err()
        .to_string();
    assert!(err.contains("u32"), "{err}");
}

#[test]
fn edge_list_non_finite_weights() {
    for w in ["NaN", "nan", "inf", "-inf", "infinity", "1e39"] {
        let err = edge_list(format!("0 1 {w}\n").as_bytes()).unwrap_err();
        assert!(err.contains("non-finite"), "{w}: {err}");
    }
}

#[test]
fn edge_list_self_loops_dropped_duplicates_summed() {
    let g = edge_list(b"0 0 1\n0 1 1\n0 1 2\n1 1 4\n").unwrap();
    assert_eq!(g.num_vertices(), 2);
    assert_eq!(g.num_self_loops(), 0);
    assert_eq!(g.edge_weight(0, 1), Some(3.0));
    let sym = read_edge_list(Cursor::new("0 0 1\n0 1 1\n0 1 2\n"), None, true).unwrap();
    assert!(sym.is_symmetric());
    assert_eq!(sym.edge_weight(1, 0), Some(3.0));
}

#[test]
fn edge_list_crlf_and_missing_final_newline() {
    // `\r\n` ends a line like `\n`; the last line needs no newline
    let g = edge_list(b"0 1 2\r\n1 2 3\r\n2 3 4").unwrap();
    assert_eq!(g.num_vertices(), 4);
    assert_eq!(g.edge_weight(0, 1), Some(2.0));
    assert_eq!(g.edge_weight(2, 3), Some(4.0));
    assert_eq!(edge_list(b"0 1\r\n").unwrap(), edge_list(b"0 1").unwrap());
}

#[test]
fn edge_list_signed_and_zero_padded_ids() {
    // ids read as `str::parse::<u64>` reads them: a `+` sign and leading
    // zeros are accepted, a `-` sign is not
    let g = edge_list(b"+1 002\n00 +0003 0000007\n").unwrap();
    assert_eq!(g.num_vertices(), 4);
    assert_eq!(g.edge_weight(1, 2), Some(1.0));
    assert_eq!(g.edge_weight(0, 3), Some(7.0));
    let err = edge_list(b"0 1\n-1 2\n").unwrap_err();
    assert!(err.contains("line 2: bad source vertex"), "{err}");
}

#[test]
fn edge_list_twenty_digit_ids() {
    // fits a u64, not a vertex id
    let err = edge_list(b"0 10000000000000000000\n").unwrap_err();
    assert!(err.contains("line 1: vertex id exceeds u32 range"), "{err}");
    // does not fit a u64
    let err = edge_list(b"0 1\n99999999999999999999 0\n").unwrap_err();
    assert!(err.contains("line 2: bad source vertex"), "{err}");
    // 20+ digits that do fit: the id is zero-padded, the weight is 1e20
    let g = edge_list(b"0 00000000000000000000001 99999999999999999999\n").unwrap();
    assert_eq!(g.edge_weight(0, 1), Some(1e20));
}

#[test]
fn edge_list_unicode_whitespace_separates_fields() {
    // U+00A0 and U+3000 are whitespace to `str::split_whitespace`
    let g = edge_list("0\u{a0}1\u{3000}2.5\n\u{a0}1 2\u{a0}\n".as_bytes()).unwrap();
    assert_eq!(g.edge_weight(0, 1), Some(2.5));
    assert_eq!(g.edge_weight(1, 2), Some(1.0));
    // but not a field character: U+2010 (a hyphen) is junk in an id
    assert!(edge_list("0 \u{2010}1\n".as_bytes()).is_err());
}

#[test]
fn edge_list_invalid_utf8_mid_file_and_in_comments() {
    for txt in [
        &b"0 1\n1 \xff2\n2 3\n"[..],
        b"0 1\n# comment \xc3\x28\n2 3\n",
        b"% \xe2\x82\n0 1\n",
        b"0 1\n1 2 \xed\xa0\x80\n",
    ] {
        let err = edge_list(txt).unwrap_err();
        assert!(err.contains("valid UTF-8"), "{err}");
    }
}

#[test]
fn edge_list_long_comment_spans_refills() {
    let mut txt = b"0 1\n# ".to_vec();
    txt.extend(std::iter::repeat_n(b'c', 20_000));
    txt.extend_from_slice(b"\n1 2 3\n% ");
    txt.extend(std::iter::repeat_n(b'd', 9_000));
    let g = edge_list_buffered(&txt).unwrap();
    assert_eq!(g.num_vertices(), 3);
    assert_eq!(g.edge_weight(1, 2), Some(3.0));
    // the line count survives the long line
    txt.extend_from_slice(b"\n2 x\n");
    let err = edge_list_buffered(&txt).unwrap_err();
    assert!(err.contains("line 5: bad target vertex"), "{err}");
    // a header after a long comment still counts
    let mut txt = b"% ".to_vec();
    txt.extend(std::iter::repeat_n(b'e', 10_000));
    txt.extend_from_slice(b"\n# nu-lpa edge list: 9 vertices, 1 edges\n0 1\n");
    assert_eq!(edge_list_buffered(&txt).unwrap().num_vertices(), 9);
}

const MM_REAL: &str = "%%MatrixMarket matrix coordinate real general";

#[test]
fn matrix_market_truncated() {
    for txt in [
        "".to_string(),
        format!("{MM_REAL}\n"),
        format!("{MM_REAL}\n% only comments\n"),
        format!("{MM_REAL}\n3 3\n"),
        format!("{MM_REAL}\n3 3 2\n1 2 1.0\n"),
        format!("{MM_REAL}\n3 3 2\n1 2 1.0\n2 3\n"),
        format!("{MM_REAL}\n3 3 2\n1 2 1.0\n2\n"),
    ] {
        assert!(mtx(txt.as_bytes()).is_err(), "{txt:?} accepted");
    }
    let mut cut_utf8 = format!("{MM_REAL}\n3 3 1\n1 2 ").into_bytes();
    cut_utf8.extend_from_slice(b"\xe2\x82");
    assert!(mtx(&cut_utf8).is_err());
}

#[test]
fn matrix_market_errors_keep_their_line_numbers() {
    for (txt, want) in [
        (
            "%%MatrixMarket matrix coordinate real general\r\n% c\r\n\r\n2 2 x\r\n",
            "line 4: bad nnz count",
        ),
        (
            &format!("{MM_REAL}\n% c\n2 2 2\n1 2 1.0\n\n% c\n2 x 1.0\n"),
            "line 7: bad column index",
        ),
        (
            &format!("{MM_REAL}\n2 2 1\n1 3 1.0"),
            "line 3: index out of range",
        ),
        (&format!("{MM_REAL}\n2 2 1\n1 2"), "line 3: missing value"),
        (
            &format!("{MM_REAL}\n2 2 2\n1 2 1.0\n"),
            "line 0: expected 2 entries, found 1",
        ),
    ] {
        let err = mtx(txt.as_bytes()).unwrap_err();
        assert!(err.contains(want), "{txt:?}: {err}");
    }
    // CRLF endings, `+` and zero padding, no final newline
    let g = mtx(format!("{MM_REAL}\r\n3 3 2\r\n+1 002 2.5\r\n3 2 1").as_bytes()).unwrap();
    assert_eq!(g.edge_weight(0, 1), Some(2.5));
    assert_eq!(g.edge_weight(1, 2), Some(1.0));
}

#[test]
fn matrix_market_invalid_utf8_in_a_comment() {
    let mut txt = format!("{MM_REAL}\n% comment ").into_bytes();
    txt.extend_from_slice(b"\xff\n2 2 0\n");
    let err = mtx(&txt).unwrap_err();
    assert!(err.contains("valid UTF-8"), "{err}");
}

#[test]
fn matrix_market_garbage_headers() {
    for header in [
        "%%MatrixMarket",
        "%%MatrixMarket matrix",
        "%%MatrixMarket matrix coordinate",
        "%%MatrixMarket matrix coordinate complex general",
        "%%MatrixMarket matrix coordinate real hermitian",
        "%%MatrixMarket tensor coordinate real general",
        "%MatrixMarket matrix coordinate real general",
        "garbage",
    ] {
        assert!(
            mtx(format!("{header}\n2 2 1\n1 2 1.0\n").as_bytes()).is_err(),
            "{header}"
        );
    }
    assert!(mtx(b"\xff\xfe\x00binary\n2 2 0\n").is_err());
    for size in ["x 2 1", "2 x 1", "2 2 x", "-2 -2 1", "2 3 1"] {
        assert!(
            mtx(format!("{MM_REAL}\n{size}\n1 2 1.0\n").as_bytes()).is_err(),
            "{size}"
        );
    }
}

#[test]
fn matrix_market_oversized_counts() {
    let max = u64::MAX;
    let big_v = u32::MAX as u64;
    for size in [
        format!("{max} {max} 1"),
        format!("{big_v} {big_v} 1"),
        format!("{} {} 1", big_v - 1, big_v - 1),
        format!("{} {} 1", 1u64 << 29, 1u64 << 29),
        format!("2 2 {max}"),
        format!("2 2 {}", 1u64 << 40),
        "99999999999999999999999 99999999999999999999999 1".to_string(),
    ] {
        assert!(
            mtx(format!("{MM_REAL}\n{size}\n1 2 1.0\n").as_bytes()).is_err(),
            "{size}"
        );
    }
    // a size line past the claim bound is named in the error
    let err = mtx(format!("{MM_REAL}\n{0} {0} 1\n1 2 1.0\n", big_v - 1).as_bytes()).unwrap_err();
    assert!(err.contains("line 2"), "{err}");
    assert!(err.contains("header may claim"), "{err}");
    // an entry index past the declared size
    assert!(mtx(format!("{MM_REAL}\n2 2 1\n3 1 1.0\n").as_bytes()).is_err());
    assert!(mtx(format!("{MM_REAL}\n2 2 1\n1 {max} 1.0\n").as_bytes()).is_err());
}

#[test]
fn matrix_market_non_finite_weights() {
    for w in ["nan", "NaN", "inf", "-inf", "1e39"] {
        let err = mtx(format!("{MM_REAL}\n2 2 1\n1 2 {w}\n").as_bytes()).unwrap_err();
        assert!(err.contains("non-finite"), "{w}: {err}");
    }
}

#[test]
fn matrix_market_self_loops_dropped_duplicates_keep_one() {
    let txt = format!("{MM_REAL}\n3 3 4\n1 1 9.0\n1 2 5.0\n1 2 1.0\n2 1 5.0\n");
    let g = mtx(txt.as_bytes()).unwrap();
    assert_eq!(g.num_vertices(), 3);
    assert_eq!(g.num_self_loops(), 0);
    assert_eq!(g.num_edges(), 2);
    // `DuplicatePolicy::KeepFirst`: never summed, the lowest weight kept
    // in both directions
    assert!(g.is_symmetric());
    assert_eq!(g.edge_weight(0, 1), Some(1.0));
}

#[test]
fn binary_truncated_at_every_length() {
    let clean = binary_of(&gen::caveman_weighted(2, 3, 0.5));
    for len in 0..clean.len() {
        assert!(
            binary(&clean[..len]).is_err(),
            "accepted a {len}-byte prefix"
        );
    }
    assert!(binary(&clean).is_ok());
}

#[test]
fn binary_garbage_headers() {
    let clean = binary_of(&gen::caveman_weighted(2, 3, 0.5));
    for (at, byte) in [(0, b'X'), (7, 0), (8, 2), (11, 0x80)] {
        let mut buf = clean.clone();
        buf[at] = byte;
        assert!(binary(&buf).is_err(), "byte {at} = {byte:#x} accepted");
    }
    let garbage: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
    assert!(binary(&garbage).is_err());
}

#[test]
fn binary_oversized_counts() {
    let clean = binary_of(&gen::caveman_weighted(2, 3, 0.5));
    for (at, claimed) in [
        (N_AT, u64::MAX),
        (N_AT, u32::MAX as u64),
        (M_AT, u64::MAX),
        (M_AT, 1 << 40),
    ] {
        let mut buf = clean.clone();
        poke_u64(&mut buf, at, claimed);
        assert!(
            binary(&buf).is_err(),
            "count {claimed} at byte {at} accepted"
        );
    }
    // the last offset claims more edges than the arrays hold
    let mut buf = clean.clone();
    let n = gen::caveman_weighted(2, 3, 0.5).num_vertices();
    poke_u64(&mut buf, OFFSETS_AT + 8 * n, u64::MAX);
    assert!(binary(&buf).is_err());
}

#[test]
fn binary_non_finite_weights() {
    let g = gen::caveman_weighted(2, 3, 0.5);
    let clean = binary_of(&g);
    let weights_at = clean.len() - 4 * g.num_edges();
    for bits in [
        f32::NAN.to_bits(),
        f32::INFINITY.to_bits(),
        f32::NEG_INFINITY.to_bits(),
    ] {
        let mut buf = clean.clone();
        buf[weights_at..weights_at + 4].copy_from_slice(&bits.to_le_bytes());
        let err = binary(&buf).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }
}

#[test]
fn binary_keeps_self_loops_and_parallel_edges_verbatim() {
    // the binary format stores a CSR as-is: no normalisation on read
    let g = Csr::from_raw(vec![0, 3, 4], vec![0, 1, 1, 0], vec![2.0, 1.0, 0.5, 1.5]);
    let back = binary(&binary_of(&g)).unwrap();
    assert_eq!(back, g);
    assert_eq!(back.num_self_loops(), 1);
    assert_eq!(back.degree(0), 3);
}
