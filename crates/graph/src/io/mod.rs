//! Graph serialization: whitespace edge lists and MatrixMarket.
//!
//! The paper loads SuiteSparse matrices in MatrixMarket form; these readers
//! let users of this crate run the same pipeline on real downloads when
//! they have them.
//!
//! Both text readers read their input into one buffer and scan it with
//! one line scanner, `Lines`, which allocates nothing per line; a line
//! of plain-digit fields is split and its digits read in one pass.
//! Lines, fields and numbers come out exactly as `BufRead::lines`,
//! `str::trim` + `str::split_whitespace` and `str::parse` would give them,
//! invalid UTF-8 included.

use std::io::{ErrorKind, Read};

mod binary;
mod edgelist;
mod mtx;

pub use binary::{read_binary, write_binary};
pub use edgelist::{read_edge_list, read_edge_list_on, write_edge_list};
pub use mtx::{read_matrix_market, write_matrix_market};

/// Errors produced by the graph readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural or syntactic problem, with 1-based line number.
    Parse {
        /// 1-based line number (0 when not line-specific).
        line: usize,
        /// Human-readable description.
        msg: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Entries to preallocate at most for a count read from a file; past
/// this, buffers grow only as data actually arrives.
pub(crate) const PREALLOC: usize = 1 << 24;

/// `Err` unless `n` vertices fit in `u32` ids with the sentinel to spare
/// (the limit [`crate::GraphBuilder::new`] asserts).
pub(crate) fn check_vertex_count(line: usize, n: usize) -> Result<(), IoError> {
    if n >= u32::MAX as usize {
        return Err(parse_err(
            line,
            format!("|V| = {n} exceeds the u32 vertex-id range"),
        ));
    }
    Ok(())
}

/// Most vertices a text header or size line is trusted to claim. The
/// builder zero-fills and prefix-sums a |V|-sized offsets array, so an
/// unbounded claim would let a one-edge file allocate gigabytes.
pub(crate) const MAX_CLAIMED_VERTICES: usize = 1 << 28;

/// [`check_vertex_count`] for a count claimed by the header or size line
/// at `line`, which must also stay within [`MAX_CLAIMED_VERTICES`].
pub(crate) fn check_claimed_vertex_count(line: usize, n: usize) -> Result<(), IoError> {
    check_vertex_count(line, n)?;
    if n > MAX_CLAIMED_VERTICES {
        return Err(parse_err(
            line,
            format!("|V| = {n} exceeds the {MAX_CLAIMED_VERTICES} vertices a header may claim"),
        ));
    }
    Ok(())
}

/// All of `reader`'s bytes, read into one buffer. On a read error, the
/// bytes up to the last `\n` read before it, and the error: a line reader
/// returns every complete line ahead of the failure, then fails.
pub(crate) fn read_all<R: Read>(mut reader: R) -> (Vec<u8>, Option<std::io::Error>) {
    let mut text = Vec::new();
    match reader.read_to_end(&mut text) {
        Ok(_) => (text, None),
        Err(e) => {
            let complete = text.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            text.truncate(complete);
            (text, Some(e))
        }
    }
}

/// The first three whitespace-separated fields of a line; both text
/// formats ignore the rest.
#[derive(Default)]
pub(crate) struct Fields<'a> {
    fields: [&'a [u8]; 3],
    count: usize,
}

impl<'a> Fields<'a> {
    /// Field `i` (0-based), if the line has it.
    pub(crate) fn get(&self, i: usize) -> Option<&'a [u8]> {
        (i < self.count).then(|| self.fields[i])
    }

    fn push(&mut self, field: &'a [u8]) {
        if self.count < 3 {
            self.fields[self.count] = field;
            self.count += 1;
        }
    }
}

/// The ASCII bytes `char::is_whitespace` accepts: space and `\t`..=`\r`
/// (vertical tab included, which `u8::is_ascii_whitespace` leaves out).
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// The index of the first byte at or after `i` that is not whitespace or
/// that ends the line.
fn skip_blanks(text: &[u8], mut i: usize) -> usize {
    while i < text.len() && text[i] != b'\n' && is_space(text[i]) {
        i += 1;
    }
    i
}

/// The length of the run of ASCII digits `text` starts with, and the
/// run's value (wrapping past `u64`).
fn digit_run(text: &[u8]) -> (usize, u64) {
    let mut n = 0u64;
    for (len, &b) in text.iter().enumerate() {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return (len, n);
        }
        n = n.wrapping_mul(10).wrapping_add(u64::from(d));
    }
    (text.len(), n)
}

/// The field at `text[i..]` and the index after it, if the field is 1 to
/// 19 plain digits (which cannot overflow a `u64`).
fn plain_field(text: &[u8], i: usize) -> Option<(u64, usize)> {
    let (len, n) = digit_run(&text[i..]);
    let end = i + len;
    let ends_field = text.get(end).is_none_or(|&b| is_space(b));
    ((1..=19).contains(&len) && ends_field).then_some((n, end))
}

/// The lines of a text held in memory. Lines are split at `\n` as
/// `BufRead::lines` splits them, a last line without `\n` kept; the `\r`
/// of a `\r\n` stays on its line, where it is whitespace like any other.
/// Fields are split as `str::trim` + `str::split_whitespace` split them.
pub(crate) struct Lines<'a> {
    rest: &'a [u8],
    lineno: usize,
    /// Returned once the text is exhausted: the read error that cut it.
    err: Option<std::io::Error>,
}

impl<'a> Lines<'a> {
    pub(crate) fn new(text: &'a [u8], err: Option<std::io::Error>) -> Self {
        Lines {
            rest: text,
            lineno: 0,
            err,
        }
    }

    /// Lines read so far: the number of the last line returned.
    pub(crate) fn count(&self) -> usize {
        self.lineno
    }

    /// The next line's fields if the line is two or three fields of 1 to
    /// 19 plain digits and nothing else, the shape of nearly every edge
    /// line. It splits the line and reads its digits in one pass, stopping
    /// at the `\n`. Any other line (blank, a comment, a sign, a decimal
    /// point, a fourth field, a byte ≥ 0x80) gives `None` and is left for
    /// [`Self::next_line`].
    pub(crate) fn next_plain(&mut self) -> Option<(u64, u64, Option<u64>)> {
        let text = self.rest;
        let (u, i) = plain_field(text, skip_blanks(text, 0))?;
        let (v, i) = plain_field(text, skip_blanks(text, i))?;
        let mut i = skip_blanks(text, i);
        let w = match text.get(i) {
            None | Some(b'\n') => None,
            Some(_) => {
                let (w, end) = plain_field(text, i)?;
                i = skip_blanks(text, end);
                Some(w)
            }
        };
        if text.get(i).is_some_and(|&b| b != b'\n') {
            return None;
        }
        self.rest = text.get(i + 1..).unwrap_or_default();
        self.lineno += 1;
        Some((u, v, w))
    }

    /// The next line, its 1-based number and its fields, or `None` at the
    /// end of the text. An all-ASCII line is split by byte in one pass
    /// that stops at its `\n`; a line with a byte ≥ 0x80 is UTF-8-checked
    /// and split as a `&str`, failing with the error `BufRead::lines`
    /// gives for invalid UTF-8.
    pub(crate) fn next_line(&mut self) -> std::io::Result<Option<(usize, &'a [u8], Fields<'a>)>> {
        let text = self.rest;
        if text.is_empty() {
            return self.err.take().map_or(Ok(None), Err);
        }
        self.lineno += 1;
        let mut fields = Fields::default();
        let mut i = skip_blanks(text, 0);
        let mut ascii = true;
        while i < text.len() && text[i] != b'\n' {
            let start = i;
            while i < text.len() && !is_space(text[i]) {
                ascii &= text[i] < 0x80;
                i += 1;
            }
            fields.push(&text[start..i]);
            i = skip_blanks(text, i);
        }
        let line = &text[..i];
        self.rest = text.get(i + 1..).unwrap_or_default();
        if !ascii {
            fields = Fields::default();
            for field in utf8(line)?.split_whitespace() {
                fields.push(field.as_bytes());
            }
        }
        Ok(Some((self.lineno, line, fields)))
    }
}

/// `field` as `str::parse::<u64>` reads it: 1 to 19 plain digits by a
/// digit loop, anything else (a sign, 20+ digits, junk) through
/// `str::parse`.
pub(crate) fn parse_u64(field: &[u8]) -> Option<u64> {
    // a field holds no whitespace, so a plain field is all of it
    match plain_field(field, 0) {
        Some((n, _)) => Some(n),
        None => std::str::from_utf8(field).ok()?.parse().ok(),
    }
}

/// `field` as `str::parse::<f32>` reads it. Plain digits convert through
/// `u64`, whose `as f32` rounds to nearest with ties to even, as the
/// correctly rounded `str::parse` does; anything else goes through
/// `str::parse`.
pub(crate) fn parse_f32(field: &[u8]) -> Option<f32> {
    match plain_field(field, 0) {
        Some((n, _)) => Some(n as f32),
        None => std::str::from_utf8(field).ok()?.parse().ok(),
    }
}

/// `line` as `&str`, failing with the error `BufRead::lines` gives for
/// invalid UTF-8.
pub(crate) fn utf8(line: &[u8]) -> std::io::Result<&str> {
    std::str::from_utf8(line).map_err(|_| {
        std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })
}

pub(crate) fn parse_err(line: usize, msg: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        msg: msg.into(),
    }
}
