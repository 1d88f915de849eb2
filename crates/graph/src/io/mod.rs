//! Graph serialization: whitespace edge lists and MatrixMarket.
//!
//! The paper loads SuiteSparse matrices in MatrixMarket form; these readers
//! let users of this crate run the same pipeline on real downloads when
//! they have them.
//!
//! Both text readers scan their input with one line scanner: lines are
//! borrowed straight from the reader's buffer, so reading allocates
//! nothing per line. Lines, fields and numbers come out exactly as
//! `BufRead::lines`, `str::trim` + `str::split_whitespace` and `str::parse`
//! would give them, invalid UTF-8 included.

use std::io::{BufRead, ErrorKind};

mod binary;
mod edgelist;
mod mtx;

pub use binary::{read_binary, write_binary};
pub use edgelist::{read_edge_list, write_edge_list};
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

/// The lines of a `BufRead`, split as `BufRead::lines` splits them (a
/// trailing `\n` or `\r\n` removed, a last line without `\n` kept) but
/// borrowed instead of allocated. A line that lies whole in the reader's
/// buffer is returned in place; only a line that straddles a refill is
/// copied, into one reused carry buffer.
pub(crate) struct LineScanner<R> {
    reader: R,
    carry: Vec<u8>,
    /// Bytes of the reader's buffer the returned line occupies, consumed
    /// on the next call.
    pending: usize,
    lineno: usize,
}

impl<R: BufRead> LineScanner<R> {
    pub(crate) fn new(reader: R) -> Self {
        LineScanner {
            reader,
            carry: Vec::new(),
            pending: 0,
            lineno: 0,
        }
    }

    /// The next line and its 1-based number, or `None` at the end of input.
    pub(crate) fn next_line(&mut self) -> std::io::Result<Option<(usize, &[u8])>> {
        self.reader.consume(std::mem::take(&mut self.pending));
        self.carry.clear();
        let in_place = loop {
            let buf = match self.reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                break false;
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(i) if self.carry.is_empty() => {
                    self.pending = i + 1;
                    break true;
                }
                Some(i) => {
                    self.carry.extend_from_slice(&buf[..=i]);
                    self.reader.consume(i + 1);
                    break false;
                }
                None => {
                    let len = buf.len();
                    self.carry.extend_from_slice(buf);
                    self.reader.consume(len);
                }
            }
        };
        let mut line = if in_place {
            // the same bytes the loop found: a filled buffer is not refilled
            &self.reader.fill_buf()?[..self.pending]
        } else if self.carry.is_empty() {
            return Ok(None);
        } else {
            &self.carry[..]
        };
        if let Some(l) = line.strip_suffix(b"\n") {
            line = l.strip_suffix(b"\r").unwrap_or(l);
        }
        self.lineno += 1;
        Ok(Some((self.lineno, line)))
    }
}

/// `line` as `&str`, failing with the error `BufRead::lines` gives for
/// invalid UTF-8.
pub(crate) fn utf8(line: &[u8]) -> std::io::Result<&str> {
    std::str::from_utf8(line).map_err(|_| {
        std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })
}

/// The whitespace-separated fields of a line, split exactly as
/// `str::split_whitespace` splits it. An all-ASCII line is split by byte;
/// any other line is UTF-8-checked and split as a `&str`.
#[derive(Clone)]
pub(crate) enum Fields<'a> {
    Ascii(&'a [u8]),
    Unicode(std::str::SplitWhitespace<'a>),
}

impl<'a> Fields<'a> {
    pub(crate) fn new(line: &'a [u8]) -> std::io::Result<Self> {
        Ok(if line.is_ascii() {
            Fields::Ascii(line)
        } else {
            Fields::Unicode(utf8(line)?.split_whitespace())
        })
    }
}

/// The ASCII bytes `char::is_whitespace` accepts: space and `\t`..=`\r`
/// (vertical tab included, which `u8::is_ascii_whitespace` leaves out).
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        match self {
            Fields::Ascii(rest) => {
                let line: &'a [u8] = rest;
                let mut start = 0;
                while start < line.len() && is_space(line[start]) {
                    start += 1;
                }
                if start == line.len() {
                    *rest = &[];
                    return None;
                }
                let mut end = start + 1;
                while end < line.len() && !is_space(line[end]) {
                    end += 1;
                }
                *rest = &line[end..];
                Some(&line[start..end])
            }
            Fields::Unicode(it) => it.next().map(str::as_bytes),
        }
    }
}

/// `field` as an integer if it is 1 to 19 plain ASCII digits, which
/// cannot overflow a `u64`.
fn plain_digits(field: &[u8]) -> Option<u64> {
    if field.is_empty() || field.len() > 19 {
        return None;
    }
    let mut n = 0;
    for &b in field {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n = n * 10 + u64::from(d);
    }
    Some(n)
}

/// `field` as `str::parse::<u64>` reads it: plain digits by a digit loop,
/// anything else (a sign, 20+ digits, junk) through `str::parse`.
pub(crate) fn parse_u64(field: &[u8]) -> Option<u64> {
    plain_digits(field).or_else(|| std::str::from_utf8(field).ok()?.parse().ok())
}

/// `field` as `str::parse::<f32>` reads it. Plain digits convert through
/// `u64`, whose `as f32` rounds to nearest with ties to even, as the
/// correctly rounded `str::parse` does; anything else goes through
/// `str::parse`.
pub(crate) fn parse_f32(field: &[u8]) -> Option<f32> {
    match plain_digits(field) {
        Some(n) => Some(n as f32),
        None => std::str::from_utf8(field).ok()?.parse().ok(),
    }
}

pub(crate) fn parse_err(line: usize, msg: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        msg: msg.into(),
    }
}
