//! The one line tokenizer behind both text loaders: [`crate::io::read_csv`]
//! and the raw-format loaders of [`crate::formats`].
//!
//! [`for_each_record`] reads a trace through a [`BufReader`] into one reused
//! byte buffer, a line at a time, so a load allocates nothing per line:
//!
//! * a line ends at `\n`; the `\n` and then one `\r` are stripped, as
//!   [`BufRead::lines`] does;
//! * every line must be UTF-8, or the load fails at that line with the same
//!   [`TinError::Io`] that `lines()` gives;
//! * blank lines, and lines whose first non-whitespace character is `#`, are
//!   skipped; they still count towards the 1-based line numbers;
//! * fields are separated by runs of `,` and of any `char` that
//!   [`char::is_whitespace`] accepts: on an ASCII line `\t \n \x0b \x0c \r`
//!   and space, and Unicode whitespace such as U+00A0 too.
//!
//! The first [`COLUMNS`] fields are kept as borrowed `&str`s, with the count
//! of all fields, so a loader can still report "found N" for a long line.

use std::io::{BufRead, BufReader, Read};
use std::ops::Index;
use std::str::FromStr;

use tin_core::error::{Result, TinError};

/// How many fields a [`Fields`] keeps: the four `src dst time qty` columns
/// every loader reads.
pub(crate) const COLUMNS: usize = 4;

/// The [`TinError::Io`] message of a line that is not UTF-8, the one
/// [`BufRead::lines`] gives.
const INVALID_UTF8: &str = "stream did not contain valid UTF-8";

/// One record line: neither blank nor a comment.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Record<'a> {
    /// 1-based line number, blank and comment lines included.
    pub(crate) lineno: usize,
    /// The whole line, without its line ending.
    pub(crate) text: &'a str,
    /// The line's fields.
    pub(crate) fields: Fields<'a>,
}

/// The fields of a line: the first [`COLUMNS`] as slices of the line, and
/// the count of all of them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fields<'a> {
    kept: [&'a str; COLUMNS],
    count: usize,
}

impl<'a> Fields<'a> {
    /// Split `line` on runs of `,` and whitespace.
    pub(crate) fn split(line: &'a str) -> Self {
        let mut fields = Fields {
            kept: [""; COLUMNS],
            count: 0,
        };
        line.split(|c: char| c == ',' || c.is_whitespace())
            .filter(|f| !f.is_empty())
            .for_each(|f| fields.push(f));
        fields
    }

    fn push(&mut self, field: &'a str) {
        if let Some(slot) = self.kept.get_mut(self.count) {
            *slot = field;
        }
        self.count += 1;
    }

    /// Number of fields on the line, kept or not.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Field `i`, if the line has it and it is among the kept ones.
    pub(crate) fn get(&self, i: usize) -> Option<&'a str> {
        self.kept[..self.count.min(COLUMNS)].get(i).copied()
    }
}

impl<'a> Index<usize> for Fields<'a> {
    type Output = &'a str;

    /// # Panics
    /// Panics if the line has no field `i` or `i >= COLUMNS`.
    fn index(&self, i: usize) -> &&'a str {
        &self.kept[..self.count.min(COLUMNS)][i]
    }
}

/// Read `reader` to the end and hand each record line to `visit`, stopping
/// at the first error, the reader's or `visit`'s.
pub(crate) fn for_each_record<R: Read>(
    reader: R,
    mut visit: impl FnMut(Record<'_>) -> Result<()>,
) -> Result<()> {
    let mut reader = BufReader::new(reader);
    let mut line = Vec::new();
    let mut lineno = 0;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        lineno += 1;
        if line.last() == Some(&b'\n') {
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
        }
        let text = std::str::from_utf8(&line).map_err(|_| TinError::Io(INVALID_UTF8.into()))?;
        let head = text.trim_start();
        if head.is_empty() || head.starts_with('#') {
            continue;
        }
        visit(Record {
            lineno,
            text,
            fields: Fields::split(text),
        })?;
    }
}

/// Parse a field, or fail with the loaders' `invalid {what}: "{field}"`
/// message at line `lineno`.
pub(crate) fn parse_field<T: FromStr>(field: &str, what: &str, lineno: usize) -> Result<T> {
    field.parse().map_err(|_| TinError::Parse {
        line: lineno,
        message: format!("invalid {what}: {field:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(line: &str) -> (Vec<&str>, usize) {
        let fields = Fields::split(line);
        let kept = (0..COLUMNS).map_while(|i| fields.get(i)).collect();
        (kept, fields.len())
    }

    #[test]
    fn ascii_separators_are_commas_and_char_whitespace() {
        assert_eq!(split("a,b c\td"), (vec!["a", "b", "c", "d"], 4));
        assert_eq!(split(" ,a,,\x0b b\x0c\r"), (vec!["a", "b"], 2));
        // `\x1f` is ASCII but not `char` whitespace: it stays inside a field.
        assert_eq!(split("a\x1fb c"), (vec!["a\x1fb", "c"], 2));
        assert_eq!(split(""), (vec![], 0));
        assert_eq!(split(",,\t"), (vec![], 0));
    }

    #[test]
    fn long_lines_keep_four_fields_and_count_all() {
        let fields = Fields::split("a b c d e f");
        assert_eq!(fields.len(), 6);
        assert_eq!(fields[3], "d");
        assert_eq!(fields.get(4), None);
    }

    #[test]
    fn non_ascii_lines_split_on_unicode_whitespace() {
        assert_eq!(split("é\u{a0}b\u{2003}c,d"), (vec!["é", "b", "c", "d"], 4));
        assert_eq!(split("\u{a0}é"), (vec!["é"], 1));
    }

    #[test]
    fn records_skip_blank_and_comment_lines_and_keep_line_numbers() {
        let text = "# head\n\n \t\r\na b\r\n\u{a0}# note\nc,d";
        let mut seen = Vec::new();
        for_each_record(text.as_bytes(), |r| {
            seen.push((r.lineno, r.text.to_string(), r.fields.len()));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![(4, "a b".to_string(), 2), (6, "c,d".to_string(), 2)]
        );
    }

    #[test]
    fn invalid_utf8_is_the_error_lines_gives() {
        let bytes: &[u8] = b"a b\n# \xff\nc d\n";
        let mut visited = 0;
        let err = for_each_record(bytes, |_| {
            visited += 1;
            Ok(())
        })
        .unwrap_err();
        let expected = bytes.lines().nth(1).unwrap().unwrap_err();
        assert_eq!(err, TinError::from(expected));
        assert_eq!(visited, 1);
    }

    #[test]
    fn parse_errors_name_the_field_and_line() {
        assert_eq!(parse_field::<u32>("7", "vertex", 3).unwrap(), 7);
        assert_eq!(
            parse_field::<f64>("x", "timestamp", 3).unwrap_err(),
            TinError::Parse {
                line: 3,
                message: "invalid timestamp: \"x\"".into()
            }
        );
    }
}
