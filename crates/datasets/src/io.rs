//! Reading and writing interaction streams as CSV-like text files.
//!
//! The format is one interaction per line, `src,dst,time,qty`, optionally
//! preceded by a header line. This matches the shape of the public traces the
//! paper uses (konect edge lists, NYC TLC trip records after projection), so
//! users who do have the real data can load it directly and run every
//! experiment on it instead of the synthetic emulation.
//!
//! [`read_csv`] shares its line tokenizer with the named loaders of
//! [`crate::formats`]: one reused line buffer, so nothing is allocated per
//! line, and the same comment, blank-line and field-separator rules (see
//! that module). A trace already in time order is not sorted again.

use std::io::{BufWriter, Read, Write};
use std::path::Path;

use tin_core::error::{Result, TinError};
use tin_core::graph::Tin;
use tin_core::interaction::{sort_by_time, Interaction};

use crate::tokenizer::{for_each_record, parse_field, Record};

/// Write interactions to a writer as `src,dst,time,qty` lines with a header.
pub fn write_csv<W: Write>(writer: W, interactions: &[Interaction]) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "src,dst,time,qty")?;
    for r in interactions {
        writeln!(w, "{},{},{},{}", r.src.raw(), r.dst.raw(), r.time.0, r.qty)?;
    }
    w.flush()?;
    Ok(())
}

/// Write interactions to a file (see [`write_csv`]).
pub fn write_csv_file(path: impl AsRef<Path>, interactions: &[Interaction]) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_csv(file, interactions)
}

/// Parse interactions from a reader.
///
/// * Lines starting with `#` and blank lines are skipped.
/// * A first record line (the first line that is neither blank nor a
///   comment) equal to `src,dst,time,qty`, the header we write, is skipped.
/// * Fields may be separated by commas, whitespace or tabs (konect-style
///   edge lists use whitespace); every line has exactly four.
/// * Vertex ids are `u32`s, and a self-loop is an error.
/// * The result is sorted by time.
pub fn read_csv<R: Read>(reader: R) -> Result<Vec<Interaction>> {
    let mut out = Vec::new();
    let mut first_record = true;
    for_each_record(reader, |record| {
        let Record {
            lineno,
            text,
            fields,
        } = record;
        if std::mem::take(&mut first_record) && text.trim().eq_ignore_ascii_case("src,dst,time,qty")
        {
            return Ok(());
        }
        if fields.len() != 4 {
            return Err(TinError::Parse {
                line: lineno,
                message: format!(
                    "expected 4 fields (src,dst,time,qty), found {}",
                    fields.len()
                ),
            });
        }
        let r = Interaction::new(
            parse_field::<u32>(fields[0], "source vertex", lineno)?,
            parse_field::<u32>(fields[1], "destination vertex", lineno)?,
            parse_field::<f64>(fields[2], "timestamp", lineno)?,
            parse_field(fields[3], "quantity", lineno)?,
        );
        r.validate(Some(lineno))?;
        out.push(r);
        Ok(())
    })?;
    sort_by_time(&mut out);
    Ok(out)
}

/// Read interactions from a file (see [`read_csv`]).
pub fn read_csv_file(path: impl AsRef<Path>) -> Result<Vec<Interaction>> {
    let file = std::fs::File::open(path)?;
    read_csv(file)
}

/// Read a file and build a [`Tin`] with the vertex count inferred from the
/// maximum vertex id.
pub fn read_tin_file(path: impl AsRef<Path>) -> Result<Tin> {
    let interactions = read_csv_file(path)?;
    Tin::from_interactions_auto(interactions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tin_core::interaction::paper_running_example;

    #[test]
    fn roundtrip_through_memory() {
        let original = paper_running_example();
        let mut buf = Vec::new();
        write_csv(&mut buf, &original).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("src,dst,time,qty\n"));
        assert_eq!(text.lines().count(), 7);
        let parsed = read_csv(buf.as_slice()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn roundtrip_through_file() {
        let path = std::env::temp_dir().join(format!("tin_io_test_{}.csv", std::process::id()));
        let original = paper_running_example();
        write_csv_file(&path, &original).unwrap();
        let parsed = read_csv_file(&path).unwrap();
        assert_eq!(parsed, original);
        let tin = read_tin_file(&path).unwrap();
        assert_eq!(tin.num_vertices(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn accepts_whitespace_separated_and_comments() {
        let text = "# konect-style edge list\n1 2 1.0 3\n2 0 3.0 5\n\n0\t1\t4.0\t3\n";
        let parsed = read_csv(text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].qty, 3.0);
        assert_eq!(parsed[2].time.value(), 4.0);
    }

    #[test]
    fn header_after_a_comment_and_a_blank_line_is_skipped() {
        let text = "# exported trace\n\nsrc,dst,time,qty\n1,2,1.0,3\n2,0,3.0,5\n";
        let parsed = read_csv(text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].src.raw(), 1);
        // Only the first record line may be the header.
        let err = read_csv("# c\n1,2,1.0,3\nsrc,dst,time,qty\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TinError::Parse { line: 3, .. }), "{err:?}");
    }

    #[test]
    fn sorts_unordered_input_by_time() {
        let text = "0,1,5.0,1\n1,2,2.0,1\n";
        let parsed = read_csv(text.as_bytes()).unwrap();
        assert_eq!(parsed[0].time.value(), 2.0);
        assert_eq!(parsed[1].time.value(), 5.0);
    }

    #[test]
    fn rejects_wrong_field_count() {
        let err = read_csv("1,2,3\n".as_bytes()).unwrap_err();
        match err {
            TinError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("4 fields"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_non_numeric_fields() {
        let err = read_csv("a,2,3.0,4\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TinError::Parse { .. }));
        let err = read_csv("1,2,xyz,4\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TinError::Parse { .. }));
    }

    #[test]
    fn rejects_invalid_interactions() {
        // Self-loop.
        let err = read_csv("1,1,1.0,4\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TinError::SelfLoop { .. }));
        // Negative quantity.
        let err = read_csv("1,2,1.0,-4\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TinError::InvalidQuantity { .. }));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_csv_file("/nonexistent/definitely/missing.csv").unwrap_err();
        assert!(matches!(err, TinError::Io(_)));
    }
}
