//! The two text loaders as they were before they shared
//! [`crate::tokenizer`], kept as references for differential tests, with
//! one later fix to both `read_csv`s: the header is the first record line,
//! so it may follow comments and blank lines. They are compared on
//! generated traces, on CRLF and tab-separated copies of them (one with a
//! comment and a blank line before the header), on seeded byte mutations
//! of all of these, and on decimal names beyond the
//! interner's direct-indexed table, [`crate::io::read_csv`] and every named
//! loader of [`crate::formats`] must return what the references return.
//! `Ok` results are compared by their interactions and names, errors by
//! their text: `TinError`'s `PartialEq` is false for a NaN payload.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tin_core::error::{Result, TinError};
use tin_core::ids::VertexId;
use tin_core::interaction::Interaction;

use crate::formats::{self, NamedTin};
use crate::{generate, io, DatasetKind, DatasetSpec, ScaleProfile};

/// The `String`-keyed interner the named loaders used.
#[derive(Default)]
struct Interner {
    by_name: HashMap<String, VertexId>,
    names: Vec<String>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> VertexId {
        if let Some(&v) = self.by_name.get(name) {
            return v;
        }
        let v = VertexId::from(self.names.len());
        self.by_name.insert(name.to_string(), v);
        self.names.push(name.to_string());
        v
    }
}

fn split_fields(line: &str) -> Vec<&str> {
    line.split(|c: char| c == ',' || c.is_whitespace())
        .filter(|f| !f.is_empty())
        .collect()
}

fn parse_f64(field: &str, what: &str, lineno: usize) -> Result<f64> {
    field.parse::<f64>().map_err(|_| TinError::Parse {
        line: lineno,
        message: format!("invalid {what}: {field:?}"),
    })
}

fn read_records<R: Read>(
    reader: R,
    columns: [usize; 4],
    expected_fields: usize,
    header_token: Option<&str>,
    min_qty: f64,
) -> Result<(Vec<Interaction>, Interner)> {
    let buf = BufReader::new(reader);
    let mut interner = Interner::default();
    let mut interactions = Vec::new();
    let [src_col, dst_col, time_col, qty_col] = columns;
    let mut first_record = true;
    for (idx, line) in buf.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields = split_fields(trimmed);
        let is_number = |col: usize| fields.get(col).is_some_and(|f| f.parse::<f64>().is_ok());
        if std::mem::take(&mut first_record)
            && header_token.is_some_and(|token| trimmed.to_ascii_lowercase().contains(token))
            && !(is_number(time_col) && is_number(qty_col))
        {
            continue;
        }
        if fields.len() < expected_fields {
            return Err(TinError::Parse {
                line: lineno,
                message: format!(
                    "expected at least {expected_fields} fields, found {}",
                    fields.len()
                ),
            });
        }
        let time = parse_f64(fields[time_col], "timestamp", lineno)?;
        let qty = parse_f64(fields[qty_col], "quantity", lineno)?;
        if qty < min_qty || qty <= 0.0 {
            continue;
        }
        let src = interner.intern(fields[src_col]);
        let dst = interner.intern(fields[dst_col]);
        if src == dst {
            continue;
        }
        let r = Interaction::new(src, dst, time, qty);
        r.validate(Some(lineno))?;
        interactions.push(r);
    }
    interactions.sort_by_key(|a| a.time);
    Ok((interactions, interner))
}

fn read_csv<R: Read>(reader: R) -> Result<Vec<Interaction>> {
    let mut out = Vec::new();
    let buf = BufReader::new(reader);
    let mut first_record = true;
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if std::mem::take(&mut first_record) && trimmed.eq_ignore_ascii_case("src,dst,time,qty") {
            continue;
        }
        let fields: Vec<&str> = trimmed
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|f| !f.is_empty())
            .collect();
        if fields.len() != 4 {
            return Err(TinError::Parse {
                line: lineno + 1,
                message: format!(
                    "expected 4 fields (src,dst,time,qty), found {}",
                    fields.len()
                ),
            });
        }
        let parse_u32 = |s: &str, what: &str| -> Result<u32> {
            s.parse::<u32>().map_err(|_| TinError::Parse {
                line: lineno + 1,
                message: format!("invalid {what}: {s:?}"),
            })
        };
        let parse_f64 = |s: &str, what: &str| -> Result<f64> {
            s.parse::<f64>().map_err(|_| TinError::Parse {
                line: lineno + 1,
                message: format!("invalid {what}: {s:?}"),
            })
        };
        let r = Interaction::new(
            parse_u32(fields[0], "source vertex")?,
            parse_u32(fields[1], "destination vertex")?,
            parse_f64(fields[2], "timestamp")?,
            parse_f64(fields[3], "quantity")?,
        );
        r.validate(Some(lineno + 1))?;
        out.push(r);
    }
    out.sort_by_key(|a| a.time);
    Ok(out)
}

/// A named loader on an in-memory trace.
type NamedLoader = fn(&[u8]) -> Result<NamedTin>;

/// Each named loader next to its reference's columns, header token and
/// minimum quantity.
fn named_loaders() -> [(NamedLoader, [usize; 4], &'static str, f64); 5] {
    [
        (
            |r| formats::read_named_edge_list(r),
            [0, 1, 2, 3],
            "src",
            0.0,
        ),
        (|r| formats::read_taxi_trips(r), [0, 1, 2, 3], "pickup", 0.0),
        (|r| formats::read_flights(r), [0, 1, 2, 3], "origin", 0.0),
        (
            |r| formats::read_bitcoin_transactions(r),
            [0, 1, 2, 3],
            "from",
            formats::BITCOIN_MIN_FLOW,
        ),
        (|r| formats::read_netflow(r), [1, 2, 0, 3], "start", 0.0),
    ]
}

/// Interactions with their floats as bits, so that `-0.0` and `0.0` differ
/// and NaN equals itself.
fn bits(interactions: &[Interaction]) -> Vec<(VertexId, VertexId, u64, u64)> {
    interactions
        .iter()
        .map(|r| (r.src, r.dst, r.time.0.to_bits(), r.qty.to_bits()))
        .collect()
}

/// Names whose lookup is checked besides the interned ones: absent,
/// non-canonical and out-of-table decimals.
const PROBES: [&str; 8] = [
    "0",
    "00",
    "-1",
    "+1",
    "65536",
    "999999999",
    "1000000000",
    "x",
];

/// Every loader on `input` agrees with its reference; returns how many
/// loads succeeded.
fn check_all(input: &[u8]) -> usize {
    let context = || String::from_utf8_lossy(input).into_owned();
    let mut ok = 0;
    match (io::read_csv(input), read_csv(input)) {
        (Ok(new), Ok(old)) => {
            assert_eq!(bits(&new), bits(&old), "read_csv on {:?}", context());
            ok += 1;
        }
        (Err(new), Err(old)) => {
            assert_eq!(
                new.to_string(),
                old.to_string(),
                "read_csv on {:?}",
                context()
            );
        }
        (new, old) => panic!("read_csv on {:?}: {new:?} vs {old:?}", context()),
    }
    for (load, columns, token, min_qty) in named_loaders() {
        match (
            load(input),
            read_records(input, columns, 4, Some(token), min_qty),
        ) {
            (Ok(new), Ok((interactions, interner))) => {
                let what = format!("{token} loader on {:?}", context());
                assert_eq!(bits(&new.interactions), bits(&interactions), "{what}");
                let names: Vec<(VertexId, &str)> = interner
                    .names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (VertexId::from(i), n.as_str()))
                    .collect();
                assert_eq!(new.interner.iter().collect::<Vec<_>>(), names, "{what}");
                for (v, name) in names {
                    assert_eq!(new.interner.get(name), Some(v), "{what}: {name:?}");
                }
                for name in PROBES {
                    let old = interner.by_name.get(name).copied();
                    assert_eq!(new.interner.get(name), old, "{what}: {name:?}");
                }
                ok += 1;
            }
            (Err(new), Err(old)) => {
                assert_eq!(
                    new.to_string(),
                    old.to_string(),
                    "{token} loader on {:?}",
                    context()
                );
            }
            (new, old) => panic!(
                "{token} loader on {:?}: {new:?} vs {:?}",
                context(),
                old.map(|(interactions, _)| interactions)
            ),
        }
    }
    ok
}

/// A generated trace as `write_csv` writes it, cut to its first `lines`
/// records, then its CRLF and tab-separated copies, a headerless copy that
/// every loader can read, and a copy with CRLF, tabs, and a comment and a
/// blank line before the header.
fn generated_variants(kind: DatasetKind, lines: usize) -> [Vec<u8>; 5] {
    let stream = generate(&DatasetSpec::new(kind, ScaleProfile::Tiny));
    let mut csv = Vec::new();
    io::write_csv(&mut csv, &stream[..lines.min(stream.len())]).unwrap();
    let text = String::from_utf8(csv).unwrap();
    let headerless = text.split_once('\n').unwrap().1.to_string();
    let commented = format!("# exported with CRLF and tabs\n\n{text}")
        .replace(',', "\t")
        .replace('\n', "\r\n");
    [
        text.clone().into_bytes(),
        text.replace('\n', "\r\n").into_bytes(),
        text.replace(',', "\t").into_bytes(),
        headerless.into_bytes(),
        commented.into_bytes(),
    ]
}

/// What the mutations insert or replace a byte with.
const ALPHABET: [&[u8]; 15] = [
    b",",
    b" ",
    b"\t",
    b"\x0b",
    b"\x0c",
    b"\r",
    b"\n",
    b"#",
    b"-",
    b"0",
    b".",
    b"e",
    "\u{a0}".as_bytes(),
    "\u{2003}".as_bytes(),
    b"\xff",
];

fn mutate(rng: &mut StdRng, input: &mut Vec<u8>) {
    let at = rng.gen_range(0..=input.len());
    let piece = ALPHABET[rng.gen_range(0..ALPHABET.len())];
    match rng.gen_range(0..3u8) {
        0 => {
            input.splice(at..at, piece.iter().copied());
        }
        1 if at < input.len() => {
            input.remove(at);
        }
        _ if at < input.len() => {
            input.splice(at..=at, piece.iter().copied());
        }
        _ => input.extend_from_slice(piece),
    }
}

#[test]
fn loaders_agree_on_generated_traces() {
    for kind in DatasetKind::all() {
        // Only `read_csv` and the named edge list take `write_csv`'s header,
        // and `read_csv` only with commas; every loader reads the headerless
        // copy.
        let loaded = generated_variants(kind, usize::MAX).map(|input| check_all(&input));
        assert_eq!(loaded, [2, 2, 1, 6, 1], "{kind}");
    }
}

#[test]
fn loaders_agree_on_byte_mutations() {
    let mut rng = StdRng::seed_from_u64(0x7157_10ad);
    let mut loaded = 0;
    let mut cases = 0;
    for kind in DatasetKind::all() {
        for base in generated_variants(kind, 12) {
            for _ in 0..60 {
                let mut input = base.clone();
                for _ in 0..rng.gen_range(1..=4) {
                    mutate(&mut rng, &mut input);
                }
                loaded += check_all(&input);
                cases += 6;
            }
        }
    }
    // The mutations exercise both outcomes.
    assert!(loaded > 0 && loaded < cases, "{loaded} of {cases}");
}

/// Large decimal names come first, while the table's bound keeps them in
/// the map; later rounds intern enough names for the table to grow past
/// them, and then meet them again.
#[test]
fn loaders_agree_on_decimal_names_beyond_the_table() {
    let mut rng = StdRng::seed_from_u64(65_536);
    let odd = [
        "007",
        "0",
        "+5",
        "-3",
        "1e3",
        "00",
        "x1",
        "999999999",
        "4294967296",
    ];
    for round in 0..8u32 {
        let mut text = String::from("src,dst,time,qty\n");
        for i in 0..3_000 {
            let src = match rng.gen_range(0..8u8) {
                0 => odd[rng.gen_range(0..odd.len())].to_string(),
                1 => rng.gen_range(65_536..90_000u32).to_string(),
                _ => rng.gen_range(0..90_000u32).to_string(),
            };
            let dst = rng.gen_range(0..50 + 10_000 * round);
            text.push_str(&format!("{src} {dst} {i} 1.5\n"));
        }
        check_all(text.as_bytes());
        let named = formats::read_named_edge_list(text.as_bytes()).unwrap();
        assert!(named.num_vertices() > 1_000, "round {round}");
    }
}
