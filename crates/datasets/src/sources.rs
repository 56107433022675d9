//! Streaming [`ReportSource`] backends: files on disk and synthetic
//! generators, so paper-scale (5–9M user) runs never materialize the whole
//! user population in memory.
//!
//! * [`NdjsonPairSource`] — newline-delimited JSON, one
//!   `{"label": c, "item": i}` object per line (field order free,
//!   whitespace tolerated).
//! * [`CsvPairSource`] — the CLI's `label,item` CSV, with an optional
//!   header, read line-buffered instead of `read_to_string`.
//! * [`SyntheticPairSource`] — a seeded generator producing Zipf-per-class
//!   pairs on the fly (the stream-ingestion benchmark's 5M-user workload
//!   costs no input memory at all).
//!
//! Both file formats share one line reader: a UTF-8 byte-order mark at the
//! start of the file is skipped, lines longer than `MAX_LINE_BYTES` (4 KiB)
//! are refused, and every malformed line — invalid UTF-8 included — fails
//! with its 1-based line number.

use std::io::BufRead;
use std::path::{Path, PathBuf};

use mcim_core::LabelItem;
use mcim_oracles::stream::ReportSource;
use mcim_oracles::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::distributions::Zipf;

/// The longest line either file source accepts, in bytes, not counting its
/// `\n`. Refusing longer lines keeps the reader's memory bounded even on a
/// file with no newline at all.
const MAX_LINE_BYTES: usize = 4096;

/// U+FEFF as UTF-8: spreadsheet "CSV UTF-8" exports begin with it.
const BOM: &[u8] = "\u{FEFF}".as_bytes();

/// Maps an I/O error to [`Error::Source`] naming the file.
fn io_err(path: &Path, e: std::io::Error) -> Error {
    Error::Source {
        message: format!("{}: {e}", path.display()),
    }
}

/// A position-aware parse failure: [`Error::Source`] naming file and line.
fn line_err(path: &Path, lineno: u64, what: &str) -> Error {
    Error::Source {
        message: format!("{} line {lineno}: {what}", path.display()),
    }
}

/// Views a line as `str`, or fails naming its position.
fn utf8<'a>(path: &Path, lineno: u64, line: &'a [u8]) -> Result<&'a str> {
    std::str::from_utf8(line).map_err(|_| line_err(path, lineno, "not valid UTF-8"))
}

/// The shared line-pulling machinery behind both file-backed pair sources:
/// buffered reading into one reused line buffer, 1-based line counting,
/// and I/O-error wrapping live here exactly once; the formats differ only
/// in their line parser.
#[derive(Debug)]
struct PairFile {
    path: PathBuf,
    reader: std::io::BufReader<std::fs::File>,
    /// The current line without its `\n`, reused from line to line.
    line: Vec<u8>,
    lineno: u64,
    yielded: u64,
}

impl PairFile {
    fn open(path: &Path) -> Result<Self> {
        let file = std::fs::File::open(path).map_err(|e| io_err(path, e))?;
        Ok(PairFile {
            path: path.to_path_buf(),
            reader: std::io::BufReader::new(file),
            line: Vec::new(),
            lineno: 0,
            yielded: 0,
        })
    }

    /// Reads the next line, without its `\n`, into `self.line`; `false`
    /// at end of file.
    fn next_line(&mut self) -> Result<bool> {
        self.line.clear();
        loop {
            let chunk = self.reader.fill_buf().map_err(|e| io_err(&self.path, e))?;
            if chunk.is_empty() {
                if self.line.is_empty() {
                    return Ok(false);
                }
                break; // a last line with no `\n`
            }
            let newline = chunk.iter().position(|&b| b == b'\n');
            let (body, used) = match newline {
                Some(i) => (&chunk[..i], i + 1),
                None => (chunk, chunk.len()),
            };
            self.line.extend_from_slice(body);
            self.reader.consume(used);
            if self.line.len() > MAX_LINE_BYTES {
                let what = format!("longer than {MAX_LINE_BYTES} bytes");
                return Err(line_err(&self.path, self.lineno + 1, &what));
            }
            if newline.is_some() {
                break;
            }
        }
        self.lineno += 1;
        if self.lineno == 1 && self.line.starts_with(BOM) {
            self.line.drain(..BOM.len());
        }
        Ok(true)
    }

    /// Reads lines until `parse` yields a pair (it returns `Ok(None)` for
    /// skippable lines — blanks, headers); `None` at end of file.
    fn next_pair(
        &mut self,
        parse: &impl Fn(&Path, u64, &[u8]) -> Result<Option<LabelItem>>,
    ) -> Result<Option<LabelItem>> {
        while self.next_line()? {
            if let Some(pair) = parse(&self.path, self.lineno, &self.line)? {
                return Ok(Some(pair));
            }
        }
        Ok(None)
    }

    /// Pulls up to `max` pairs.
    fn fill_with(
        &mut self,
        buf: &mut Vec<LabelItem>,
        max: usize,
        parse: impl Fn(&Path, u64, &[u8]) -> Result<Option<LabelItem>>,
    ) -> Result<usize> {
        let mut got = 0usize;
        while got < max {
            let Some(pair) = self.next_pair(&parse)? else {
                break;
            };
            buf.push(pair);
            got += 1;
        }
        self.yielded += got as u64;
        Ok(got)
    }

    /// Un-consumes the `n` most recent pairs by reopening the file and
    /// re-parsing (and discarding) everything before the target position.
    /// Exactness depends on the file not changing between passes — the
    /// batch/stream equivalence contract already assumes that.
    fn rewind_with(
        &mut self,
        n: u64,
        parse: impl Fn(&Path, u64, &[u8]) -> Result<Option<LabelItem>>,
    ) -> Result<bool> {
        let target = self.yielded.checked_sub(n).ok_or_else(|| Error::Source {
            message: format!(
                "{}: rewind({n}) exceeds the {} pairs already yielded",
                self.path.display(),
                self.yielded
            ),
        })?;
        *self = PairFile::open(&self.path)?;
        while self.yielded < target {
            if self.next_pair(&parse)?.is_none() {
                return Err(Error::Source {
                    message: format!("{}: file shrank during rewind", self.path.display()),
                });
            }
            self.yielded += 1;
        }
        Ok(true)
    }
}

/// Parses one CSV line's bytes. A line of the form `[0-9]+,[0-9]+` with an
/// optional trailing `\r` — nearly every line of a machine-written file —
/// is decoded straight from the bytes; every other line goes to
/// [`parse_csv_line`], which defines the grammar and its errors.
fn parse_csv_bytes(path: &Path, lineno: u64, line: &[u8]) -> Result<Option<LabelItem>> {
    match parse_csv_digits(line) {
        Some(pair) => Ok(Some(pair)),
        None => parse_csv_line(path, lineno, utf8(path, lineno, line)?),
    }
}

/// The byte fast path of [`parse_csv_bytes`]: `Some` only for two
/// ASCII-digit `u32`s split by one comma, with an optional trailing `\r` —
/// lines [`parse_csv_line`] reads as the same pair.
fn parse_csv_digits(line: &[u8]) -> Option<LabelItem> {
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    let comma = line.iter().position(|&b| b == b',')?;
    let (label, item) = line.split_at(comma);
    Some(LabelItem::new(
        digits_u32(label)?,
        digits_u32(item.get(1..)?)?,
    ))
}

/// A non-empty run of ASCII digits as a `u32`; `None` on any other byte or
/// on overflow.
fn digits_u32(digits: &[u8]) -> Option<u32> {
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u32, |acc, &b| {
        acc.checked_mul(10)?
            .checked_add(char::from(b).to_digit(10)?)
    })
}

/// Parses one `label,item` CSV line (line 1 may be a header).
fn parse_csv_line(path: &Path, lineno: u64, line: &str) -> Result<Option<LabelItem>> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    if lineno == 1 && line.to_ascii_lowercase().starts_with("label") {
        return Ok(None); // header
    }
    let bad = |what: &str| line_err(path, lineno, what);
    let mut fields = line.split(',');
    let (a, b) = (fields.next(), fields.next());
    if fields.next().is_some() {
        return Err(bad("expected `label,item`"));
    }
    let parse = |s: Option<&str>, what: &str| -> Result<u32> {
        s.map(str::trim)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| bad(&format!("missing {what}")))?
            .parse()
            .map_err(|_| bad(&format!("{what} is not a non-negative integer")))
    };
    Ok(Some(LabelItem::new(parse(a, "label")?, parse(b, "item")?)))
}

/// Parses one `{"label": c, "item": i}` NDJSON line (fields in any order).
fn parse_ndjson_line(path: &Path, lineno: u64, line: &[u8]) -> Result<Option<LabelItem>> {
    let line = utf8(path, lineno, line)?.trim();
    if line.is_empty() {
        return Ok(None);
    }
    let bad = |what: &str| line_err(path, lineno, what);
    let body = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| bad("expected a {\"label\": …, \"item\": …} object"))?;
    let (mut label, mut item) = (None::<u32>, None::<u32>);
    for field in body.split(',') {
        let (key, value) = field
            .split_once(':')
            .ok_or_else(|| bad("expected `\"key\": value` fields"))?;
        let key = key.trim().trim_matches('"');
        let value: u32 = value
            .trim()
            .parse()
            .map_err(|_| bad(&format!("field `{key}` is not a non-negative integer")))?;
        match key {
            "label" => label = Some(value),
            "item" => item = Some(value),
            other => return Err(bad(&format!("unknown field `{other}`"))),
        }
    }
    match (label, item) {
        (Some(label), Some(item)) => Ok(Some(LabelItem::new(label, item))),
        _ => Err(bad("object needs both `label` and `item`")),
    }
}

/// A `label,item` CSV file as a stream source. Lines are pulled through a
/// buffered reader; memory is one line plus the reader's buffer. This is
/// the **only** CSV pair grammar in the workspace — the CLI's batch
/// loader drains this same source, so batch and streaming runs can never
/// parse a file differently.
#[derive(Debug)]
pub struct CsvPairSource {
    file: PairFile,
}

impl CsvPairSource {
    /// Opens `path`. An optional `label,item` header is skipped on read.
    pub fn open(path: &Path) -> Result<Self> {
        Ok(CsvPairSource {
            file: PairFile::open(path)?,
        })
    }
}

impl ReportSource for CsvPairSource {
    type Item = LabelItem;

    fn fill(&mut self, buf: &mut Vec<LabelItem>, max: usize) -> Result<usize> {
        self.file.fill_with(buf, max, parse_csv_bytes)
    }

    fn rewind(&mut self, n: u64) -> Result<bool> {
        self.file.rewind_with(n, parse_csv_bytes)
    }
}

/// A newline-delimited JSON file of `{"label": c, "item": i}` objects as a
/// stream source. The parser is deliberately minimal (two integer fields,
/// any order); anything else fails with the offending line number.
#[derive(Debug)]
pub struct NdjsonPairSource {
    file: PairFile,
}

impl NdjsonPairSource {
    /// Opens `path`.
    pub fn open(path: &Path) -> Result<Self> {
        Ok(NdjsonPairSource {
            file: PairFile::open(path)?,
        })
    }
}

impl ReportSource for NdjsonPairSource {
    type Item = LabelItem;

    fn fill(&mut self, buf: &mut Vec<LabelItem>, max: usize) -> Result<usize> {
        self.file.fill_with(buf, max, parse_ndjson_line)
    }

    fn rewind(&mut self, n: u64) -> Result<bool> {
        self.file.rewind_with(n, parse_ndjson_line)
    }
}

/// Configuration for [`SyntheticPairSource`].
#[derive(Debug, Clone, Copy)]
pub struct SyntheticSourceConfig {
    /// Class-domain size.
    pub classes: u32,
    /// Item-domain size.
    pub items: u32,
    /// Total users the source will yield.
    pub users: u64,
    /// Zipf exponent of the per-class item ranking (SYN3 uses 1.5).
    pub zipf_s: f64,
    /// Generator seed.
    pub seed: u64,
}

/// A seeded on-the-fly generator of label-item pairs: labels rotate
/// round-robin, items follow a per-class Zipf ranking (class `c`'s rank-`r`
/// item is `(c·37 + r) mod d`, mirroring the SYN3 construction). Knows its
/// length, so it also feeds round-splitting consumers.
#[derive(Debug, Clone)]
pub struct SyntheticPairSource {
    config: SyntheticSourceConfig,
    zipf: Zipf,
    rng: StdRng,
    emitted: u64,
}

impl SyntheticPairSource {
    /// Creates the generator.
    pub fn new(config: SyntheticSourceConfig) -> Self {
        SyntheticPairSource {
            config,
            zipf: Zipf::new(config.zipf_s, config.items),
            // mcim-lint: allow(rng-discipline, generator stream seeded from the source's explicit config seed; not a privatization stage)
            rng: StdRng::seed_from_u64(config.seed),
            emitted: 0,
        }
    }

    /// Draws the next pair — the single place the generator's RNG stream
    /// advances, so replaying from the seed reproduces it exactly.
    fn next_pair(&mut self) -> LabelItem {
        let label = self.rng.random_range(0..self.config.classes);
        let rank = self.zipf.sample(&mut self.rng);
        let item = (label.wrapping_mul(37).wrapping_add(rank)) % self.config.items;
        self.emitted += 1;
        LabelItem::new(label, item)
    }
}

impl ReportSource for SyntheticPairSource {
    type Item = LabelItem;

    fn fill(&mut self, buf: &mut Vec<LabelItem>, max: usize) -> Result<usize> {
        let take = (self.config.users - self.emitted).min(max as u64) as usize;
        for _ in 0..take {
            let pair = self.next_pair();
            buf.push(pair);
        }
        Ok(take)
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.config.users - self.emitted)
    }

    fn rewind(&mut self, n: u64) -> Result<bool> {
        let target = self.emitted.checked_sub(n).ok_or_else(|| Error::Source {
            message: format!(
                "rewind({n}) exceeds the {} pairs already generated",
                self.emitted
            ),
        })?;
        // The RNG stream has no random access; replay it from the seed up
        // to the target position (cheap and exact — `next_pair` is the
        // only consumer of the stream).
        // mcim-lint: allow(rng-discipline, replaying the generator stream from its explicit config seed; not a privatization stage)
        self.rng = StdRng::seed_from_u64(self.config.seed);
        self.emitted = 0;
        for _ in 0..target {
            let _ = self.next_pair();
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mcim-dataset-sources");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn drain<S: ReportSource<Item = LabelItem>>(mut s: S) -> Result<Vec<LabelItem>> {
        let mut out = Vec::new();
        while s.fill(&mut out, 3)? > 0 {}
        Ok(out)
    }

    #[test]
    fn ndjson_round_trip() {
        let path = tmp("ok.ndjson");
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "{{\"label\": 0, \"item\": 5}}").unwrap();
        writeln!(f).unwrap(); // blank lines are skipped
        writeln!(f, "  {{ \"item\": 2 , \"label\" : 3 }}  ").unwrap();
        drop(f);
        let pairs = drain(NdjsonPairSource::open(&path).unwrap()).unwrap();
        assert_eq!(pairs, vec![LabelItem::new(0, 5), LabelItem::new(3, 2)]);
    }

    #[test]
    fn ndjson_malformed_line_names_position() {
        let path = tmp("bad.ndjson");
        std::fs::write(
            &path,
            "{\"label\": 0, \"item\": 1}\n{\"label\": 0, \"item\": -3}\n",
        )
        .unwrap();
        let err = drain(NdjsonPairSource::open(&path).unwrap()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "error should name the line: {msg}");

        std::fs::write(&path, "label,item\n").unwrap();
        assert!(drain(NdjsonPairSource::open(&path).unwrap()).is_err());
        std::fs::write(&path, "{\"label\": 0}\n").unwrap();
        assert!(drain(NdjsonPairSource::open(&path).unwrap()).is_err());
        std::fs::write(&path, "{\"label\": 0, \"item\": 1, \"x\": 2}\n").unwrap();
        assert!(drain(NdjsonPairSource::open(&path).unwrap()).is_err());
        assert!(NdjsonPairSource::open(&tmp("missing.ndjson")).is_err());
    }

    #[test]
    fn csv_round_trip_with_header() {
        let path = tmp("ok.csv");
        std::fs::write(&path, "label,item\n1,2\n0, 7\n").unwrap();
        let pairs = drain(CsvPairSource::open(&path).unwrap()).unwrap();
        assert_eq!(pairs, vec![LabelItem::new(1, 2), LabelItem::new(0, 7)]);
    }

    #[test]
    fn csv_malformed_line_names_position() {
        let path = tmp("bad.csv");
        std::fs::write(&path, "0,1\n1,2,3\n").unwrap();
        let err = drain(CsvPairSource::open(&path).unwrap()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn bom_on_line_1_is_skipped() {
        let path = tmp("bom.csv");
        for body in ["\u{FEFF}label,item\n1,2\n", "\u{FEFF}1,2\n"] {
            std::fs::write(&path, body).unwrap();
            let pairs = drain(CsvPairSource::open(&path).unwrap()).unwrap();
            assert_eq!(pairs, vec![LabelItem::new(1, 2)], "{body:?}");
        }
        // Only a leading BOM is skipped; anywhere else it is a bad field.
        std::fs::write(&path, "1,2\n\u{FEFF}3,4\n").unwrap();
        let err = drain(CsvPairSource::open(&path).unwrap()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");

        let path = tmp("bom.ndjson");
        std::fs::write(&path, "\u{FEFF}{\"label\": 1, \"item\": 2}\n").unwrap();
        let pairs = drain(NdjsonPairSource::open(&path).unwrap()).unwrap();
        assert_eq!(pairs, vec![LabelItem::new(1, 2)]);
    }

    #[test]
    fn invalid_utf8_names_its_line() {
        let path = tmp("bad-utf8.csv");
        std::fs::write(&path, b"0,1\n1,\xFF2\n").unwrap();
        let err = drain(CsvPairSource::open(&path).unwrap()).unwrap_err();
        assert!(err.to_string().contains("line 2: not valid UTF-8"), "{err}");

        let path = tmp("bad-utf8.ndjson");
        std::fs::write(&path, b"{\"label\": 0, \"item\": \xC3}\n").unwrap();
        let err = drain(NdjsonPairSource::open(&path).unwrap()).unwrap_err();
        assert!(err.to_string().contains("line 1: not valid UTF-8"), "{err}");
    }

    #[test]
    fn overlong_lines_are_refused() {
        let path = tmp("no-newline.csv");
        std::fs::write(&path, vec![b'7'; 1 << 20]).unwrap();
        let err = drain(CsvPairSource::open(&path).unwrap()).unwrap_err();
        assert!(
            err.to_string().contains("line 1: longer than 4096 bytes"),
            "{err}"
        );

        // The cap is exact: MAX_LINE_BYTES passes, one byte more does not.
        let path = tmp("long-lines.csv");
        let line = |len: usize| format!("1,{:>w$}\n", 2, w = len - 2);
        std::fs::write(&path, line(MAX_LINE_BYTES) + &line(MAX_LINE_BYTES + 1)).unwrap();
        let mut source = CsvPairSource::open(&path).unwrap();
        let mut pairs = Vec::new();
        assert_eq!(source.fill(&mut pairs, 1).unwrap(), 1);
        assert_eq!(pairs, vec![LabelItem::new(1, 2)]);
        let err = source.fill(&mut pairs, 1).unwrap_err();
        assert!(err.to_string().contains("line 2: longer than"), "{err}");
    }

    /// The reference decoder the differential tests hold `CsvPairSource`
    /// to: `BufRead::lines` feeding `parse_csv_line`, with no byte-level
    /// reading and no fast path.
    fn reference_csv(path: &Path) -> Result<Vec<LabelItem>> {
        let file = std::io::BufReader::new(std::fs::File::open(path).unwrap());
        let mut out = Vec::new();
        for (lineno, line) in (1..).zip(file.lines()) {
            if let Some(pair) = parse_csv_line(path, lineno, &line.unwrap())? {
                out.push(pair);
            }
        }
        Ok(out)
    }

    /// Line fragments for the differential tests: digits with and without
    /// leading zeros, the `u32` edge, signs, separators, CR, whitespace the
    /// `str` grammar trims (tab, NBSP), non-ASCII and the header words.
    const FRAGMENTS: &[&str] = &[
        "0",
        "7",
        "007",
        "+5",
        "-1",
        "4294967295",
        "4294967296",
        "12",
        ",",
        ",",
        "\r",
        "\t",
        "\u{A0}",
        " ",
        "label",
        "item",
        "label,item",
        "x",
        "é",
    ];

    #[test]
    fn csv_fast_path_agrees_with_grammar_on_edge_lines() {
        let path = tmp("edge.csv");
        let lines = [
            "0,0",
            "007,0010",
            "+5,3",
            "5,+3",
            "4294967295,4294967295",
            "4294967296,1",
            "1,4294967296",
            "1,2\r",
            "1,2\r\r",
            "1\t,2",
            "\t1,2",
            "\u{A0}1,2",
            "1,2\u{A0}",
            ",2",
            "1,",
            ",",
            "1,2,3",
            "1,,2",
            "",
            "\r",
            "   ",
            "label,item",
            "LABEL,Item",
            "00000000000000001,2",
        ];
        for line in lines {
            for lineno in [1, 2] {
                assert_eq!(
                    parse_csv_bytes(&path, lineno, line.as_bytes()),
                    parse_csv_line(&path, lineno, line),
                    "{line:?} on line {lineno}"
                );
            }
        }
    }

    proptest::proptest! {
        /// Files of lines built from [`FRAGMENTS`] decode exactly as the
        /// reference reader decodes them: the same pairs, or the same
        /// error naming the same line.
        #[test]
        fn csv_source_agrees_with_reference_reader(
            lines in proptest::prop::collection::vec(
                proptest::prop::collection::vec(0..FRAGMENTS.len(), 0..6),
                1..8,
            ),
            crlf in proptest::any::<bool>(),
        ) {
            let path = tmp("differential.csv");
            let eol = if crlf { "\r\n" } else { "\n" };
            let body: String = lines
                .iter()
                .map(|line| line.iter().map(|&f| FRAGMENTS[f]).collect::<String>() + eol)
                .collect();
            std::fs::write(&path, &body).unwrap();
            let got = drain(CsvPairSource::open(&path).unwrap());
            proptest::prop_assert_eq!(got, reference_csv(&path), "{:?}", body);
        }
    }

    #[test]
    fn synthetic_source_is_seed_deterministic_and_sized() {
        let config = SyntheticSourceConfig {
            classes: 4,
            items: 64,
            users: 1000,
            zipf_s: 1.5,
            seed: 9,
        };
        let a = drain(SyntheticPairSource::new(config)).unwrap();
        let b = drain(SyntheticPairSource::new(config)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
        let source = SyntheticPairSource::new(config);
        assert_eq!(source.size_hint(), Some(1000));
        for p in &a {
            assert!(p.label < 4 && p.item < 64);
        }
        // The Zipf head must dominate: rank-0 items are the per-class modes.
        let head = a.iter().filter(|p| p.item == (p.label * 37) % 64).count();
        assert!(head > a.len() / 4, "zipf head too light: {head}");
    }

    /// Shared shape of every rewind test: consume a prefix, rewind part of
    /// it, and require the replayed stream to match the first pass exactly.
    fn assert_rewind_replays<S: ReportSource<Item = LabelItem>>(mut source: S, total: usize) {
        let mut first = Vec::new();
        let consumed = total * 2 / 3;
        while first.len() < consumed {
            let want = consumed - first.len();
            let got = source.fill(&mut first, want).unwrap();
            assert!(got > 0, "source ended early");
        }
        let back = (consumed / 2) as u64;
        assert!(source.rewind(back).unwrap(), "source must support rewind");
        let mut replay = Vec::new();
        while source.fill(&mut replay, 7).unwrap() > 0 {}
        assert_eq!(replay.len(), total - consumed + back as usize);
        assert_eq!(
            replay[..back as usize],
            first[consumed - back as usize..],
            "replayed items must be byte-identical"
        );
        assert!(source.rewind(u64::MAX).is_err(), "over-rewind must error");
    }

    #[test]
    fn synthetic_rewind_replays_identically() {
        let config = SyntheticSourceConfig {
            classes: 4,
            items: 64,
            users: 900,
            zipf_s: 1.5,
            seed: 9,
        };
        assert_rewind_replays(SyntheticPairSource::new(config), 900);
    }

    #[test]
    fn csv_rewind_replays_identically() {
        let path = tmp("rewind.csv");
        let mut body = String::from("label,item\n");
        for i in 0..120u32 {
            body.push_str(&format!("{},{}\n\n", i % 5, i % 11)); // blanks interleaved
        }
        std::fs::write(&path, body).unwrap();
        assert_rewind_replays(CsvPairSource::open(&path).unwrap(), 120);
    }

    #[test]
    fn csv_rewind_replays_across_buffer_boundaries() {
        let path = tmp("rewind-wide.csv");
        let mut body = String::from("label,item\r\n");
        let mut ends = Vec::new();
        for i in 0..1500u32 {
            // Ragged widths (padded lines take the `str` path) so lines
            // land across the reader's 8 KiB buffer refills.
            let pad = (i % 23) as usize;
            let eol = if i % 4 == 0 { "\r\n" } else { "\n" };
            body.push_str(&format!("{:pad$}{},{}{eol}", "", i % 7, i * 13));
            ends.push(body.len());
        }
        let straddles = |at: usize| ends.windows(2).any(|w| w[0] < at && at < w[1] - 1);
        assert!(
            straddles(8192) && straddles(16384),
            "no line crosses a refill"
        );
        std::fs::write(&path, body).unwrap();
        assert_eq!(
            drain(CsvPairSource::open(&path).unwrap()).unwrap(),
            reference_csv(&path).unwrap()
        );
        assert_rewind_replays(CsvPairSource::open(&path).unwrap(), 1500);
    }

    #[test]
    fn ndjson_rewind_replays_identically() {
        let path = tmp("rewind.ndjson");
        let mut body = String::new();
        for i in 0..90u32 {
            body.push_str(&format!("{{\"label\": {}, \"item\": {}}}\n", i % 3, i % 13));
        }
        std::fs::write(&path, body).unwrap();
        assert_rewind_replays(NdjsonPairSource::open(&path).unwrap(), 90);
    }
}
