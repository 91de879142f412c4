//! Rendering and parsing of the PARMONC result-file contents
//! (paper Section 3.6).
//!
//! Three plain-text artifacts are produced in
//! `parmonc_data/results/`:
//!
//! * `func.dat` — the matrix of sample means, one matrix row per line;
//! * `func_ci.dat` — per-entry lines `i j mean abs_err rel_err variance`
//!   ("a matrix of the sample means together with matrices of absolute
//!   and relative errors and variances");
//! * `func_log.dat` — `key = value` lines with the total sample volume,
//!   the mean computer time per realization, and the upper bounds
//!   `eps_max`, `rho_max`, `sigma2_max`.
//!
//! Rendering and parsing round-trip (`parse_func ∘ render_func = id` up
//! to float formatting), which is what the resumption machinery relies
//! on.

use core::fmt::Write as _;

use crate::matrix::MatrixSummary;

/// Errors produced when parsing a result file.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A line did not have the expected number of fields.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// Expected field count.
        expected: usize,
        /// Actual field count.
        got: usize,
    },
    /// A field could not be parsed as a number.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A `func_log.dat` key was missing.
    MissingKey(&'static str),
    /// The file had no data lines.
    Empty,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::FieldCount {
                line,
                expected,
                got,
            } => {
                write!(f, "line {line}: expected {expected} fields, got {got}")
            }
            Self::BadNumber { line, token } => {
                write!(f, "line {line}: cannot parse number from {token:?}")
            }
            Self::MissingKey(k) => write!(f, "missing key {k:?}"),
            Self::Empty => write!(f, "file contains no data"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Metadata block of `func_log.dat`.
#[derive(Debug, Clone, PartialEq)]
pub struct LogReport {
    /// Total sample volume `l`.
    pub sample_volume: u64,
    /// Mean computer time per realization, seconds. The runner times
    /// a routine shorter than 0.5 µs in blocks of calls, so below that
    /// the figure includes its own accumulate and stream positioning.
    pub mean_time_per_realization: f64,
    /// Upper bound of the absolute errors.
    pub eps_max: f64,
    /// Upper bound of the relative errors (percent).
    pub rho_max: f64,
    /// Upper bound of the sample variances.
    pub sigma2_max: f64,
    /// Number of processors that contributed.
    pub processors: usize,
    /// The "experiments" subsequence number used.
    pub seqnum: u64,
}

/// Renders `func.dat`: the matrix of sample means, one matrix row per
/// line, `%.*e`-formatted with 17 significant digits so parsing is
/// lossless.
#[must_use]
pub fn render_func(summary: &MatrixSummary) -> String {
    let mut out = String::new();
    for i in 0..summary.nrow {
        let row = &summary.means[i * summary.ncol..(i + 1) * summary.ncol];
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{v:.16e}");
        }
        out.push('\n');
    }
    out
}

/// Parses `func.dat` back into the mean matrix (row-major) and the
/// shape.
///
/// # Errors
///
/// Returns [`ParseError`] on ragged rows, unparseable numbers, or an
/// empty file.
pub fn parse_func(text: &str) -> Result<(usize, usize, Vec<f64>), ParseError> {
    let mut means = Vec::new();
    let mut ncol = None;
    let mut nrow = 0;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match ncol {
            None => ncol = Some(fields.len()),
            Some(c) if c != fields.len() => {
                return Err(ParseError::FieldCount {
                    line: lineno + 1,
                    expected: c,
                    got: fields.len(),
                })
            }
            _ => {}
        }
        for tok in fields {
            means.push(tok.parse::<f64>().map_err(|_| ParseError::BadNumber {
                line: lineno + 1,
                token: tok.to_string(),
            })?);
        }
        nrow += 1;
    }
    let ncol = ncol.ok_or(ParseError::Empty)?;
    Ok((nrow, ncol, means))
}

/// Renders `func_ci.dat`: one line per matrix entry with
/// `i j mean abs_err rel_err variance` (1-based indices as in the
/// paper's FORTRAN heritage).
#[must_use]
pub fn render_func_ci(summary: &MatrixSummary) -> String {
    let mut out = String::from("# i j mean abs_error rel_error_percent variance\n");
    for i in 0..summary.nrow {
        for j in 0..summary.ncol {
            let k = i * summary.ncol + j;
            let _ = writeln!(
                out,
                "{} {} {:.16e} {:.16e} {:.16e} {:.16e}",
                i + 1,
                j + 1,
                summary.means[k],
                summary.abs_errors[k],
                summary.rel_errors_percent[k],
                summary.variances[k],
            );
        }
    }
    out
}

/// One parsed row of `func_ci.dat`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CiRow {
    /// 1-based row index.
    pub i: usize,
    /// 1-based column index.
    pub j: usize,
    /// Sample mean.
    pub mean: f64,
    /// Absolute error.
    pub abs_error: f64,
    /// Relative error in percent.
    pub rel_error_percent: f64,
    /// Sample variance.
    pub variance: f64,
}

/// Parses `func_ci.dat`.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed lines or an empty file.
pub fn parse_func_ci(text: &str) -> Result<Vec<CiRow>, ParseError> {
    let mut rows = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 6 {
            return Err(ParseError::FieldCount {
                line: lineno + 1,
                expected: 6,
                got: fields.len(),
            });
        }
        let num = |tok: &str| -> Result<f64, ParseError> {
            tok.parse::<f64>().map_err(|_| ParseError::BadNumber {
                line: lineno + 1,
                token: tok.to_string(),
            })
        };
        let idx = |tok: &str| -> Result<usize, ParseError> {
            tok.parse::<usize>().map_err(|_| ParseError::BadNumber {
                line: lineno + 1,
                token: tok.to_string(),
            })
        };
        rows.push(CiRow {
            i: idx(fields[0])?,
            j: idx(fields[1])?,
            mean: num(fields[2])?,
            abs_error: num(fields[3])?,
            rel_error_percent: num(fields[4])?,
            variance: num(fields[5])?,
        });
    }
    if rows.is_empty() {
        return Err(ParseError::Empty);
    }
    Ok(rows)
}

/// Renders `func_log.dat` from a summary plus run metadata.
#[must_use]
pub fn render_func_log(log: &LogReport) -> String {
    format!(
        "sample_volume = {}\n\
         mean_time_per_realization_sec = {:.9e}\n\
         eps_max = {:.16e}\n\
         rho_max_percent = {:.16e}\n\
         sigma2_max = {:.16e}\n\
         processors = {}\n\
         seqnum = {}\n",
        log.sample_volume,
        log.mean_time_per_realization,
        log.eps_max,
        log.rho_max,
        log.sigma2_max,
        log.processors,
        log.seqnum,
    )
}

/// Parses `func_log.dat`.
///
/// # Errors
///
/// Returns [`ParseError::MissingKey`] if a required key is absent or
/// [`ParseError::BadNumber`] for malformed values.
pub fn parse_func_log(text: &str) -> Result<LogReport, ParseError> {
    fn lookup(text: &str, key: &'static str) -> Result<String, ParseError> {
        for line in text.lines() {
            if let Some((k, v)) = line.split_once('=') {
                if k.trim() == key {
                    return Ok(v.trim().to_string());
                }
            }
        }
        Err(ParseError::MissingKey(key))
    }
    fn numf(text: &str, key: &'static str) -> Result<f64, ParseError> {
        let tok = lookup(text, key)?;
        tok.parse::<f64>().map_err(|_| ParseError::BadNumber {
            line: 0,
            token: tok,
        })
    }
    fn numu(text: &str, key: &'static str) -> Result<u64, ParseError> {
        let tok = lookup(text, key)?;
        tok.parse::<u64>().map_err(|_| ParseError::BadNumber {
            line: 0,
            token: tok,
        })
    }
    Ok(LogReport {
        sample_volume: numu(text, "sample_volume")?,
        mean_time_per_realization: numf(text, "mean_time_per_realization_sec")?,
        eps_max: numf(text, "eps_max")?,
        rho_max: numf(text, "rho_max_percent")?,
        sigma2_max: numf(text, "sigma2_max")?,
        processors: numu(text, "processors")? as usize,
        seqnum: numu(text, "seqnum")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixAccumulator;

    fn sample_summary() -> MatrixSummary {
        let mut acc = MatrixAccumulator::new(3, 2).unwrap();
        acc.add(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        acc.add(&[2.0, 3.0, 4.0, 5.0, 6.0, 7.0]).unwrap();
        acc.add(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        acc.summary()
    }

    #[test]
    fn func_round_trip() {
        let summary = sample_summary();
        let text = render_func(&summary);
        let (nrow, ncol, means) = parse_func(&text).unwrap();
        assert_eq!((nrow, ncol), (3, 2));
        assert_eq!(means, summary.means);
    }

    #[test]
    fn func_has_one_line_per_row() {
        let text = render_func(&sample_summary());
        assert_eq!(text.lines().count(), 3);
        assert_eq!(text.lines().next().unwrap().split_whitespace().count(), 2);
    }

    #[test]
    fn func_ci_round_trip() {
        let summary = sample_summary();
        let text = render_func_ci(&summary);
        let rows = parse_func_ci(&text).unwrap();
        assert_eq!(rows.len(), 6);
        for row in &rows {
            let k = (row.i - 1) * summary.ncol + (row.j - 1);
            assert_eq!(row.mean, summary.means[k]);
            assert_eq!(row.abs_error, summary.abs_errors[k]);
            assert_eq!(row.variance, summary.variances[k]);
        }
    }

    #[test]
    fn func_log_round_trip() {
        let log = LogReport {
            sample_volume: 123_456,
            mean_time_per_realization: 7.7,
            eps_max: 0.25,
            rho_max: 3.5,
            sigma2_max: 1.75,
            processors: 8,
            seqnum: 2,
        };
        let parsed = parse_func_log(&render_func_log(&log)).unwrap();
        assert_eq!(parsed, log);
    }

    #[test]
    fn parse_func_rejects_ragged_rows() {
        let err = parse_func("1.0 2.0\n3.0\n").unwrap_err();
        assert!(matches!(err, ParseError::FieldCount { line: 2, .. }));
    }

    #[test]
    fn parse_func_rejects_garbage() {
        let err = parse_func("1.0 spam\n").unwrap_err();
        assert!(matches!(err, ParseError::BadNumber { .. }));
    }

    #[test]
    fn parse_func_rejects_empty() {
        assert_eq!(parse_func("\n  \n"), Err(ParseError::Empty));
    }

    #[test]
    fn parse_ci_skips_comments() {
        let text = "# header\n1 1 1.0 0.1 10.0 0.5\n";
        let rows = parse_func_ci(text).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].i, 1);
    }

    #[test]
    fn parse_log_reports_missing_key() {
        let err = parse_func_log("sample_volume = 5\n").unwrap_err();
        assert!(matches!(err, ParseError::MissingKey(_)));
    }

    #[test]
    fn error_display() {
        let e = ParseError::FieldCount {
            line: 3,
            expected: 6,
            got: 2,
        };
        assert!(e.to_string().contains("line 3"));
        assert!(ParseError::Empty.to_string().contains("no data"));
    }

    #[test]
    fn infinity_round_trips_through_text() {
        // Entries with zero mean have infinite relative error; the file
        // format must survive that.
        let mut acc = MatrixAccumulator::new(1, 1).unwrap();
        acc.add(&[1.0]).unwrap();
        acc.add(&[-1.0]).unwrap();
        let text = render_func_ci(&acc.summary());
        let rows = parse_func_ci(&text).unwrap();
        assert!(rows[0].rel_error_percent.is_infinite());
    }
}
