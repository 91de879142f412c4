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

/// Longest `{:.16e}` of an `f64`: `-1.2345678901234567e-308`.
const SCI_BYTES: usize = 24;

/// `POW10[k]` = 10^k: the scale factors of [`push_sci`]'s fast path.
const POW10: [u128; 39] = {
    let mut t = [1u128; 39];
    let mut k = 1;
    while k < t.len() {
        t[k] = t[k - 1] * 10;
        k += 1;
    }
    t
};

/// Two decimal digits per lookup.
const DIGIT_PAIRS: &[u8; 200] = b"00010203040506070809101112131415161718192021222324\
    25262728293031323334353637383940414243444546474849\
    50515253545556575859606162636465666768697071727374\
    75767778798081828384858687888990919293949596979899";

/// Appends `v` to `out` exactly as `write!(out, "{v:.16e}")` would:
/// seventeen significant digits, which parse back to the same bits.
///
/// ±0 and normal values in [1e-22, 1e17) take an integer path about
/// four times faster than `fmt`: with `|v| = m·2^e` and
/// `k = 16 − ⌊log10 |v|⌋` it forms `m·10^k` exactly in 192 bits, shifts
/// it right by `−e` keeping a rounding and a sticky bit, and rounds half
/// to even, as std does. Other values go through `write!` itself.
pub fn push_sci(out: &mut String, v: f64) {
    let a = v.abs();
    if a != 0.0 && !(1e-22..1e17).contains(&a) {
        let _ = write!(out, "{v:.16e}");
        return;
    }
    let (digits, exp10) = if a == 0.0 { (0, 0) } else { decimal17(a) };
    // Both minus signs are in place; a digit overwrites an unused one.
    let mut buf = [b'-'; SCI_BYTES];
    let mut n = usize::from(v.is_sign_negative());
    let (head, tail) = (digits / 100_000_000, digits % 100_000_000);
    buf[n] = b'0' + (head / 100_000_000) as u8;
    buf[n + 1] = b'.';
    write_8_digits(&mut buf[n + 2..n + 10], head % 100_000_000);
    write_8_digits(&mut buf[n + 10..n + 18], tail);
    buf[n + 18] = b'e';
    n += 19 + usize::from(exp10 < 0);
    let x = exp10.unsigned_abs() as usize;
    let exp_digits = &DIGIT_PAIRS[2 * x + usize::from(x < 10)..2 * x + 2];
    buf[n..n + exp_digits.len()].copy_from_slice(exp_digits);
    n += exp_digits.len();
    out.push_str(std::str::from_utf8(&buf[..n]).expect("the buffer holds ASCII"));
}

/// The seventeen significant digits of a normal `a` in [1e-22, 1e17),
/// as an integer in [10^16, 10^17), and its decimal exponent.
fn decimal17(a: f64) -> (u64, i32) {
    let bits = a.to_bits();
    let e = (bits >> 52) as i32 - 1075;
    let m = (bits & ((1 << 52) - 1)) | (1 << 52);
    // 2a = m·2^−s exactly, with m < 2^58 and s ≤ 125.
    let (m, s) = if e >= 0 {
        (m << (e + 1), 0)
    } else {
        (m, (-1 - e) as u32)
    };
    // ⌊log10 a⌋ or one less; 1e-22 > 10^−22 makes −22 a lower bound.
    let mut exp10 = (((e + 52) * 78_913) >> 18).max(-22);
    loop {
        // m·10^k < 2^185 as p_hi·2^64 + p_lo, k = 16 − exp10 ≤ 38.
        let t = POW10[(16 - exp10) as usize];
        let low = u128::from(m) * (t as u64 as u128);
        let (p_hi, p_lo) = (u128::from(m) * (t >> 64) + (low >> 64), low as u64);
        // q2 = ⌊2a·10^k⌋: the digits and the rounding bit.
        let (q2, sticky) = if s < 64 {
            let q2 = (p_hi << (64 - s)) as u64 | (p_lo >> s);
            (q2, p_lo & ((1 << s) - 1) != 0)
        } else {
            let q2 = (p_hi >> (s - 64)) as u64;
            (q2, p_lo != 0 || p_hi & ((1 << (s - 64)) - 1) != 0)
        };
        let q = q2 >> 1;
        if q >= 100_000_000_000_000_000 {
            exp10 += 1;
            continue;
        }
        let q = q + u64::from(q2 & 1 == 1 && (sticky || q & 1 == 1));
        return if q == 100_000_000_000_000_000 {
            (q / 10, exp10 + 1)
        } else {
            (q, exp10)
        };
    }
}

/// Writes `x < 10^8` as eight digits, zero-padded, into `dst`.
fn write_8_digits(dst: &mut [u8], mut x: u64) {
    for pair in dst.rchunks_exact_mut(2) {
        let i = 2 * (x % 100) as usize;
        pair.copy_from_slice(&DIGIT_PAIRS[i..i + 2]);
        x /= 100;
    }
}

/// Appends the decimal digits of `n`.
fn push_index(out: &mut String, mut n: usize) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while i == buf.len() || n > 0 {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("the buffer holds ASCII"));
}

/// Renders `func.dat`: the matrix of sample means, one matrix row per
/// line, `%.*e`-formatted with 17 significant digits so parsing is
/// lossless.
#[must_use]
pub fn render_func(summary: &MatrixSummary) -> String {
    let mut out = String::with_capacity(summary.means.len() * (SCI_BYTES + 1));
    for i in 0..summary.nrow {
        let row = &summary.means[i * summary.ncol..(i + 1) * summary.ncol];
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(' ');
            }
            push_sci(&mut out, *v);
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
    // Four numbers and two indices below 10^7, each with its separator.
    const LINE_BYTES: usize = 4 * (SCI_BYTES + 1) + 2 * 8;
    let mut out = String::with_capacity((summary.means.len() + 1) * LINE_BYTES);
    out.push_str("# i j mean abs_error rel_error_percent variance\n");
    for i in 0..summary.nrow {
        for j in 0..summary.ncol {
            let k = i * summary.ncol + j;
            push_index(&mut out, i + 1);
            out.push(' ');
            push_index(&mut out, j + 1);
            for v in [
                summary.means[k],
                summary.abs_errors[k],
                summary.rel_errors_percent[k],
                summary.variances[k],
            ] {
                out.push(' ');
                push_sci(&mut out, v);
            }
            out.push('\n');
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

    /// Asserts `push_sci(v)` writes std's `{:.16e}` bytes.
    fn assert_sci_is_std(v: f64) {
        let mut got = String::new();
        push_sci(&mut got, v);
        assert_eq!(got, format!("{v:.16e}"), "bits {:#018x}", v.to_bits());
    }

    fn rng() -> parmonc_rng::Lcg128 {
        parmonc_rng::Lcg128::with_state(0x5eed_2025_0000_0029)
    }

    #[test]
    fn sci_is_std_on_special_values() {
        for v in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-22,
            1e17,
            99_999_999_999_999_984.0,
            9.999_999_999_999_999e16,
        ] {
            assert_sci_is_std(v);
            assert_sci_is_std(-v);
        }
    }

    #[test]
    fn sci_is_std_on_random_bit_patterns() {
        let mut rng = rng();
        for _ in 0..10_000_000 {
            assert_sci_is_std(f64::from_bits(rng.next_u64()));
        }
    }

    #[test]
    fn sci_is_std_on_random_mantissas_at_every_exponent() {
        let mut rng = rng();
        for _ in 0..1_000_000 {
            let r = rng.next_u64();
            let exp = 1023 - 150 + r % 241; // binary exponents −150…90
            let bits = (r & (1 << 63)) | (exp << 52) | (rng.next_u64() >> 12);
            assert_sci_is_std(f64::from_bits(bits));
        }
    }

    /// m·2^−j with m odd is an exact tie at seventeen digits when
    /// m·5^(j−1)/2 lies in [10^16, 10^17). Such m < 2^53 exist for
    /// j = 2…25 only; the others' ranges are empty. Every tie is taken
    /// for j ≥ 21, about 4 000 evenly spaced ones below.
    #[test]
    fn sci_is_std_on_every_constructed_tie() {
        let mut ties = 0;
        for j in 1..=80u32 {
            let Some(p) = 5u128.checked_pow(j - 1) else {
                continue;
            };
            let lo = (2 * POW10[16]).div_ceil(p);
            let hi = (2 * POW10[17]).div_ceil(p).min(1 << 53);
            let step = (hi.saturating_sub(lo) / 4000).max(2) & !1;
            let two_to_minus_j = f64::from_bits(u64::from(1023 - j) << 52);
            let mut m = lo | 1;
            while m < hi {
                let v = m as f64 * two_to_minus_j;
                assert!(m * p >= 2 * POW10[16] && m * p < 2 * POW10[17]);
                assert_sci_is_std(v);
                assert_sci_is_std(-v);
                ties += 1;
                m += step;
            }
        }
        assert!(ties > 50_000, "{ties} ties");
    }

    #[test]
    fn sci_is_std_near_every_power_of_ten() {
        for p in -330..=308 {
            let bits = format!("1e{p}").parse::<f64>().unwrap().to_bits();
            for d in 0..=6 {
                if let Some(b) = (bits + 3).checked_sub(d) {
                    assert_sci_is_std(f64::from_bits(b));
                }
            }
        }
    }

    #[test]
    fn sci_is_std_on_integers_and_sevenths() {
        for i in 0..=2_000_000 {
            assert_sci_is_std(f64::from(i));
            assert_sci_is_std(-f64::from(i) / 7.0);
        }
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
