//! Schema validation for `run_metrics.jsonl` lines.
//!
//! [`validate_line`] parses one emitted line with a tiny flat-JSON
//! reader (the wire format is deliberately flat: string, number and
//! `null` values only) and checks it against the documented schema —
//! version, kind discriminator, required fields, field types, and no
//! unknown fields — by decoding it with the table `event.rs` declares.
//! Tests use it to prove that what the runner writes is exactly what
//! `docs/observability.md` promises.

use crate::event::{Event, KINDS, SCHEMA_VERSION};
use crate::wire::{Fields, Value};

/// Parses a single flat JSON object (`{"key":value,...}`) with string,
/// number and `null` values. Returns key/value pairs in order.
fn parse_flat_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let s = line.trim();
    let mut chars = s.char_indices().peekable();
    let err = |msg: &str, at: usize| format!("{msg} at byte {at} in {s:?}");
    // Reads a string on from its (consumed) opening quote at `open`.
    let string = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>, open| {
        let mut text = String::new();
        loop {
            let (i, c) = chars
                .next()
                .ok_or_else(|| err("unterminated string", open))?;
            match c {
                '"' => return Ok::<_, String>(text),
                '\\' => text.push(chars.next().ok_or_else(|| err("bad escape", i))?.1),
                _ => text.push(c),
            }
        }
    };

    let mut pairs = Vec::new();
    match chars.next() {
        Some((_, '{')) => {}
        other => return Err(err("expected '{'", other.map_or(0, |(i, _)| i))),
    }
    if let Some(&(_, '}')) = chars.peek() {
        chars.next();
    } else {
        loop {
            let (ki, kc) = chars.next().ok_or_else(|| err("unterminated object", 0))?;
            if kc != '"' {
                return Err(err("expected '\"' starting key", ki));
            }
            let key = string(&mut chars, ki)?;
            match chars.next() {
                Some((_, ':')) => {}
                other => return Err(err("expected ':'", other.map_or(0, |(i, _)| i))),
            }
            let (vi, vc) = chars.next().ok_or_else(|| err("missing value", 0))?;
            let value = match vc {
                '"' => Value::Str(string(&mut chars, vi)?),
                'n' => {
                    for expected in ['u', 'l', 'l'] {
                        match chars.next() {
                            Some((_, c)) if c == expected => {}
                            _ => return Err(err("bad literal", vi)),
                        }
                    }
                    Value::Null
                }
                c if c == '-' || c.is_ascii_digit() => {
                    let mut text = String::from(c);
                    while let Some(&(_, c)) = chars.peek() {
                        if c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-') {
                            text.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    Value::Num(text.parse::<f64>().map_err(|_| err("bad number", vi))?)
                }
                _ => return Err(err("unsupported value (schema is flat)", vi)),
            };
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?} in {s:?}"));
            }
            pairs.push((key, value));
            match chars.next() {
                Some((_, ',')) => {}
                Some((_, '}')) => break,
                other => return Err(err("expected ',' or '}'", other.map_or(0, |(i, _)| i))),
            }
        }
    }
    if let Some((i, _)) = chars.next() {
        return Err(err("trailing characters", i));
    }
    Ok(pairs)
}

/// The fields every line may carry besides its kind's own.
const ENVELOPE: [&str; 5] = ["v", "kind", "time_s", "raw_time_s", "rank"];

/// Validates one `run_metrics.jsonl` line against schema version
/// [`SCHEMA_VERSION`], returning the event kind name on success.
///
/// # Errors
///
/// Describes the first problem found: malformed JSON, wrong version,
/// unknown kind, missing/ill-typed field, or an unknown field.
///
/// # Examples
///
/// ```
/// use parmonc_obs::schema::validate_line;
///
/// let kind = validate_line(r#"{"v":2,"kind":"queue_high_water","time_s":0.5,"rank":0,"depth":3}"#)
///     .unwrap();
/// assert_eq!(kind, "queue_high_water");
/// assert!(validate_line(r#"{"v":2,"kind":"queue_high_water","time_s":0.5}"#).is_err());
/// ```
pub fn validate_line(line: &str) -> Result<&'static str, String> {
    parse_line(line).map(|event| event.kind.name())
}

/// Decodes one `run_metrics.jsonl` line back into an [`Event`] — the
/// inverse of [`Event::to_json_line`], used by post-hoc trace tooling
/// (`parmonc-trace`). Decoding *is* validation — one parse, one walk
/// over the kind's declared fields — so a successful decode is
/// guaranteed to be a faithful round-trip (up to non-finite floats,
/// which the wire encodes as `null` and the decoder reads back as `NaN`
/// for required fields / `None` for optional ones), and this rejects
/// exactly what [`validate_line`] rejects.
///
/// # Errors
///
/// Any [`validate_line`] error.
///
/// # Examples
///
/// ```
/// use parmonc_obs::schema::parse_line;
/// use parmonc_obs::EventKind;
///
/// let event = parse_line(
///     r#"{"v":2,"kind":"queue_high_water","time_s":0.5,"rank":0,"depth":3}"#,
/// )
/// .unwrap();
/// assert_eq!(event.kind, EventKind::QueueHighWater { depth: 3 });
/// ```
pub fn parse_line(line: &str) -> Result<Event, String> {
    let pairs = parse_flat_object(line)?;
    let get = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);

    match get("v") {
        Some(Value::Num(n)) if *n == SCHEMA_VERSION as f64 => {}
        Some(Value::Num(n)) => {
            return Err(format!(
                "schema version {n} is not read: \"v\" must be {SCHEMA_VERSION}"
            ))
        }
        Some(_) => return Err(format!("\"v\" must be {SCHEMA_VERSION}")),
        None => return Err("missing \"v\"".into()),
    }
    let Some(Value::Str(kind)) = get("kind") else {
        return Err("missing or non-string \"kind\"".into());
    };
    let spec = KINDS
        .iter()
        .find(|spec| spec.name == kind)
        .ok_or_else(|| format!("unknown kind {kind:?}"))?;
    let fields = Fields {
        kind: spec.name,
        pairs: &pairs,
    };
    let event = Event {
        time_s: fields.take("time_s", None)?,
        rank: fields.take("rank", None)?,
        raw_time_s: fields.take("raw_time_s", None)?,
        kind: (spec.decode)(&fields)?,
    };
    match pairs
        .iter()
        .find(|(key, _)| !ENVELOPE.contains(&&**key) && !spec.fields.contains(&&**key))
    {
        Some((key, _)) => Err(format!("kind {kind:?} has unknown field {key:?}")),
        None => Ok(event),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind, RunMode};

    fn line(kind: EventKind) -> String {
        Event::at(0.25, Some(1), kind).to_json_line()
    }

    /// Stamps a sample payload with the bare envelope (even rows) or
    /// the full one (odd rows), so a kind's row 0 is its required-only
    /// form and its row 1 the all-optionals form.
    fn stamp((row, kind): (usize, &EventKind)) -> Event {
        Event {
            time_s: 0.25 + row as f64,
            rank: (row % 2 == 1).then_some(row),
            raw_time_s: (row % 2 == 1).then_some(7.5),
            kind: kind.clone(),
        }
    }

    /// Every value of every vocabulary, in every kind that carries it —
    /// and both forms of every kind — survives `to_json_line` →
    /// `validate_line` → `parse_line` unchanged.
    #[test]
    fn every_sample_round_trips() {
        for kind in crate::event::samples() {
            for (field, vocab) in &kind.fields {
                for name in *vocab {
                    let carried = format!("\"{field}\":\"{name}\"");
                    assert!(
                        kind.rows
                            .iter()
                            .any(|row| line(row.clone()).contains(&carried)),
                        "no {} sample carries {carried}",
                        kind.name
                    );
                }
            }
            for event in kind.rows.iter().enumerate().map(stamp) {
                let encoded = event.to_json_line();
                assert_eq!(
                    validate_line(&encoded).as_deref(),
                    Ok(kind.name),
                    "line: {encoded}"
                );
                assert_eq!(parse_line(&encoded).as_ref(), Ok(&event), "line: {encoded}");
            }
        }
    }

    /// The wire is byte-identical to what schema version 1 wrote, but
    /// for the version: the fixture is the version-1 one with `"v":2`,
    /// without the retired `collector_segment` lines, and with the
    /// retired `"simcluster"` mode spelled `"threads"`. The encoder
    /// writes exactly these lines — both forms of every kind, in
    /// schema order — and a new kind must add its forms here.
    #[test]
    fn encoder_matches_the_golden_lines() {
        let golden = include_str!("../tests/golden/events_v2.jsonl");
        let forms: Vec<String> = crate::event::samples()
            .iter()
            .flat_map(|kind| kind.rows[..2].iter().enumerate().map(stamp))
            .map(|event| event.to_json_line())
            .collect();
        assert_eq!(golden.lines().collect::<Vec<_>>(), forms);
        for line in golden.lines() {
            assert!(validate_line(line).is_ok(), "rejected: {line}");
        }
    }

    /// Version 1 is retired: every line of its fixture is refused,
    /// with an error that names the version it carries.
    #[test]
    fn version_1_lines_are_refused_by_version() {
        let retired = include_str!("../tests/golden/events_v1.jsonl");
        assert_eq!(retired.lines().count(), 2 * 23, "version 1 had 23 kinds");
        for line in retired.lines() {
            let err = validate_line(line).expect_err(line);
            assert!(err.contains("schema version 1 "), "{err}");
        }
    }

    /// `docs/observability.md` documents what the table declares: an
    /// entry per kind whose field table names every field, with every
    /// vocabulary value in the row of the field that carries it.
    #[test]
    fn docs_describe_every_kind_field_and_vocabulary_value() {
        let docs = include_str!("../../../docs/observability.md");
        for kind in crate::event::samples() {
            let heading = format!("**`{}`**", kind.name);
            let entry = docs
                .split_once(&heading)
                .unwrap_or_else(|| panic!("no {heading} entry"))
                .1;
            // An entry runs to the next kind's entry or section heading.
            let end = ["\n**`", "\n#"]
                .iter()
                .filter_map(|stop| entry.find(stop))
                .min();
            let entry = &entry[..end.unwrap_or(entry.len())];
            for (field, vocab) in &kind.fields {
                let row = entry
                    .lines()
                    .find(|row| row.starts_with('|') && row.contains(&format!("`{field}`")))
                    .unwrap_or_else(|| panic!("{heading} has no row for `{field}`"));
                for name in *vocab {
                    assert!(
                        row.contains(&format!("\"{name}\"")) || row.contains(&format!("`{name}`")),
                        "{heading}: the `{field}` row does not list {name}"
                    );
                }
            }
        }
    }

    #[test]
    fn raw_time_round_trips_on_any_kind() {
        let event = Event {
            time_s: 1.5,
            rank: Some(2),
            raw_time_s: Some(7.25),
            kind: EventKind::Realizations {
                completed: 10,
                compute_seconds: 0.5,
            },
        };
        let encoded = event.to_json_line();
        assert_eq!(validate_line(&encoded), Ok("realizations"));
        assert_eq!(parse_line(&encoded).unwrap(), event);
    }

    #[test]
    fn parse_line_rejects_what_validate_rejects() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line(r#"{"v":2,"kind":"mystery","time_s":0}"#).is_err());
    }

    #[test]
    fn transport_label_round_trips() {
        let event = Event::at(
            0.0,
            None,
            EventKind::RunStarted {
                mode: RunMode::Threads,
                processors: 4,
                max_sample_volume: 100,
                seqnum: Some(0),
                nrow: Some(1),
                ncol: Some(1),
                transport: Some(crate::event::RunTransport::Processes),
            },
        );
        let encoded = event.to_json_line();
        assert_eq!(validate_line(&encoded), Ok("run_started"));
        assert_eq!(parse_line(&encoded).unwrap(), event);
    }

    #[test]
    fn null_floats_validate() {
        let encoded = line(EventKind::SavePoint {
            volume: 1,
            duration_seconds: f64::NAN,
        });
        assert!(encoded.contains("null"));
        assert_eq!(validate_line(&encoded), Ok("save_point"));
    }

    #[test]
    fn rejects_bad_lines() {
        for (bad, why) in [
            ("not json", "malformed"),
            (
                r#"{"v":1,"kind":"queue_high_water","time_s":0,"depth":1}"#,
                "retired version",
            ),
            (
                r#"{"v":3,"kind":"queue_high_water","time_s":0,"depth":1}"#,
                "future version",
            ),
            (
                r#"{"v":"2","kind":"queue_high_water","time_s":0,"depth":1}"#,
                "non-numeric version",
            ),
            (r#"{"v":2,"kind":"mystery","time_s":0}"#, "unknown kind"),
            (
                r#"{"v":2,"kind":"queue_high_water","time_s":0}"#,
                "missing field",
            ),
            (
                r#"{"v":2,"kind":"queue_high_water","time_s":0,"depth":-1}"#,
                "negative uint",
            ),
            (
                r#"{"v":2,"kind":"queue_high_water","time_s":0,"depth":1,"extra":2}"#,
                "unknown field",
            ),
            (
                r#"{"v":2,"kind":"run_started","time_s":0,"mode":"simcluster","processors":1,"max_sample_volume":1}"#,
                "retired mode",
            ),
            (
                r#"{"v":2,"kind":"queue_high_water","time_s":0,"depth":1,"depth":1}"#,
                "duplicate key",
            ),
            (
                r#"{"v":2,"kind":"fault_injected","time_s":0,"fault":"gremlin"}"#,
                "unknown fault name",
            ),
            (
                r#"{"v":2,"kind":"run_started","time_s":0,"mode":"threads","processors":1,"max_sample_volume":1,"transport":"telepathy"}"#,
                "unknown transport name",
            ),
            (
                r#"{"v":2,"kind":"span_started","time_s":0,"rank":1,"span":3,"phase":"daydreaming"}"#,
                "unknown span phase",
            ),
            (
                r#"{"v":2,"kind":"realizations","time_s":0,"raw_time_s":"later","rank":1,"completed":1,"compute_seconds":0}"#,
                "non-numeric raw_time_s",
            ),
        ] {
            assert!(validate_line(bad).is_err(), "should reject ({why}): {bad}");
        }
    }

    #[test]
    fn parser_handles_empty_object() {
        // Empty objects parse but fail validation (missing "v").
        assert!(parse_flat_object("{}").unwrap().is_empty());
        assert!(validate_line("{}").is_err());
    }
}
