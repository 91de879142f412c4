//! Named metrics and the JSON the benchmark prints (no serializer crate
//! is available offline, and the shapes are tiny).

use crate::Res;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` spells it.
    pub name: &'static str,
    /// Unit, as `BENCHMARK.json` spells it.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric; the value must be a finite number to be printable.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
///
/// # Errors
///
/// A NaN or infinite value: JSON cannot carry it, and it would mean a
/// measurement went wrong.
pub fn metrics_json(metrics: &[Metric]) -> Res<String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}, not a finite number", m.name, m.value).into());
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

/// A JSON array of numbers.
pub fn numbers_json(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", items.join(", "))
}

/// A JSON array of strings (quotes and backslashes escaped, control
/// characters dropped).
pub fn strings_json(values: &[String]) -> String {
    let mut items = Vec::with_capacity(values.len());
    for value in values {
        let mut item = String::from('"');
        for c in value.chars().filter(|c| !c.is_control()) {
            if c == '"' || c == '\\' {
                item.push('\\');
            }
            item.push(c);
        }
        item.push('"');
        items.push(item);
    }
    format!("[{}]", items.join(", "))
}

/// The result line the driver reads: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Res<String> {
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(metrics)?
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let metrics = [
            Metric::new("realizations_per_s", "1/s", 2.5e6),
            Metric::new("setup_s", "s", 1.25e-7),
        ];
        assert_eq!(
            result_line(31, 0, &metrics).unwrap(),
            "{\"correct\": true, \"attempted\": 31, \"failed\": 0, \"metrics\": \
             {\"realizations_per_s\": {\"value\": 2500000.0, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 1.25e-7, \"unit\": \"s\"}}}"
        );
        assert!(result_line(31, 2, &metrics)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_nan_metric_is_an_error_not_a_line() {
        assert!(metrics_json(&[Metric::new("x", "s", f64::NAN)]).is_err());
        assert!(metrics_json(&[Metric::new("x", "s", f64::INFINITY)]).is_err());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            strings_json(&["a \"b\"\n\\".to_string()]),
            "[\"a \\\"b\\\"\\\\\"]"
        );
        assert_eq!(numbers_json(&[1.0, 0.5]), "[1.0, 0.5]");
    }
}
