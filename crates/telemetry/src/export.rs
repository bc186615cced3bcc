//! JSON and CSV renderings of a [`TelemetryReport`].
//!
//! JSON is the lossless form (`--metrics-out metrics.json`); CSV flattens
//! the scalar instruments and series points into spreadsheet-friendly rows
//! (`--metrics-out metrics.csv`).

use crate::report::TelemetryReport;

/// Pretty-printed JSON of the full report.
pub fn to_json(report: &TelemetryReport) -> String {
    serde_json::to_string_pretty(report).expect("telemetry report serializes")
}

/// Quotes a CSV field when it contains a comma, quote, or newline
/// (RFC 4180: embedded quotes double).
pub fn escape_csv(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// CSV of every instrument, one row per scalar / bucket / point / event:
/// `kind,name,t_ns,key,value`.
pub fn to_csv(report: &TelemetryReport) -> String {
    let mut out = String::from("kind,name,t_ns,key,value\n");
    let mut row = |kind: &str, name: &str, t_ns: &str, key: &str, value: String| {
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            kind,
            escape_csv(name),
            t_ns,
            escape_csv(key),
            escape_csv(&value)
        ));
    };
    for c in &report.counters {
        row("counter", &c.name, "", "", format!("{}", c.value));
    }
    for g in &report.gauges {
        row("gauge", &g.name, "", "", format!("{}", g.value));
    }
    for h in &report.histograms {
        for (i, count) in h.counts.iter().enumerate() {
            let key = match h.bounds.get(i) {
                Some(b) => format!("le={b}"),
                None => "overflow".to_string(),
            };
            row("histogram", &h.name, "", &key, count.to_string());
        }
        row("histogram", &h.name, "", "total", h.total.to_string());
    }
    for s in &report.series {
        for &(t, v) in &s.points {
            row("series", &s.name, &t.to_string(), "", format!("{v}"));
        }
    }
    for e in &report.events {
        row(
            "event",
            &e.name,
            &e.t_ns.to_string(),
            &e.detail,
            String::new(),
        );
    }
    for s in &report.spans {
        let end = s.end_ns.map(|e| e.to_string()).unwrap_or_default();
        row("span", &s.name, &s.start_ns.to_string(), "end_ns", end);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn demo_report() -> TelemetryReport {
        let mut r = Registry::default();
        let c = r.counter("pkts");
        r.counter_add(c, 3);
        let h = r.histogram("lat", vec![10, 100]);
        r.hist_record(h, 7);
        r.hist_record(h, 500);
        let s = r.series("depth");
        r.series_push(s, 0, 1.0);
        r.series_push(s, 200_000, 2.0);
        r.tracer().event(5, "note", "a \"quoted\", detail".into());
        r.snapshot()
    }

    #[test]
    fn escape_csv_quotes_specials() {
        assert_eq!(escape_csv("plain"), "plain");
        assert_eq!(escape_csv("a,b"), "\"a,b\"");
        assert_eq!(escape_csv("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(escape_csv("line\nbreak"), "\"line\nbreak\"");
        assert_eq!(escape_csv(""), "");
    }

    #[test]
    fn csv_rows_cover_every_instrument_kind() {
        let csv = to_csv(&demo_report());
        assert!(csv.starts_with("kind,name,t_ns,key,value\n"));
        assert!(csv.contains("counter,pkts,,,3"));
        assert!(csv.contains("histogram,lat,,le=10,1"));
        assert!(csv.contains("histogram,lat,,overflow,1"));
        assert!(csv.contains("histogram,lat,,total,2"));
        assert!(csv.contains("series,depth,0,,1"));
        assert!(csv.contains("series,depth,200000,,2"));
        // The event detail contains a comma and quotes: must arrive escaped.
        assert!(csv.contains("event,note,5,\"a \"\"quoted\"\", detail\","));
    }

    #[test]
    fn json_is_parseable_structure() {
        let json = to_json(&demo_report());
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"pkts\""));
        assert!(json.contains("\"series\""));
        // Round-trips through the vendored parser as a sanity check.
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        match v {
            serde::Value::Map(entries) => {
                assert!(entries.iter().any(|(k, _)| k == "histograms"));
            }
            other => panic!("expected a JSON object, got {other:?}"),
        }
    }
}
