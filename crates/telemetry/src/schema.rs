//! The `dnc-metrics/v1` schema: shared column metadata (the single
//! source of truth for chart axis labels and JSON headers) and
//! structural validators for the two machine formats.
//!
//! A metrics document looks like:
//!
//! ```json
//! {
//!   "schema": "dnc-metrics/v1",
//!   "name": "fig4",
//!   "meta": {"scenario": "ring4"},
//!   "spans": {"curve.conv": {"count": 3, "total_ns": 3000, "mean_ns": 1000,
//!                            "max_ns": 1500, "p50_ns": 900, "p95_ns": 1500}},
//!   "counters": {"net.pairing.pairs": 2},
//!   "histograms": {"curve.conv.segments_out": {"count": 3, "min": 2, "max": 6,
//!                   "mean": 4, "p50": 4, "p95": 6, "p99": 6}},
//!   "series": [{"name": "bounds",
//!               "columns": [{"label": "work load U", "unit": ""}],
//!               "rows": [[0.5]]}]
//! }
//! ```
//!
//! Validation is structural: required keys present with the right JSON
//! types, row widths matching column counts. It deliberately does not
//! constrain which spans/counters exist — instrumentation sites may grow
//! without a schema bump.

use crate::json::{self, Value};

/// Schema identifier written into and required from every metrics JSON.
pub const SCHEMA: &str = "dnc-metrics/v1";

/// Label + unit of one series column. `unit` may be empty for
/// dimensionless quantities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Human-readable axis/column label.
    pub label: &'static str,
    /// Unit suffix (may be empty).
    pub unit: &'static str,
}

/// Workload axis: total utilisation `U` of the bottleneck server.
pub const WORK_LOAD: ColumnMeta = ColumnMeta {
    label: "work load U",
    unit: "",
};

/// Network-size axis: servers along the analysed path.
pub const NETWORK_SIZE: ColumnMeta = ColumnMeta {
    label: "network size n",
    unit: "servers",
};

/// End-to-end delay bound, in the paper's tick units.
pub const DELAY_BOUND: ColumnMeta = ColumnMeta {
    label: "end-to-end delay bound (ticks)",
    unit: "ticks",
};

/// Relative improvement of one bound over another (dimensionless ratio).
pub const REL_IMPROVEMENT: ColumnMeta = ColumnMeta {
    label: "relative improvement",
    unit: "",
};

/// Backlog bound, in the paper's cell units.
pub const BACKLOG_BOUND: ColumnMeta = ColumnMeta {
    label: "backlog bound",
    unit: "cells",
};

/// Simulated worst-case delay observed over a run.
pub const SIM_MAX_DELAY: ColumnMeta = ColumnMeta {
    label: "simulated max delay",
    unit: "ticks",
};

/// Wall-clock cost of an analysis run.
pub const WALL_TIME: ColumnMeta = ColumnMeta {
    label: "wall time",
    unit: "µs",
};

/// Free-text column (algorithm names, scenario labels, notes).
pub const LABEL: ColumnMeta = ColumnMeta {
    label: "label",
    unit: "",
};

/// Admitted-flow count (admission-control sweeps).
pub const ADMITTED: ColumnMeta = ColumnMeta {
    label: "admitted flows",
    unit: "flows",
};

/// Token-bucket burst σ.
pub const BURST: ColumnMeta = ColumnMeta {
    label: "burst σ",
    unit: "cells",
};

/// Token-bucket sustained rate ρ.
pub const SUSTAINED_RATE: ColumnMeta = ColumnMeta {
    label: "sustained rate ρ",
    unit: "cells/tick",
};

/// Tightness ratio of an exact worst case against a bound.
pub const TIGHTNESS: ColumnMeta = ColumnMeta {
    label: "tightness exact/bound",
    unit: "",
};

/// Deadline a flow declared (admission sweeps).
pub const DEADLINE: ColumnMeta = ColumnMeta {
    label: "deadline",
    unit: "ticks",
};

/// The delay-bound column ([`DELAY_BOUND`]) — kept as a function so the
/// common case reads as `schema::bound_column()` at call sites that build
/// per-algorithm variants around it.
pub fn bound_column() -> ColumnMeta {
    DELAY_BOUND
}

fn field_is_number(obj: &Value, key: &str) -> Result<(), String> {
    match obj.get(key) {
        Some(Value::Number(_)) => Ok(()),
        Some(_) => Err(format!("field `{key}` must be a number")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn field_is_string(obj: &Value, key: &str) -> Result<(), String> {
    match obj.get(key) {
        Some(Value::Str(_)) => Ok(()),
        Some(_) => Err(format!("field `{key}` must be a string")),
        None => Err(format!("missing field `{key}`")),
    }
}

/// Structurally validate a `dnc-metrics/v1` document.
///
/// Returns `Err` with a path-qualified message on the first violation.
pub fn validate_metrics(input: &str) -> Result<(), String> {
    let doc = json::parse(input).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("schema is `{s}`, expected `{SCHEMA}`")),
        None => return Err("missing string field `schema`".to_string()),
    }
    field_is_string(&doc, "name")?;

    let meta = doc
        .get("meta")
        .and_then(Value::as_object)
        .ok_or("missing object field `meta`")?;
    for (k, v) in meta {
        if v.as_str().is_none() {
            return Err(format!("meta.{k} must be a string"));
        }
    }

    let spans = doc
        .get("spans")
        .and_then(Value::as_object)
        .ok_or("missing object field `spans`")?;
    for (name, span) in spans {
        for key in ["count", "total_ns", "mean_ns", "max_ns", "p50_ns", "p95_ns"] {
            field_is_number(span, key).map_err(|e| format!("spans.{name}: {e}"))?;
        }
    }

    let counters = doc
        .get("counters")
        .and_then(Value::as_object)
        .ok_or("missing object field `counters`")?;
    for (name, v) in counters {
        if v.as_number().is_none() {
            return Err(format!("counters.{name} must be a number"));
        }
    }

    let histograms = doc
        .get("histograms")
        .and_then(Value::as_object)
        .ok_or("missing object field `histograms`")?;
    for (name, h) in histograms {
        for key in ["count", "min", "max", "mean", "p50", "p95", "p99"] {
            field_is_number(h, key).map_err(|e| format!("histograms.{name}: {e}"))?;
        }
    }

    let series = doc
        .get("series")
        .and_then(Value::as_array)
        .ok_or("missing array field `series`")?;
    for (i, s) in series.iter().enumerate() {
        field_is_string(s, "name").map_err(|e| format!("series[{i}]: {e}"))?;
        let columns = s
            .get("columns")
            .and_then(Value::as_array)
            .ok_or(format!("series[{i}]: missing array field `columns`"))?;
        for (ci, c) in columns.iter().enumerate() {
            field_is_string(c, "label").map_err(|e| format!("series[{i}].columns[{ci}]: {e}"))?;
            field_is_string(c, "unit").map_err(|e| format!("series[{i}].columns[{ci}]: {e}"))?;
        }
        let rows = s
            .get("rows")
            .and_then(Value::as_array)
            .ok_or(format!("series[{i}]: missing array field `rows`"))?;
        for (ri, row) in rows.iter().enumerate() {
            let cells = row
                .as_array()
                .ok_or(format!("series[{i}].rows[{ri}] must be an array"))?;
            if cells.len() != columns.len() {
                return Err(format!(
                    "series[{i}].rows[{ri}] has {} cells for {} columns",
                    cells.len(),
                    columns.len()
                ));
            }
            for (ci, cell) in cells.iter().enumerate() {
                match cell {
                    Value::Number(_) | Value::Str(_) | Value::Null => {}
                    _ => {
                        return Err(format!(
                            "series[{i}].rows[{ri}][{ci}] must be a number, string, or null"
                        ))
                    }
                }
            }
        }
    }
    Ok(())
}

/// Structurally validate a Chrome `trace_event` document as emitted by
/// [`crate::export::trace_json`] (complete events only).
pub fn validate_trace(input: &str) -> Result<(), String> {
    let doc = json::parse(input).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing array field `traceEvents`")?;
    for (i, e) in events.iter().enumerate() {
        field_is_string(e, "name").map_err(|err| format!("traceEvents[{i}]: {err}"))?;
        match e.get("ph").and_then(Value::as_str) {
            Some("X") => {}
            Some(ph) => return Err(format!("traceEvents[{i}]: ph is `{ph}`, expected `X`")),
            None => return Err(format!("traceEvents[{i}]: missing string field `ph`")),
        }
        for key in ["ts", "dur", "pid", "tid"] {
            field_is_number(e, key).map_err(|err| format!("traceEvents[{i}]: {err}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_wrong_schema_tag() {
        let doc = r#"{"schema": "dnc-metrics/v0", "name": "x", "meta": {},
                      "spans": {}, "counters": {}, "histograms": {}, "series": []}"#;
        let err = validate_metrics(doc).unwrap_err();
        assert!(err.contains("dnc-metrics/v0"), "{err}");
    }

    #[test]
    fn rejects_missing_sections() {
        let doc = r#"{"schema": "dnc-metrics/v1", "name": "x", "meta": {},
                      "spans": {}, "counters": {}, "series": []}"#;
        let err = validate_metrics(doc).unwrap_err();
        assert!(err.contains("histograms"), "{err}");
    }

    #[test]
    fn rejects_ragged_rows() {
        let doc = r#"{"schema": "dnc-metrics/v1", "name": "x", "meta": {},
                      "spans": {}, "counters": {}, "histograms": {},
                      "series": [{"name": "s",
                                  "columns": [{"label": "a", "unit": ""}],
                                  "rows": [[1, 2]]}]}"#;
        let err = validate_metrics(doc).unwrap_err();
        assert!(err.contains("2 cells for 1 columns"), "{err}");
    }

    #[test]
    fn rejects_bad_span_stat() {
        let doc = r#"{"schema": "dnc-metrics/v1", "name": "x", "meta": {},
                      "spans": {"s": {"count": 1}}, "counters": {},
                      "histograms": {}, "series": []}"#;
        let err = validate_metrics(doc).unwrap_err();
        assert!(err.contains("total_ns"), "{err}");
    }

    #[test]
    fn trace_requires_complete_events() {
        let ok = r#"{"traceEvents": [{"name": "a", "ph": "X", "ts": 0, "dur": 1,
                                      "pid": 1, "tid": 1}]}"#;
        validate_trace(ok).unwrap();
        let bad_ph = r#"{"traceEvents": [{"name": "a", "ph": "B", "ts": 0, "dur": 1,
                                          "pid": 1, "tid": 1}]}"#;
        assert!(validate_trace(bad_ph).is_err());
        let missing = r#"{"traceEvents": [{"name": "a", "ph": "X"}]}"#;
        assert!(validate_trace(missing).is_err());
    }

    #[test]
    fn column_constants_have_stable_labels() {
        // chart.rs renders these labels on figure axes; the strings are
        // part of the v1 schema surface and must not drift.
        assert_eq!(WORK_LOAD.label, "work load U");
        assert_eq!(DELAY_BOUND.label, "end-to-end delay bound (ticks)");
        assert_eq!(bound_column(), DELAY_BOUND);
    }
}
