//! The wire protocol: one JSON document per LF-terminated line, in both
//! directions.
//!
//! ## Grammar
//!
//! ```text
//! request  = { "id": uint, "study": study-request }
//!          | { "id": uint, "stats": true }
//!          | { "id": uint, "recall": { "key": hex, "config_hash": uint } }
//! response = { "id": uint, "ok":    study-response }
//!          | { "id": uint, "stats": stats-report }
//!          | { "id": uint, "err":   string }
//!          | { "id": uint, "busy":  { "retry_after_ms": uint,
//!                                     "queue_depth": uint } }
//!          | { "id": uint, "record": hex | null }
//! ```
//!
//! The `recall` kind is the fleet's one request: its payload shape,
//! `record` reply line, and parsers live in [`fleet::wire`] (shared with
//! the fleet's peer client); this module only recognizes the field name
//! and delegates. It is answered inline by the connection thread —
//! serving bytes out of the run store never waits behind queued
//! simulator work.
//!
//! `study-request` is exactly the value shape
//! `#[derive(Serialize)]` emits for [`StudyRequest`] (externally tagged:
//! `{"Compare": {"benchmark": "Gzip", ...}}`), so the wire format needs no
//! schema beyond the Rust types; [`StudyRequest::from_value`] is the
//! parser. `id` is a client-chosen correlation number echoed verbatim on
//! the response line — responses to pipelined requests may arrive out of
//! order. Unparseable lines are answered with `id` 0 (the id cannot be
//! trusted) and the connection stays open; lines longer than
//! [`MAX_LINE_BYTES`] are answered with an error and the connection is
//! closed, since the framing can no longer be trusted.

use serde::{Serialize, Value};
use simcore::{StudyRequest, StudyResponse};

use crate::stats::StatsReport;

/// Hard cap on one request line, bytes (LF terminator included). A sweep
/// over hundreds of intervals fits in a few KiB; anything near this limit
/// is a framing error or abuse, not a study.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How long a `busy` response tells the client to wait before retrying,
/// milliseconds. One queue slot drains in well under this at test sizes;
/// real figure requests take longer, so clients should treat it as a
/// lower bound.
pub const RETRY_AFTER_MS: u64 = 50;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen correlation id, echoed on the response line.
    pub id: u64,
    /// The payload.
    pub request: WireRequest,
}

/// The request alternatives one line can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Execute one study request on the worker pool.
    Study(StudyRequest),
    /// Report server observability counters; answered inline by the
    /// connection thread, never queued.
    Stats,
    /// A fleet record recall; answered inline from the run store.
    Fleet(fleet::FleetRequest),
}

/// A parsed response line, client side.
#[derive(Debug, Clone, PartialEq)]
pub enum WireReply {
    /// The served [`StudyResponse`], as its raw serialized value.
    Ok(Value),
    /// A [`StatsReport`], as its raw serialized value.
    Stats(Value),
    /// The request failed; human-readable reason.
    Err(String),
    /// The job queue was full; retry after the named delay.
    Busy {
        /// Suggested client-side delay before resending, milliseconds.
        retry_after_ms: u64,
        /// Queue depth observed at rejection time.
        queue_depth: u64,
    },
}

/// The shim's [`Value`] does not implement [`Serialize`] itself; this
/// wrapper renders one verbatim.
struct Raw(Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Renders `{"id": id, key: payload}` as one LF-terminated line.
fn envelope_line(id: u64, key: &str, payload: Value) -> String {
    let value = Value::Object(vec![
        ("id".to_string(), Value::UInt(id)),
        (key.to_string(), payload),
    ]);
    match serde_json::to_string(&Raw(value)) {
        Ok(mut s) => {
            s.push('\n');
            s
        }
        // The shim serializer is total over the Value domain; this arm
        // exists so a future non-total serializer degrades to a protocol
        // error instead of a panic inside the server.
        Err(_) => format!("{{\"id\":{id},\"err\":\"response serialization failed\"}}\n"),
    }
}

/// The response line for a successfully served request.
pub fn ok_line(id: u64, response: &StudyResponse) -> String {
    envelope_line(id, "ok", response.to_value())
}

/// The response line for a failed request. The message is rendered as a
/// JSON string, so it may carry anything [`std::fmt::Display`] produced.
pub fn err_line(id: u64, message: &str) -> String {
    envelope_line(id, "err", Value::Str(message.to_string()))
}

/// The response line for a request rejected by queue backpressure.
pub fn busy_line(id: u64, retry_after_ms: u64, queue_depth: usize) -> String {
    envelope_line(
        id,
        "busy",
        Value::Object(vec![
            ("retry_after_ms".to_string(), Value::UInt(retry_after_ms)),
            ("queue_depth".to_string(), Value::UInt(queue_depth as u64)),
        ]),
    )
}

/// The response line for a stats request.
pub fn stats_line(id: u64, report: &StatsReport) -> String {
    envelope_line(id, "stats", report.to_value())
}

/// The request line submitting `request` under correlation id `id`
/// (client side).
pub fn study_line(id: u64, request: &StudyRequest) -> String {
    envelope_line(id, "study", request.to_value())
}

/// The request line asking for a stats report (client side).
pub fn stats_request_line(id: u64) -> String {
    envelope_line(id, "stats", Value::Bool(true))
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable description of the first problem; the server
/// forwards it verbatim in an `err` response.
pub fn parse_line(line: &str) -> Result<Envelope, String> {
    let v = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
    parse_value(&v)
}

/// Parses one request line already decoded to a [`Value`].
///
/// # Errors
///
/// As [`parse_line`].
pub fn parse_value(v: &Value) -> Result<Envelope, String> {
    let fields = match v {
        Value::Object(fields) => fields,
        _ => return Err("request line must be a JSON object".to_string()),
    };
    let mut id = None;
    let mut study = None;
    let mut stats = false;
    let mut fleet_request = None;
    for (key, val) in fields {
        match key.as_str() {
            "id" => match val {
                Value::UInt(u) => id = Some(*u),
                _ => return Err("field \"id\" must be a non-negative integer".to_string()),
            },
            "study" => study = Some(StudyRequest::from_value(val)?),
            "stats" => match val {
                Value::Bool(true) => stats = true,
                _ => return Err("field \"stats\" must be the literal true".to_string()),
            },
            other => match fleet::wire::parse_request_field(key, val) {
                Some(parsed) => {
                    if fleet_request.replace(parsed?).is_some() {
                        return Err("request carries more than one fleet kind".to_string());
                    }
                }
                None => return Err(format!("unknown field {other:?}")),
            },
        }
    }
    let id = id.ok_or_else(|| "missing field \"id\"".to_string())?;
    match (study, stats, fleet_request) {
        (Some(request), false, None) => Ok(Envelope {
            id,
            request: WireRequest::Study(request),
        }),
        (None, true, None) => Ok(Envelope {
            id,
            request: WireRequest::Stats,
        }),
        (None, false, Some(request)) => Ok(Envelope {
            id,
            request: WireRequest::Fleet(request),
        }),
        _ => Err(
            "request must carry exactly one of \"study\", \"stats\", or a fleet kind".to_string(),
        ),
    }
}

/// Parses one response line into its correlation id and payload
/// (client side).
///
/// # Errors
///
/// Returns a description of the mismatch if the line is not one of the
/// four response shapes.
pub fn parse_reply(line: &str) -> Result<(u64, WireReply), String> {
    let v = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let fields = match &v {
        Value::Object(fields) => fields,
        _ => return Err("response line must be a JSON object".to_string()),
    };
    let mut id = None;
    let mut reply = None;
    for (key, val) in fields {
        match key.as_str() {
            "id" => match val {
                Value::UInt(u) => id = Some(*u),
                _ => return Err("field \"id\" must be a non-negative integer".to_string()),
            },
            "ok" => reply = Some(WireReply::Ok(val.clone())),
            "stats" => reply = Some(WireReply::Stats(val.clone())),
            "err" => match val {
                Value::Str(s) => reply = Some(WireReply::Err(s.clone())),
                _ => return Err("field \"err\" must be a string".to_string()),
            },
            "busy" => {
                let retry = busy_field(val, "retry_after_ms")?;
                let depth = busy_field(val, "queue_depth")?;
                reply = Some(WireReply::Busy {
                    retry_after_ms: retry,
                    queue_depth: depth,
                });
            }
            other => return Err(format!("unknown response field {other:?}")),
        }
    }
    match (id, reply) {
        (Some(id), Some(reply)) => Ok((id, reply)),
        _ => Err("response must carry \"id\" and one payload field".to_string()),
    }
}

fn busy_field(v: &Value, name: &str) -> Result<u64, String> {
    let fields = match v {
        Value::Object(fields) => fields,
        _ => return Err("field \"busy\" must be an object".to_string()),
    };
    fields
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| match v {
            Value::UInt(u) => Some(*u),
            _ => None,
        })
        .ok_or_else(|| format!("busy response missing numeric {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakctl::TechniqueKind;
    use specgen::Benchmark;

    fn sample() -> StudyRequest {
        StudyRequest::Compare {
            benchmark: Benchmark::Gzip,
            technique: TechniqueKind::Drowsy,
            interval: 2048,
            l2_latency: 11,
            temperature_c: 110.0,
        }
    }

    #[test]
    fn request_lines_round_trip() {
        let line = study_line(7, &sample());
        assert!(line.ends_with('\n'));
        let env = parse_line(line.trim()).expect("parses");
        assert_eq!(env.id, 7);
        assert_eq!(env.request, WireRequest::Study(sample()));

        let line = stats_request_line(9);
        let env = parse_line(line.trim()).expect("parses");
        assert_eq!(env.id, 9);
        assert_eq!(env.request, WireRequest::Stats);
    }

    #[test]
    fn reply_lines_round_trip() {
        let (id, reply) = parse_reply(err_line(3, "no such benchmark").trim()).expect("parses");
        assert_eq!(id, 3);
        assert_eq!(reply, WireReply::Err("no such benchmark".to_string()));

        let (id, reply) = parse_reply(busy_line(4, 50, 8).trim()).expect("parses");
        assert_eq!(id, 4);
        assert_eq!(
            reply,
            WireReply::Busy {
                retry_after_ms: 50,
                queue_depth: 8
            }
        );
    }

    #[test]
    fn fleet_request_fields_parse_through_the_shared_codec() {
        // The very line the fleet peer client renders must parse into a
        // Fleet envelope here — one codec, two ends.
        let recall = fleet::FleetRequest::Recall {
            key: b"key-bytes".to_vec(),
            config_hash: 7,
        };
        let env = parse_line(fleet::wire::request_line(11, &recall).trim()).expect("parses");
        assert_eq!(env.id, 11);
        assert_eq!(env.request, WireRequest::Fleet(recall));

        let recall = r#""recall": {"key": "00", "config_hash": 1}"#;
        for line in [
            format!(r#"{{"id": 1, "stats": true, {recall}}}"#),
            format!(r#"{{"id": 1, {recall}, {recall}}}"#),
        ] {
            let err = parse_line(&line).expect_err(&line);
            assert!(
                err.contains("exactly one") || err.contains("more than one"),
                "{line}: {err}"
            );
        }
    }

    #[test]
    fn malformed_request_lines_are_described_not_panicked() {
        for (line, needle) in [
            ("not json at all", "invalid JSON"),
            ("[1, 2]", "must be a JSON object"),
            (r#"{"study": {"Gzip": {}}}"#, "unknown request kind"),
            (r#"{"stats": true}"#, "missing field \"id\""),
            (r#"{"id": -1, "stats": true}"#, "non-negative"),
            (r#"{"id": 1}"#, "exactly one of"),
            (r#"{"id": 1, "stats": false}"#, "literal true"),
            (r#"{"id": 1, "frobnicate": true}"#, "unknown field"),
            // Segment-shipping kinds an older fleet peer may still send.
            (r#"{"id": 1, "inventory": true}"#, "unknown field"),
            (
                r#"{"id": 1, "segment": "seg-0000000000000001-00000001.runs"}"#,
                "unknown field",
            ),
            (
                r#"{"id": 1, "study": {"Compare": {}}, "stats": true}"#,
                "missing field",
            ),
        ] {
            let err = parse_line(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }
}
