//! The fleet wire codec: request and response lines for remote recall,
//! in the same one-JSON-document-per-LF-line framing (and the same
//! `{"id": …, <kind>: …}` envelope) as the `studyd` protocol — the
//! server answers these from the very connections that carry study
//! requests.
//!
//! ## Grammar
//!
//! ```text
//! request  = { "id": uint, "recall": { "key": hex, "config_hash": uint } }
//! response = { "id": uint, "record": hex | null }
//!          | { "id": uint, "err":    string }
//! ```
//!
//! `hex` is lowercase hex of opaque bytes ([`crate::hex`]): the full
//! canonical key bytes in a recall request, one whole encoded record
//! (header + key + payload) in a `record` response. Shipping the
//! *encoded record* rather than the payload is what lets the requesting
//! side run the store's own checksum and key verification before
//! trusting a byte of it.

use serde::{Serialize, Value};

use crate::hex;

/// One fleet request a peer can serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetRequest {
    /// Recall one record by content address: the full canonical key
    /// bytes plus the config hash (the key hash is derived, never
    /// trusted from the wire).
    Recall {
        /// Canonical key bytes.
        key: Vec<u8>,
        /// Simulator-config hash scoping the record.
        config_hash: u64,
    },
}

/// One parsed fleet response (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetReply {
    /// The raw encoded record, or `None` for a peer-side miss.
    Record(Option<Vec<u8>>),
    /// The peer refused (e.g. it has no store attached).
    Err(String),
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
        // The shim serializer is total over the Value domain; degrade to
        // a protocol error instead of panicking if that ever changes.
        Err(_) => format!("{{\"id\":{id},\"err\":\"response serialization failed\"}}\n"),
    }
}

/// The request line submitting `request` under correlation id `id`
/// (client side).
pub fn request_line(id: u64, request: &FleetRequest) -> String {
    match request {
        FleetRequest::Recall { key, config_hash } => envelope_line(
            id,
            "recall",
            Value::Object(vec![
                ("key".to_string(), Value::Str(hex::encode(key))),
                ("config_hash".to_string(), Value::UInt(*config_hash)),
            ]),
        ),
    }
}

/// The response line answering a recall (server side).
pub fn record_line(id: u64, record: Option<&[u8]>) -> String {
    let payload = match record {
        Some(bytes) => Value::Str(hex::encode(bytes)),
        None => Value::Null,
    };
    envelope_line(id, "record", payload)
}

/// The response line for a refused fleet request (server side).
pub fn err_line(id: u64, message: &str) -> String {
    envelope_line(id, "err", Value::Str(message.to_string()))
}

/// Parses the payload of one fleet request field. Returns `None` if
/// `key` is not a fleet request kind at all — the `studyd` parser uses
/// this to extend its envelope grammar without knowing the shapes.
///
/// The inner `Err` carries a human-readable description, forwarded
/// verbatim in an `err` response.
pub fn parse_request_field(key: &str, val: &Value) -> Option<Result<FleetRequest, String>> {
    match key {
        "recall" => Some(parse_recall(val)),
        _ => None,
    }
}

fn parse_recall(v: &Value) -> Result<FleetRequest, String> {
    let fields = match v {
        Value::Object(fields) => fields,
        _ => return Err("field \"recall\" must be an object".to_string()),
    };
    let mut key = None;
    let mut config_hash = None;
    for (name, val) in fields {
        match name.as_str() {
            "key" => match val {
                Value::Str(s) => {
                    key = Some(hex::decode(s).ok_or("recall \"key\" must be hex bytes")?);
                }
                _ => return Err("recall \"key\" must be a hex string".to_string()),
            },
            "config_hash" => match val {
                Value::UInt(u) => config_hash = Some(*u),
                _ => {
                    return Err("recall \"config_hash\" must be a non-negative integer".to_string())
                }
            },
            other => return Err(format!("unknown recall field {other:?}")),
        }
    }
    match (key, config_hash) {
        (Some(key), Some(config_hash)) => Ok(FleetRequest::Recall { key, config_hash }),
        _ => Err("recall must carry \"key\" and \"config_hash\"".to_string()),
    }
}

/// Parses one fleet request line standalone (the `studyd` server parses
/// the same fields through its own envelope parser; this entry point
/// serves tests and any bare fleet peer).
///
/// # Errors
///
/// Returns a human-readable description of the first problem.
pub fn parse_request_line(line: &str) -> Result<(u64, FleetRequest), String> {
    let v = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let fields = match &v {
        Value::Object(fields) => fields,
        _ => return Err("request line must be a JSON object".to_string()),
    };
    let mut id = None;
    let mut request = None;
    for (key, val) in fields {
        match key.as_str() {
            "id" => match val {
                Value::UInt(u) => id = Some(*u),
                _ => return Err("field \"id\" must be a non-negative integer".to_string()),
            },
            other => match parse_request_field(other, val) {
                Some(parsed) => {
                    if request.replace(parsed?).is_some() {
                        return Err("request must carry exactly one fleet kind".to_string());
                    }
                }
                None => return Err(format!("unknown field {other:?}")),
            },
        }
    }
    match (id, request) {
        (Some(id), Some(request)) => Ok((id, request)),
        _ => Err("request must carry \"id\" and one fleet kind".to_string()),
    }
}

/// Parses one fleet response line into its correlation id and payload
/// (client side).
///
/// # Errors
///
/// Returns a description of the mismatch if the line is not one of the
/// response shapes.
pub fn parse_reply(line: &str) -> Result<(u64, FleetReply), String> {
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
            "record" => match val {
                Value::Null => reply = Some(FleetReply::Record(None)),
                Value::Str(s) => {
                    let bytes = hex::decode(s).ok_or("field \"record\" must be hex bytes")?;
                    reply = Some(FleetReply::Record(Some(bytes)));
                }
                _ => return Err("field \"record\" must be hex or null".to_string()),
            },
            "err" => match val {
                Value::Str(s) => reply = Some(FleetReply::Err(s.clone())),
                _ => return Err("field \"err\" must be a string".to_string()),
            },
            other => return Err(format!("unknown response field {other:?}")),
        }
    }
    match (id, reply) {
        (Some(id), Some(reply)) => Ok((id, reply)),
        _ => Err("response must carry \"id\" and one payload field".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        let request = FleetRequest::Recall {
            key: b"\x00\x01\xfe\xff".to_vec(),
            config_hash: u64::MAX,
        };
        let line = request_line(7, &request);
        assert!(line.ends_with('\n'));
        assert_eq!(parse_request_line(line.trim()), Ok((7, request)));
    }

    #[test]
    fn reply_lines_round_trip() {
        for (line, want) in [
            (
                record_line(1, Some(b"\x01\x02")),
                FleetReply::Record(Some(vec![1, 2])),
            ),
            (record_line(2, None), FleetReply::Record(None)),
            (
                err_line(5, "no store"),
                FleetReply::Err("no store".to_string()),
            ),
        ] {
            let (_, parsed) = parse_reply(line.trim()).expect(&line);
            assert_eq!(parsed, want);
        }
    }

    #[test]
    fn malformed_lines_are_described_not_panicked() {
        for (line, needle) in [
            ("nope", "invalid JSON"),
            ("[]", "must be a JSON object"),
            (r#"{"recall": {}}"#, "must carry"),
            (r#"{"id": 1}"#, "one fleet kind"),
            (
                r#"{"id": 1, "recall": {"key": "zz", "config_hash": 1}}"#,
                "hex",
            ),
            (r#"{"id": 1, "recall": {"key": "00"}}"#, "config_hash"),
            (r#"{"id": 1, "frobnicate": true}"#, "unknown field"),
            (
                r#"{"id": 1, "recall": {"key": "00", "config_hash": 1}, "recall": {"key": "01", "config_hash": 1}}"#,
                "exactly one",
            ),
        ] {
            let err = parse_request_line(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
        for (line, needle) in [
            (r#"{"id": 1, "record": 7}"#, "record"),
            (r#"{"id": 1, "record": "0"}"#, "hex"),
            (r#"{"id": 1}"#, "payload field"),
        ] {
            let err = parse_reply(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }
}
