//! The blocking per-peer TCP client.
//!
//! One [`PeerClient`] owns one lazily opened connection to one peer
//! `studyd` node and serializes requests over it (fleet requests are
//! answered inline by the peer's connection thread, so one in-flight
//! request per peer is the natural shape). Every failure tears the
//! connection down and surfaces as an error — the tier above turns it
//! into a miss; the next call reconnects from scratch. Socket timeouts
//! ([`crate::IO_TIMEOUT`]) bound how long a dead peer can stall a
//! recall.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use runstore::RecordId;

use crate::wire::{self, FleetReply, FleetRequest};
use crate::{IO_TIMEOUT, MAX_REPLY_BYTES};

/// One connected peer conversation.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A blocking client for one fleet peer, reconnecting on demand.
pub struct PeerClient {
    addr: String,
    conn: Mutex<Option<Conn>>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for PeerClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerClient")
            .field("addr", &self.addr)
            .finish()
    }
}

impl PeerClient {
    /// A client for the peer at `addr` (`host:port`). No connection is
    /// opened until the first request.
    pub fn new(addr: impl Into<String>) -> PeerClient {
        PeerClient {
            addr: addr.into(),
            conn: Mutex::new(None),
            next_id: AtomicU64::new(1),
        }
    }

    /// The peer's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Asks the peer for the raw encoded record under `id`. `Ok(None)`
    /// is a peer-side miss; the returned bytes are NOT yet verified —
    /// callers must run [`runstore::verify_record`].
    ///
    /// # Errors
    ///
    /// Any connection, framing, or peer-refusal problem.
    pub fn recall(&self, id: RecordId, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        let request = FleetRequest::Recall {
            key: key.to_vec(),
            config_hash: id.config_hash,
        };
        self.round_trip(&request)
    }

    /// One request/response exchange, reconnecting if needed. Any error
    /// drops the connection so the next call starts clean.
    fn round_trip(&self, request: &FleetRequest) -> io::Result<Option<Vec<u8>>> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut slot = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(self.connect()?);
        }
        let result = match slot.as_mut() {
            Some(conn) => exchange(conn, id, request),
            None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
        };
        if result.is_err() {
            *slot = None;
        }
        result
    }

    fn connect(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }
}

fn exchange(conn: &mut Conn, id: u64, request: &FleetRequest) -> io::Result<Option<Vec<u8>>> {
    let line = wire::request_line(id, request);
    conn.writer.write_all(line.as_bytes())?;
    conn.writer.flush()?;
    let reply_line = read_capped_line(&mut conn.reader)?;
    let (reply_id, reply) = wire::parse_reply(reply_line.trim_end_matches(['\r', '\n']))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if reply_id != id {
        // Fleet requests are strictly request/response on this
        // connection; a stray id means the framing is gone.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "out-of-order fleet reply",
        ));
    }
    match reply {
        FleetReply::Record(record) => Ok(record),
        FleetReply::Err(message) => Err(io::Error::other(format!("peer refused: {message}"))),
    }
}

/// Reads one LF-terminated line, refusing anything longer than
/// [`MAX_REPLY_BYTES`] (a reply that large is damage, not data — and an
/// unbounded read would let a broken peer exhaust our memory).
fn read_capped_line(reader: &mut BufReader<TcpStream>) -> io::Result<String> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_REPLY_BYTES as u64)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed the connection",
        ));
    }
    if buf.last() != Some(&b'\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "fleet reply line too long or truncated",
        ));
    }
    String::from_utf8(buf)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "fleet reply is not UTF-8"))
}
