//! The blocking line-protocol [`TcpClient`], used by tests and
//! benchmarks to reach a running [`crate::Server`].

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::thread;
use std::time::Duration;

use serde::Value;
use simcore::StudyRequest;

use crate::protocol::{self, WireReply};

/// Default read timeout for [`TcpClient`] connections. Long enough for a
/// full figure request on a loaded host, short enough that a lost
/// response turns into a visible error instead of a hang.
pub const TCP_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A blocking line-protocol client.
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl TcpClient {
    /// Connects to `addr` with [`TCP_READ_TIMEOUT`].
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from connecting or configuring the socket.
    pub fn connect(addr: &str) -> io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(TCP_READ_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(TcpClient {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
        })
    }

    /// Sends one raw line (LF appended if missing) without reading a
    /// response — protocol-robustness tests speak malformed dialects
    /// through this.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the socket.
    pub fn send_raw_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        if !line.ends_with('\n') {
            self.writer.write_all(b"\n")?;
        }
        self.writer.flush()
    }

    /// Half-closes the socket: no more requests, responses still
    /// readable.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the socket.
    pub fn shutdown_write(&mut self) -> io::Result<()> {
        self.writer.shutdown(Shutdown::Write)
    }

    /// Reads and parses one response line.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] on close,
    /// [`io::ErrorKind::InvalidData`] on an unparseable line, otherwise
    /// the socket error (including timeouts).
    pub fn read_reply(&mut self) -> io::Result<(u64, WireReply)> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        protocol::parse_reply(line.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Sends `request` under a fresh id and returns that id.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the socket.
    pub fn send_study(&mut self, request: &StudyRequest) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.send_raw_line(&protocol::study_line(id, request))?;
        Ok(id)
    }

    /// Sends `request` and blocks for its `ok` payload, resending under
    /// a fresh id after each `busy` reply's `retry_after_ms`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Other`] wrapping an `err` response or an
    /// id/shape mismatch, otherwise the socket error.
    pub fn request_value(&mut self, request: &StudyRequest) -> io::Result<Value> {
        loop {
            let id = self.send_study(request)?;
            let (got_id, reply) = self.read_reply()?;
            if got_id != id {
                return Err(io::Error::other(format!(
                    "response id {got_id} does not match request id {id}"
                )));
            }
            match reply {
                WireReply::Ok(value) => return Ok(value),
                WireReply::Busy { retry_after_ms, .. } => {
                    thread::sleep(Duration::from_millis(retry_after_ms));
                }
                WireReply::Err(message) => return Err(io::Error::other(message)),
                WireReply::Stats(_) => {
                    return Err(io::Error::other("stats response to a study request"))
                }
            }
        }
    }

    /// Requests a stats report and returns its raw value.
    ///
    /// # Errors
    ///
    /// As [`TcpClient::request_value`].
    pub fn stats_value(&mut self) -> io::Result<Value> {
        let id = self.next_id;
        self.next_id += 1;
        self.send_raw_line(&protocol::stats_request_line(id))?;
        let (got_id, reply) = self.read_reply()?;
        match reply {
            WireReply::Stats(value) if got_id == id => Ok(value),
            other => Err(io::Error::other(format!(
                "expected stats response for id {id}, got {other:?} for id {got_id}"
            ))),
        }
    }
}
