//! A blocking client for the `HSPN` wire protocol, built only from the
//! serve crate's public encoders and decoders.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use hopspan_serve::wire::{self, Response};
use hopspan_serve::{read_frame, MetricsSnapshot, Op};

/// Longest a reply may take before the request counts as timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// One connection to a served engine.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    out: Vec<u8>,
    body: Vec<u8>,
    next_id: u64,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        Ok(Client {
            stream,
            out: Vec::with_capacity(256),
            body: Vec::with_capacity(256),
            next_id: 1,
        })
    }

    /// Encodes `op` into the send buffer and returns the request id.
    pub fn encode(&mut self, op: &Op) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.out.clear();
        wire::encode_request_into(id, op, &mut self.out);
        id
    }

    /// Bytes of the last encoded request, length prefix included.
    pub fn encoded_len(&self) -> usize {
        self.out.len()
    }

    /// Writes the encoded request and reads one reply frame body.
    pub fn round_trip(&mut self) -> Result<(), String> {
        self.stream
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        match read_frame(&mut self.stream, &mut self.body) {
            Ok(true) => Ok(()),
            Ok(false) => Err("server closed the connection".to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Bytes of the last reply, length prefix included.
    pub fn reply_len(&self) -> usize {
        self.body.len() + 4
    }

    /// Decodes the last reply, checking that it answers request `id`.
    pub fn decode(&self, id: u64) -> Result<Response, String> {
        let frame = wire::decode_frame(&self.body).map_err(|e| format!("reply frame: {e}"))?;
        if frame.request_id != id {
            return Err(format!(
                "reply to request {} arrived for request {id}",
                frame.request_id
            ));
        }
        wire::decode_response(&frame).map_err(|e| format!("reply payload: {e}"))
    }

    /// Sends `op` and returns the decoded reply.
    pub fn call(&mut self, op: &Op) -> Result<Response, String> {
        let id = self.encode(op);
        self.round_trip()?;
        self.decode(id)
    }

    /// Fetches the server's counters through the `Stats` opcode.
    pub fn stats(&mut self) -> Result<MetricsSnapshot, String> {
        match self.call(&Op::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(format!("Stats answered with {other:?}")),
        }
    }

    /// The server's address.
    pub fn peer_addr(&self) -> Result<String, String> {
        self.stream
            .peer_addr()
            .map(|a| a.to_string())
            .map_err(|e| format!("peer_addr: {e}"))
    }

    /// Hands the socket over for pipelined use.
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }
}

/// Incremental frame splitter for a pipelined reader: bytes go in as
/// they arrive, whole frame bodies come out.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuf {
    /// Reads whatever the socket has; call it once the socket is
    /// readable. Returns `Ok(false)` when a timeout passed with nothing
    /// read.
    pub fn fill(&mut self, stream: &mut TcpStream) -> Result<bool, String> {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// The next complete frame body, if one has arrived.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, String> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len > wire::MAX_FRAME {
            return Err(format!("reply length {len} exceeds MAX_FRAME"));
        }
        let len = len as usize;
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let from = self.start + 4;
        self.start = from + len;
        Ok(Some(&self.buf[from..from + len]))
    }
}
