//! A minimal blocking client for the mapping service.
//!
//! Shared by the load generator and the integration and contract
//! tests, so all of them speak the exact dialect the
//! server implements — there is no second, subtly different codec.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{Event, ProtoError};
use crate::wire::{read_frame, write_frame, WireError, ABSOLUTE_MAX_FRAME};

/// Typed client-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Transport or framing trouble.
    Wire(WireError),
    /// The server sent a frame the protocol does not describe.
    Proto(ProtoError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Proto(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// One connection to a mapping server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    max_frame: usize,
}

impl Client {
    /// Connects. The client accepts responses up to the absolute
    /// frame ceiling — the server's limit governs requests.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ClientError::Wire(WireError::Io { kind: e.kind().to_string() }))?;
        let _ = stream.set_nodelay(true);
        Ok(Self { stream, max_frame: ABSOLUTE_MAX_FRAME })
    }

    /// Bounds how long [`Client::recv`] blocks (None = forever).
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] when the socket rejects the option.
    pub fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| ClientError::Wire(WireError::Io { kind: e.kind().to_string() }))
    }

    /// Sends one raw frame payload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] on transport failure.
    pub fn send(&mut self, payload: &str) -> Result<(), ClientError> {
        write_frame(&mut self.stream, payload, self.max_frame)?;
        Ok(())
    }

    /// Receives one raw frame payload (for byte-level assertions —
    /// the resume drill compares `done` frames byte by byte).
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] on transport failure.
    pub fn recv_text(&mut self) -> Result<String, ClientError> {
        Ok(read_frame(&mut self.stream, self.max_frame)?)
    }

    /// Receives one event frame.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or an undecodable frame.
    pub fn recv(&mut self) -> Result<Event, ClientError> {
        let text = self.recv_text()?;
        Ok(Event::parse(&text)?)
    }

    /// Receives frames for request `id` until a terminal event
    /// (`done`, `error`, `rejected`), collecting everything seen for
    /// that id (interleaved other-id frames are dropped — use one
    /// id per call site or demultiplex by hand with [`Client::recv`]).
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or an undecodable frame.
    pub fn drive(&mut self, id: u64) -> Result<Vec<Event>, ClientError> {
        let mut seen = Vec::new();
        loop {
            let e = self.recv()?;
            if e.id != id {
                continue;
            }
            let terminal = matches!(e.event.as_str(), "done" | "error" | "rejected");
            seen.push(e);
            if terminal {
                return Ok(seen);
            }
        }
    }

    /// Half-closes the write side, simulating a client that walks
    /// away mid-request (the server sees EOF and cancels).
    pub fn disconnect(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}
