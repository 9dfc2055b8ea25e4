//! The load generator's side of a connection: a non-blocking socket that
//! the client thread polls instead of sleeping in `read`.
//!
//! On a virtual machine a thread that blocks waits for the host to wake
//! its virtual CPU, and on a shared host that wait swings from
//! microseconds to milliseconds with the neighbours' load. Polling keeps
//! the client on its CPU, so a request's time is the daemon's work and the
//! loopback transfer, not the host's scheduling.

use dscweaver_serve::Reply;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// The wire bytes of one keep-alive request, as `dscweaver_serve::Client`
/// frames them.
pub fn request_bytes(target: &str, text: &str, addr: SocketAddr) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{text}",
        text.len()
    )
    .into_bytes()
}

/// `write_all` on a non-blocking stream, polling while its buffer is full.
pub fn write_all_polled(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// `read_exact` on a non-blocking stream, polling until the bytes arrive.
pub fn read_exact_polled(stream: &mut TcpStream, mut buf: &mut [u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match stream.read(buf) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => buf = &mut buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A polled TCP connection, dialled on first use.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Received bytes not yet consumed.
    buf: Vec<u8>,
}

impl Conn {
    /// A connection to `addr`; nothing is dialled yet.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::new(),
        }
    }

    fn stream(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            self.stream = Some(stream);
            self.buf.clear();
        }
        Ok(self.stream.as_mut().expect("dialled above"))
    }

    /// Writes all of `bytes`.
    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        write_all_polled(self.stream()?, bytes)
    }

    /// Polls until at least `n` received bytes are buffered.
    fn fill(&mut self, n: usize) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        while self.buf.len() < n {
            let stream = self.stream()?;
            match stream.read(&mut chunk) {
                Ok(0) => {
                    self.stream = None;
                    return Err(ErrorKind::UnexpectedEof.into());
                }
                Ok(got) => self.buf.extend_from_slice(&chunk[..got]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Polls for exactly `n` bytes and discards them.
    pub fn recv_exact(&mut self, n: usize) -> std::io::Result<()> {
        self.fill(n)?;
        self.buf.drain(..n);
        Ok(())
    }

    /// Sends one keep-alive `POST` and polls for its reply.
    pub fn post(&mut self, target: &str, text: &str) -> std::io::Result<Reply> {
        let bytes = request_bytes(target, text, self.addr);
        self.send(&bytes)?;
        self.reply()
    }

    /// Polls for one `Content-Length`-framed reply.
    fn reply(&mut self) -> std::io::Result<Reply> {
        let malformed = || std::io::Error::new(ErrorKind::InvalidData, "malformed reply");
        let head_end = loop {
            if let Some(at) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break at;
            }
            self.fill(self.buf.len() + 1)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| malformed())?;
        let mut lines = head.lines();
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(malformed)?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(malformed)?;
        let end = head_end + 4 + length;
        self.fill(end)?;
        let body =
            String::from_utf8(self.buf[head_end + 4..end].to_vec()).map_err(|_| malformed())?;
        self.buf.drain(..end);
        Ok(Reply {
            status,
            headers,
            body,
        })
    }
}
