//! A std-only HTTP/1.1 keep-alive client: one connection, one request
//! at a time, `Content-Length` framing in both directions (the only
//! framing `proclus serve` speaks).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// One response read off the connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First value of the named (lowercase) header.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// The bytes of one request, built once and sent as often as needed.
pub fn encode_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A keep-alive connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect (with Nagle off, so a request is not held back waiting
    /// for the previous reply's ACK).
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::with_capacity(64 * 1024, stream),
            writer,
        })
    }

    /// Send pre-encoded request bytes (see [`encode_request`]) and read
    /// the reply.
    pub fn send(&mut self, request: &[u8]) -> io::Result<HttpResponse> {
        self.writer.write_all(request)?;
        self.writer.flush()?;
        read_response(&mut self.reader)
    }

    /// Encode and send one request.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<HttpResponse> {
        self.send(&encode_request(method, path, body))
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_line(r: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Read one `Content-Length`-framed response.
pub fn read_response(r: &mut impl BufRead) -> io::Result<HttpResponse> {
    let status_line = read_line(r)?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .ok_or_else(|| bad("response has no Content-Length".into()))?
        .1
        .parse()
        .map_err(|_| bad("unparsable Content-Length".into()))?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}
