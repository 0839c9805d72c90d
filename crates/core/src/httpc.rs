//! Minimal blocking HTTP/1.1 client over `std::net::TcpStream`.
//!
//! The workspace's compat-shim philosophy extends to networking: no
//! `reqwest`/`hyper`, just enough HTTP/1.1 for the model-store blob API and
//! the attack-inference endpoints served by the `deepsplit-serve` crate.
//! Every request opens one connection and sends `Connection: close` —
//! simple, stateless and thread-safe by construction, which is all a sweep
//! worker hammering a shared cache needs. The client and that server read a
//! message with the same [`read_message`], under the same bounds: at most
//! [`MAX_HEAD_BYTES`] of head and [`MAX_BODY_BYTES`] of body, none when
//! `Content-Length` is absent.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest message body either end reads. A model blob (`PUT` and `GET
/// /models`) is the largest body the API carries: 1.5 MB for a vector-only
/// model, 4.5 MB for an image model at the blob format's channel cap. A
/// larger declared length is refused before any of its bytes are read.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Largest message head (start line + headers) either end reads. Anything
/// this API sends fits in a fraction of it; an endless unterminated line
/// must not grow a reader's buffers unboundedly.
pub const MAX_HEAD_BYTES: u64 = 64 * 1024;

/// What went wrong talking to an HTTP peer.
#[derive(Debug)]
pub enum HttpError {
    /// The URL could not be parsed (only `http://host:port/path` is
    /// supported).
    Url(String),
    /// Connecting, writing or reading failed.
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The peer's bytes broke the HTTP/1.x format or a bound.
    Malformed(String),
    /// The peer closed the connection before sending a byte of the message.
    Closed,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Url(msg) => write!(f, "bad URL: {msg}"),
            HttpError::Io { context, source } => write!(f, "{context}: {source}"),
            HttpError::Malformed(msg) => write!(f, "malformed HTTP response: {msg}"),
            HttpError::Closed => write!(f, "connection closed before the first byte"),
        }
    }
}

impl std::error::Error for HttpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HttpError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// An HTTP response: status code plus the full body.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code (`200`, `404`, …).
    pub status: u16,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Whether the status is in the 2xx range.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The body as UTF-8.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::Malformed`] when the body is not valid UTF-8.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|e| HttpError::Malformed(format!("body is not UTF-8: {e}")))
    }
}

/// Maps an I/O error to [`HttpError::Io`] under `context`.
fn io_error(context: String) -> impl FnOnce(std::io::Error) -> HttpError {
    move |source| HttpError::Io { context, source }
}

/// Splits `http://host:port/path` into `(authority, path)`. A missing port
/// defaults to `80`, a missing path to `/`.
fn split_url(url: &str) -> Result<(String, String), HttpError> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| HttpError::Url(format!("only http:// URLs are supported, got `{url}`")))?;
    let (authority, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    if authority.is_empty() {
        return Err(HttpError::Url(format!("empty host in `{url}`")));
    }
    let authority = if authority.contains(':') {
        authority.to_string()
    } else {
        format!("{authority}:80")
    };
    Ok((authority, path.to_string()))
}

/// Performs one HTTP request and reads the response with [`read_message`].
///
/// `timeout` bounds connecting and each read/write individually (not the
/// total wall clock, which matters for endpoints that legitimately take a
/// while to produce the first byte *after* accepting the request body).
///
/// # Errors
///
/// Returns [`HttpError`] on a bad URL, any I/O failure, or a response that
/// is unparsable or breaks [`read_message`]'s bounds. HTTP error *statuses*
/// (4xx/5xx) are returned as normal [`HttpResponse`]s — inspect
/// [`HttpResponse::status`].
pub fn request(
    method: &str,
    url: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<HttpResponse, HttpError> {
    let (authority, path) = split_url(url)?;
    let io_err = |context: &str| io_error(format!("{context} {authority}"));
    let mut stream = TcpStream::connect(&authority).map_err(io_err("connect to"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(io_err("configure"))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(io_err("configure"))?;

    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(io_err("write request to"))?;

    read_response(&mut stream).map_err(|e| match e {
        HttpError::Io { source, .. } => io_err("read response from")(source),
        e => e,
    })
}

/// Reads one response and parses its status line.
fn read_response<R: Read>(stream: &mut R) -> Result<HttpResponse, HttpError> {
    let (status_line, body) = read_message(stream)?;
    let mut parts = status_line.split_whitespace();
    let version = parts.next().unwrap_or_default();
    match parts.next().and_then(|code| code.parse().ok()) {
        Some(status) if version.starts_with("HTTP/1.") => Ok(HttpResponse { status, body }),
        _ => Err(HttpError::Malformed(format!(
            "bad status line `{status_line}`"
        ))),
    }
}

/// Reads one HTTP/1.x message from `stream`: its start line (a request or
/// status line, trimmed) and its body of `Content-Length` bytes; other
/// headers are dropped. Body memory grows with the bytes that actually
/// arrive, never with the declared length alone — a handful of cheap
/// connections must not be able to pin gigabytes.
///
/// # Errors
///
/// [`HttpError::Closed`] when the stream ends before its first byte;
/// [`HttpError::Io`] when reading fails; [`HttpError::Malformed`] when the
/// head is not UTF-8 or does not end within [`MAX_HEAD_BYTES`], or the
/// `Content-Length` is not a number, exceeds [`MAX_BODY_BYTES`] (refused
/// before any body byte is read) or is more than the peer sent.
pub fn read_message<R: Read>(stream: &mut R) -> Result<(String, Vec<u8>), HttpError> {
    let mut reader = BufReader::new(Read::take(stream, MAX_HEAD_BYTES));
    let first = reader
        .fill_buf()
        .map_err(io_error("read head".to_string()))?;
    if first.is_empty() {
        return Err(HttpError::Closed);
    }
    // A line that ends without a terminator ran into MAX_HEAD_BYTES (or
    // EOF), so the head is unparsable either way — refuse it instead of
    // buffering more.
    let mut head_line = || {
        let mut line = Vec::new();
        reader
            .read_until(b'\n', &mut line)
            .map_err(io_error("read head".to_string()))?;
        if !line.ends_with(b"\n") {
            return Err(HttpError::Malformed(format!(
                "head truncated or longer than the {MAX_HEAD_BYTES}-byte limit"
            )));
        }
        let line = String::from_utf8(line)
            .map_err(|_| HttpError::Malformed("non-UTF-8 head".to_string()))?;
        Ok(line.trim_end().to_string())
    };
    let start_line = head_line()?;
    let mut content_length = 0usize;
    loop {
        let header = head_line()?;
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    HttpError::Malformed(format!("bad Content-Length `{}`", value.trim()))
                })?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::Malformed(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }

    // Re-limit the reader to the body, then read incrementally: capacity
    // grows as bytes arrive, so a declared-but-never-sent Content-Length
    // costs nothing. Body bytes that already crossed under the head limit
    // sit in the BufReader's buffer and count against the body budget.
    let buffered = reader.buffer().len();
    reader
        .get_mut()
        .set_limit(content_length.saturating_sub(buffered) as u64);
    let mut body = Vec::new();
    reader
        .read_to_end(&mut body)
        .map_err(io_error(format!("read body of {content_length} bytes")))?;
    if body.len() < content_length {
        return Err(HttpError::Malformed(format!(
            "truncated body: {} of {content_length} bytes",
            body.len()
        )));
    }
    body.truncate(content_length);
    Ok((start_line, body))
}

/// `GET url`.
///
/// # Errors
///
/// As [`request`].
pub fn get(url: &str, timeout: Duration) -> Result<HttpResponse, HttpError> {
    request("GET", url, &[], timeout)
}

/// `PUT url` with `body`.
///
/// # Errors
///
/// As [`request`].
pub fn put(url: &str, body: &[u8], timeout: Duration) -> Result<HttpResponse, HttpError> {
    request("PUT", url, body, timeout)
}

/// `POST url` with `body`.
///
/// # Errors
///
/// As [`request`].
pub fn post(url: &str, body: &[u8], timeout: Duration) -> Result<HttpResponse, HttpError> {
    request("POST", url, body, timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    #[test]
    fn url_splitting() {
        assert_eq!(
            split_url("http://127.0.0.1:8080/models/ab").unwrap(),
            ("127.0.0.1:8080".to_string(), "/models/ab".to_string())
        );
        assert_eq!(
            split_url("http://example.test").unwrap(),
            ("example.test:80".to_string(), "/".to_string())
        );
        assert!(split_url("https://x/y").is_err(), "https is not supported");
        assert!(split_url("http:///y").is_err(), "empty host");
    }

    #[test]
    fn response_parsing() {
        let parse = |raw: &[u8]| read_response(&mut &raw[..]);
        let r = parse(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok").unwrap();
        assert_eq!(r.status, 200);
        assert!(r.is_success());
        assert_eq!(r.body_str().unwrap(), "ok");

        let r = parse(b"HTTP/1.1 404 Not Found\r\n\r\n").unwrap();
        assert_eq!(r.status, 404);
        assert!(!r.is_success());
        assert!(r.body.is_empty());

        assert!(parse(b"junk").is_err());
        assert!(parse(b"SPDY/9 200\r\n\r\n").is_err());
        assert!(
            parse(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nok").is_err(),
            "short body must be rejected, not silently truncated"
        );
    }

    #[test]
    fn over_bound_response_bodies_are_refused_unread() -> std::io::Result<()> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = std::thread::spawn(move || -> std::io::Result<()> {
            // The request stays unread: the head alone must be refused.
            let (mut s, _) = listener.accept()?;
            let len = MAX_BODY_BYTES + 1;
            s.write_all(format!("HTTP/1.1 200 OK\r\nContent-Length: {len}\r\n\r\n").as_bytes())?;
            // The client hangs up after the head, so this write may fail.
            let _ = s.write_all(&vec![b'x'; len]);
            Ok(())
        });
        let err = get(&format!("http://{addr}/blob"), Duration::from_secs(30))
            .map(|r| r.body.len())
            .expect_err("a body over the bound must be refused, not read");
        assert!(
            matches!(&err, HttpError::Malformed(m) if m.contains("limit")),
            "{err}"
        );
        server.join().expect("server thread")?;
        Ok(())
    }

    #[test]
    fn round_trip_against_raw_listener() -> std::io::Result<()> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = std::thread::spawn(move || -> std::io::Result<String> {
            let (mut s, _) = listener.accept()?;
            let mut buf = [0u8; 4096];
            let mut seen = Vec::new();
            // Read until the body ("ping") has arrived.
            while !seen.ends_with(b"ping") {
                let n = s.read(&mut buf)?;
                assert!(n > 0, "client closed early");
                seen.extend_from_slice(&buf[..n]);
            }
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\npong")?;
            Ok(String::from_utf8_lossy(&seen).into_owned())
        });
        let r = post(
            &format!("http://{addr}/echo"),
            b"ping",
            Duration::from_secs(5),
        )
        .expect("request against local listener");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"pong");
        let head = server.join().expect("server thread")?;
        assert!(head.starts_with("POST /echo HTTP/1.1\r\n"), "{head}");
        assert!(head.contains("Content-Length: 4"), "{head}");
        Ok(())
    }
}
