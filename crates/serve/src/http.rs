//! Dependency-light HTTP/1.1 plumbing: request parsing, response writing,
//! and a [`TcpListener`]-plus-worker-threadpool server loop.
//!
//! One connection carries one request (`Connection: close`), matching the
//! [`deepsplit_core::httpc`] client. The accept loop hands connections to a
//! fixed pool of workers over a channel; a handler panic is caught and
//! answered with `500` instead of bleeding a worker, so a poisoned request
//! cannot drain the pool.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest accepted request body. A model blob (`PUT /models`) is the
/// largest body the API takes: 1.5 MB for a vector-only model, 4.5 MB for
/// an image model at the blob format's channel cap. A larger declared
/// length is refused before any of its bytes are read, and the request
/// answered `400`.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Largest accepted request head (request line + headers). Anything a
/// legitimate client of this API sends fits in a fraction of this; an
/// endless unterminated line must not grow a worker's buffers unboundedly.
pub const MAX_HEAD_BYTES: u64 = 64 * 1024;

/// How long a worker waits on a silent connection before giving up on it.
const CONNECTION_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method (`GET`, `PUT`, `POST`, …), upper-cased as received.
    pub method: String,
    /// Request path including any query string.
    pub path: String,
    /// Body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// The peer's IP address, when the transport knows it (`None` for
    /// requests parsed outside a live connection, e.g. in tests). The
    /// detection layer uses it as the fallback client key.
    pub peer: Option<String>,
}

impl Request {
    /// The body as UTF-8, or `None` when it is not valid UTF-8.
    pub(crate) fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// An HTTP response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A binary response.
    pub(crate) fn bytes(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            content_type: "application/octet-stream",
            body,
        }
    }

    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub(crate) fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain",
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub(crate) fn error(status: u16, message: impl Into<String>) -> Response {
        let value = serde::Value::Object(vec![(
            "error".to_string(),
            serde::Value::Str(message.into()),
        )]);
        let body = serde_json::to_string(&value).unwrap_or_else(|_| "{}".to_string());
        Response::json(status, body)
    }
}

/// The reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "",
    }
}

/// Reads one `\n`-terminated line from a head-limited reader. A line that
/// ends without a terminator ran into [`MAX_HEAD_BYTES`] (or EOF), so the
/// head is unparsable either way — reject it instead of buffering more.
fn read_head_line<R: Read>(reader: &mut BufReader<std::io::Take<R>>) -> Result<String, String> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read request head: {e}"))?;
    if !line.ends_with('\n') {
        return Err(format!(
            "request head truncated or longer than the {MAX_HEAD_BYTES}-byte limit"
        ));
    }
    Ok(line)
}

/// Reads and parses one request from `stream` (the server passes its
/// [`TcpStream`]).
///
/// # Errors
///
/// Returns a human-readable description when the bytes are not a parsable
/// HTTP/1.x request, the head exceeds [`MAX_HEAD_BYTES`], or the body
/// exceeds [`MAX_BODY_BYTES`]. Body memory grows with the bytes that
/// actually arrive, never with the declared `Content-Length` alone — a
/// handful of cheap connections must not be able to pin gigabytes.
pub fn read_request<R: Read>(stream: &mut R) -> Result<Request, String> {
    let mut reader = BufReader::new(Read::take(stream, MAX_HEAD_BYTES));
    let line = read_head_line(&mut reader)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| "empty request line".to_string())?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| format!("no path in request line `{}`", line.trim()))?
        .to_string();
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version in `{}`", line.trim()));
    }

    let mut content_length = 0usize;
    loop {
        let header = read_head_line(&mut reader)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad Content-Length `{}`", value.trim()))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        ));
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
        .map_err(|e| format!("read body of {content_length} bytes: {e}"))?;
    if body.len() < content_length {
        return Err(format!(
            "truncated body: {} of {content_length} bytes",
            body.len()
        ));
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        body,
        peer: None,
    })
}

/// Writes `response` to `stream` with `Connection: close` semantics.
///
/// # Errors
///
/// Returns the underlying I/O error (the peer may simply have hung up).
pub(crate) fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// Best-effort human-readable payload of a caught panic.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("opaque panic")
}

/// The request handler a [`Server`] dispatches to.
pub(crate) type Handler = dyn Fn(&Request) -> Response + Send + Sync;

/// A running HTTP server: an accept thread feeding a worker threadpool.
pub struct Server {
    /// The address actually bound (resolves an ephemeral `:0` port).
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Binds `addr` and serves requests on `threads` workers until
/// [`Server::shutdown`].
///
/// # Errors
///
/// Returns the bind error.
pub fn serve(addr: &str, threads: usize, handler: Arc<Handler>) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));

    let (tx, rx) = channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<JoinHandle<()>> = (0..threads.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            std::thread::spawn(move || worker_loop(&rx, handler.as_ref()))
        })
        .collect();

    let accept = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    // A send fails only when every worker is gone; stop
                    // accepting rather than spinning.
                    Ok(s) => {
                        if tx.send(s).is_err() {
                            break;
                        }
                    }
                    Err(e) => eprintln!("serve: accept failed: {e}"),
                }
            }
            // Dropping `tx` here lets the workers drain and exit.
        })
    };

    Ok(Server {
        addr,
        shutdown,
        accept: Some(accept),
        workers,
    })
}

fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, handler: &Handler) {
    loop {
        // splint::allow(L1, "guard is a match-scrutinee temporary: the lock spans only the channel recv and is released at the end of this statement, before any socket I/O")
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(mut stream) = stream else {
            return; // Accept loop ended; no more connections will arrive.
        };
        let _ = stream.set_read_timeout(Some(CONNECTION_TIMEOUT));
        let _ = stream.set_write_timeout(Some(CONNECTION_TIMEOUT));
        let response = match read_request(&mut stream) {
            Ok(mut request) => {
                request.peer = stream.peer_addr().ok().map(|a| a.ip().to_string());
                // Backstop only: a well-behaved handler (the attack server)
                // catches its own panics so they enter its metrics; anything
                // that still unwinds to here answers 500 and the worker
                // lives on.
                std::panic::catch_unwind(AssertUnwindSafe(|| handler(&request))).unwrap_or_else(
                    |panic| {
                        Response::error(
                            500,
                            format!("handler panicked: {}", panic_message(&*panic)),
                        )
                    },
                )
            }
            Err(e) => Response::error(400, e),
        };
        if let Err(e) = write_response(&mut stream, &response) {
            eprintln!("serve: write response: {e}");
        }
    }
}

impl Server {
    /// Stops accepting, drains the workers and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the server stops (effectively forever for a foreground
    /// server process — the accept thread only exits on [`Server::shutdown`]
    /// or a dead listener).
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop: `incoming()` blocks until one more
        // connection arrives, so make one arrive.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_core::httpc;

    fn echo_server() -> Server {
        serve(
            "127.0.0.1:0",
            2,
            Arc::new(|req: &Request| {
                if req.path == "/panic" {
                    panic!("boom");
                }
                Response::text(
                    200,
                    format!("{} {} {}", req.method, req.path, req.body.len()),
                )
            }),
        )
        .expect("bind ephemeral port")
    }

    #[test]
    fn serves_requests_on_the_pool() {
        let server = echo_server();
        let url = format!("http://{}/some/path", server.addr);
        let r = httpc::post(&url, b"12345", Duration::from_secs(5)).expect("request");
        assert_eq!(r.status, 200);
        assert_eq!(r.body_str().unwrap(), "POST /some/path 5");
        server.shutdown();
    }

    #[test]
    fn handler_panic_answers_500_and_pool_survives() {
        let server = echo_server();
        let base = format!("http://{}", server.addr);
        let r = httpc::get(&format!("{base}/panic"), Duration::from_secs(5)).expect("request");
        assert_eq!(r.status, 500);
        assert!(r.body_str().unwrap().contains("boom"));
        // The pool is still alive afterwards.
        let r = httpc::get(&format!("{base}/ok"), Duration::from_secs(5)).expect("request");
        assert_eq!(r.status, 200);
        server.shutdown();
    }

    #[test]
    fn malformed_requests_answer_400() {
        use std::io::{Read, Write};
        let server = echo_server();
        let mut s = TcpStream::connect(server.addr).expect("connect");
        s.write_all(b"NONSENSE\r\n\r\n").expect("write");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        server.shutdown();
    }

    #[test]
    fn oversized_bodies_are_refused() {
        let server = echo_server();
        let mut s = TcpStream::connect(server.addr).expect("connect");
        use std::io::{Read, Write};
        s.write_all(
            format!(
                "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        )
        .expect("write");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    }

    /// The largest model a blob holds, an image model with a two-class
    /// head at the blob format's channel cap, fits the body bound.
    #[test]
    fn the_largest_model_blob_fits_the_body_bound() {
        use deepsplit_core::model::{AttackModel, LossKind, ModelKind};
        use deepsplit_core::store::conformance;
        use deepsplit_core::train::{TrainedAttack, MAX_IMAGE_CHANNELS};
        let largest = TrainedAttack {
            model: AttackModel::new(ModelKind::VecImg, LossKind::TwoClass, MAX_IMAGE_CHANNELS, 0),
            ..conformance::model(0)
        };
        let blob = largest.to_blob();
        assert_eq!(TrainedAttack::check_blob(&blob), Ok(()));
        assert!(
            blob.len() <= MAX_BODY_BYTES,
            "a {}-byte blob exceeds the {MAX_BODY_BYTES}-byte body bound",
            blob.len()
        );
    }

    #[test]
    fn unterminated_heads_are_bounded_and_refused() {
        use std::io::Write;
        // An endless header line: read_request must stop buffering at
        // MAX_HEAD_BYTES and report the limit instead of growing until OOM.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            let _ = c.write_all(b"GET / HTTP/1.1\r\nX-Junk: ");
            let _ = c.write_all(&vec![b'a'; MAX_HEAD_BYTES as usize + 1024]);
        });
        let (mut serverside, _) = listener.accept().expect("accept");
        let err = read_request(&mut serverside).expect_err("unterminated head must be refused");
        assert!(err.contains("limit"), "{err}");
        writer.join().expect("writer thread");
    }

    #[test]
    fn shutdown_joins_cleanly_with_no_traffic() {
        echo_server().shutdown();
    }
}
