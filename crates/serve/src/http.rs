//! Dependency-light HTTP/1.1 serving: request parsing, response writing,
//! and a server whose workers accept on one [`TcpListener`].
//!
//! One connection carries one request (`Connection: close`), matching the
//! [`deepsplit_core::httpc`] client, and both ends read a message with
//! [`httpc::read_message`] under the same bounds ([`MAX_HEAD_BYTES`],
//! [`MAX_BODY_BYTES`]). Each worker accepts a connection, answers it and
//! accepts the next, so the kernel's listen backlog is the only queue and
//! the process holds at most one accepted socket per worker. A handler
//! panic is caught and answered with `500` instead of bleeding a worker, so
//! a poisoned request cannot drain the pool.

use deepsplit_core::httpc::{self, HttpError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub use deepsplit_core::httpc::{MAX_BODY_BYTES, MAX_HEAD_BYTES};

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

/// Reads and parses one request from `stream` (the server passes its
/// [`TcpStream`]) with [`httpc::read_message`]; `None` when the stream
/// ended before its first byte, a connection with nothing to answer.
///
/// # Errors
///
/// Returns a human-readable description when the bytes are not a parsable
/// HTTP/1.x request or break a bound of [`httpc::read_message`]: a head
/// over [`MAX_HEAD_BYTES`] or a declared body over [`MAX_BODY_BYTES`],
/// refused before it is read. The server answers either with `400`.
pub fn read_request<R: Read>(stream: &mut R) -> Result<Option<Request>, String> {
    let (line, body) = match httpc::read_message(stream) {
        Ok(message) => message,
        Err(HttpError::Closed) => return Ok(None),
        Err(HttpError::Malformed(message)) => return Err(message),
        Err(e) => return Err(e.to_string()),
    };
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| "empty request line".to_string())?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| format!("no path in request line `{line}`"))?
        .to_string();
    if !parts.next().unwrap_or_default().starts_with("HTTP/1.") {
        return Err(format!("unsupported version in `{line}`"));
    }
    Ok(Some(Request {
        method,
        path,
        body,
        peer: None,
    }))
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

/// A running HTTP server: worker threads accepting on one listener.
pub struct Server {
    /// The address actually bound (resolves an ephemeral `:0` port).
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

/// Binds `addr` and serves requests on `threads` workers until
/// [`Server::shutdown`].
///
/// # Errors
///
/// Returns the bind error, or the error of cloning the listener.
pub fn serve(addr: &str, threads: usize, handler: Arc<Handler>) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    // Every clone first, so a failed one leaves no worker blocked in accept.
    let listeners = (0..threads.max(1))
        .map(|_| listener.try_clone())
        .collect::<std::io::Result<Vec<_>>>()?;
    let workers = listeners
        .into_iter()
        .map(|listener| {
            let shutdown = Arc::clone(&shutdown);
            let handler = Arc::clone(&handler);
            std::thread::spawn(move || worker_loop(&listener, &shutdown, handler.as_ref()))
        })
        .collect();
    Ok(Server {
        addr,
        shutdown,
        workers,
    })
}

/// Accepts and answers one connection at a time. The first connection
/// accepted after the shutdown flag is set ends the loop unanswered.
fn worker_loop(listener: &TcpListener, shutdown: &AtomicBool, handler: &Handler) {
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok((mut stream, peer)) =
            accepted.inspect_err(|e| eprintln!("serve: accept failed: {e}"))
        else {
            continue;
        };
        let _ = stream.set_read_timeout(Some(CONNECTION_TIMEOUT));
        let _ = stream.set_write_timeout(Some(CONNECTION_TIMEOUT));
        let response = match read_request(&mut stream) {
            // The peer hung up without a byte: no answer, nothing to log.
            Ok(None) => continue,
            Ok(Some(mut request)) => {
                request.peer = Some(peer.ip().to_string());
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
    /// Stops accepting, lets each worker finish the request it is
    /// answering, and joins every worker. Connections still waiting in the
    /// listen backlog are closed unanswered.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the server stops (effectively forever for a foreground
    /// server process — the workers only exit on [`Server::shutdown`]).
    pub fn wait(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // A worker blocks in `accept` until a connection arrives, so make
        // one arrive per worker.
        for _ in &self.workers {
            let _ = TcpStream::connect(self.addr);
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
    fn a_stream_that_ends_before_its_first_byte_is_no_request() {
        assert_eq!(read_request(&mut &b""[..]).map(|r| r.is_none()), Ok(true));
        // One byte is a request, and a malformed one.
        assert!(read_request(&mut &b"\n"[..]).is_err());
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
