//! The connection loop: a thread-per-connection HTTP/1.1 server over a
//! `TcpListener`, with keep-alive, pipelining, read timeouts (slowloris
//! defence) and graceful shutdown.
//!
//! Every connection reads into a single growable buffer and repeatedly
//! offers it to [`parse_request`]: complete requests are drained from the
//! front and dispatched, so pipelined requests on one socket are served
//! back-to-back in order. Malformed input answers with the parse error's
//! status and closes; a read timeout with a partial request answers 408.

use crate::request::{parse_request, Limits, ParseError, Request};
use crate::response::Response;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// The request handler: pure function from request to response, shared
/// across connection threads.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync + 'static>;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Parser limits applied per request.
    pub limits: Limits,
    /// Socket read timeout: a connection idle this long mid-request is
    /// answered 408 and closed (slowloris defence). Between requests it
    /// simply closes.
    pub read_timeout: Duration,
    /// Requests served per connection before forcing close.
    pub max_requests_per_conn: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            limits: Limits::default(),
            read_timeout: Duration::from_secs(5),
            max_requests_per_conn: 10_000,
        }
    }
}

/// A running server; dropping (or calling [`shutdown`](Self::shutdown))
/// stops the accept loop and waits for in-flight connections.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    accept: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, then wait (bounded) for in-flight connections.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while self.active.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_and_join();
        }
    }
}

/// Decrements the active-connection count even if the handler panics the
/// thread (it should not — the request path is panic-free by contract).
struct ActiveGuard(Arc<AtomicUsize>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Start serving `listener` with `handler` on background threads.
///
/// # Errors
///
/// Propagates `local_addr` failure on the listener.
pub fn serve(
    listener: TcpListener,
    config: ServerConfig,
    handler: Handler,
) -> std::io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let accept = {
        let stop = Arc::clone(&stop);
        let active = Arc::clone(&active);
        thread::Builder::new()
            .name("httpd-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    active.fetch_add(1, Ordering::SeqCst);
                    let guard = ActiveGuard(Arc::clone(&active));
                    let config = config.clone();
                    let handler = Arc::clone(&handler);
                    // On spawn failure the closure (and the guard in it) is
                    // dropped, releasing the connection count.
                    let _ = thread::Builder::new()
                        .name("httpd-conn".into())
                        .spawn(move || {
                            let _guard = guard;
                            serve_connection(stream, &config, &handler);
                        });
                }
            })?
    };
    Ok(ServerHandle {
        addr,
        stop,
        active,
        accept: Some(accept),
    })
}

/// Serve one connection until close, error, timeout or request cap.
fn serve_connection(mut stream: TcpStream, config: &ServerConfig, handler: &Handler) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    // Absolute backstop on buffered bytes: head limit + body limit + one
    // pipelined head. Beyond this something is wrong regardless of framing.
    let buf_cap = config.limits.max_head_bytes + config.limits.max_body + 64 * 1024;
    let mut buf: Vec<u8> = Vec::new();
    let mut served = 0usize;
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // Drain every complete pipelined request already buffered.
        loop {
            match parse_request(&buf, &config.limits) {
                Ok(Some((request, consumed))) => {
                    buf.drain(..consumed);
                    served += 1;
                    let keep_alive = request.keep_alive() && served < config.max_requests_per_conn;
                    let response = handler(&request);
                    if response.write_to(keep_alive, &mut stream).is_err() || !keep_alive {
                        let _ = stream.shutdown(Shutdown::Both);
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    respond_parse_error(&mut stream, &e);
                    return;
                }
            }
        }
        if buf.len() > buf_cap {
            respond_parse_error(&mut stream, &ParseError::PayloadTooLarge);
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed; a torn partial request is dropped
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if !buf.is_empty() {
                    // Slowloris: a partial request stalled past the timeout.
                    let _ = Response::json(408, "{\"error\":\"request timeout\"}")
                        .write_to(false, &mut stream);
                }
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Err(_) => return,
        }
    }
}

fn respond_parse_error(stream: &mut TcpStream, e: &ParseError) {
    let body = format!("{{\"error\":{:?}}}", e.reason());
    let _ = Response::json(e.status(), body).write_to(false, stream);
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn start(handler: Handler) -> ServerHandle {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = ServerConfig {
            read_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        };
        serve(listener, config, handler).unwrap()
    }

    fn echo_handler() -> Handler {
        Arc::new(|req: &Request| Response::text(200, format!("{} {}", req.method, req.path())))
    }

    fn read_all(stream: &mut TcpStream) -> String {
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn serves_keep_alive_and_pipelined_requests() {
        let server = start(echo_handler());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let text = read_all(&mut stream);
        let responses = text.matches("HTTP/1.1 200 OK").count();
        assert_eq!(responses, 2, "{text}");
        assert!(text.contains("GET /a"));
        assert!(text.contains("GET /b"));
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_4xx_and_close() {
        let server = start(echo_handler());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(
                b"POST / HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n",
            )
            .unwrap();
        let text = read_all(&mut stream);
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");

        // The server survives and keeps serving fresh connections.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"GET /ok HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        assert!(read_all(&mut stream).contains("200 OK"));
        server.shutdown();
    }

    #[test]
    fn stalled_partial_request_gets_408() {
        let server = start(echo_handler());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET /slow HTTP/1.1\r\nHo").unwrap();
        // Stop sending: the read timeout must answer 408 and close.
        let text = read_all(&mut stream);
        assert!(text.starts_with("HTTP/1.1 408"), "{text}");
        server.shutdown();
    }

    #[test]
    fn shutdown_waits_for_in_flight_connections() {
        let server = start(Arc::new(|_req: &Request| {
            thread::sleep(Duration::from_millis(50));
            Response::text(200, "done")
        }));
        let addr = server.addr();
        let client = thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap();
            read_all(&mut stream)
        });
        thread::sleep(Duration::from_millis(10));
        server.shutdown();
        assert!(client.join().unwrap().contains("done"));
    }
}
