//! Socket transports: the same [`ServeHandle`] front door, reachable
//! over TCP or a Unix-domain socket with the [`wire`] frame protocol
//! (std only — no async runtime, no external crates).
//!
//! Threading model: one non-blocking accept loop per listener (polled
//! so [`ListenerHandle::stop`] and `Drop` can interrupt it), one
//! blocking thread per connection. Each connection thread speaks
//! frames synchronously — read a request, push it through the handle
//! (admission control and all: a remote client sees exactly the same
//! typed backpressure as an in-process one), write the reply. A
//! malformed frame closes the connection; it never reaches the engine
//! and never panics the server.
//!
//! Client-side crash safety (protocol v3): every request carries a
//! `u64` id the server echoes in its reply. [`RemoteClient`] maps a
//! mid-frame disconnect to the typed
//! [`WireError::ConnectionLost`] —
//! distinguishable from hostile frames — and, when it owns a dialer,
//! redials under a bounded exponential backoff ([`RetryPolicy`]) and
//! **resends the same id**. Evaluation is pure, so the retry is
//! idempotent: re-executing a request whose reply was torn cannot
//! change any answer, and a reply whose id does not match the request
//! in flight is rejected instead of being mistaken for the answer.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::error::ServeError;
use crate::server::{Request, Response, ServeHandle};
use crate::wire::{self, WireError, MAX_FRAME_LEN};

/// How often the accept loop re-checks its stop flag while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Why a [`RemoteClient`] call failed (after exhausting any retries).
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (dialing, writing, or a non-disconnect
    /// read error).
    Io(io::Error),
    /// The peer violated the frame protocol, or —
    /// [`WireError::ConnectionLost`] — disconnected mid-frame.
    Wire(WireError),
}

impl ClientError {
    /// Whether redialing can fix this failure: the connection died
    /// (mid-frame, between frames, or on write) rather than the peer
    /// speaking a broken protocol — resending identical bytes to a
    /// protocol violator would fail identically.
    pub fn is_connection_lost(&self) -> bool {
        match self {
            ClientError::Wire(WireError::ConnectionLost { .. }) => true,
            ClientError::Wire(_) => false,
            ClientError::Io(e) => is_disconnect(e),
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// `io::Error` kinds that mean the connection is gone (as opposed to
/// a local or protocol problem a redial cannot fix).
fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
            | io::ErrorKind::WriteZero
    )
}

/// Writes one `u32`-length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_LEN)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary (the
/// peer hung up between requests), `Err` on a torn frame
/// (`UnexpectedEof`) or an oversized length prefix (`InvalidData`).
/// The server side's view of the one frame reader [`RemoteClient`]
/// uses, with its typed errors mapped to `io::Error`s.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    read_frame_typed(r).map_err(|e| match e {
        ClientError::Io(e) => e,
        ClientError::Wire(e @ WireError::FrameTooLarge(_)) => {
            io::Error::new(io::ErrorKind::InvalidData, e)
        }
        ClientError::Wire(e) => io::Error::new(io::ErrorKind::UnexpectedEof, e),
    })
}

/// The one frame reader. `Ok(None)` on a clean EOF at a frame boundary;
/// a disconnect mid-frame (EOF, or a reset/abort, after some bytes
/// arrived — or before any, on a connection-level error) comes back as
/// the typed [`WireError::ConnectionLost`] carrying how many bytes of
/// the frame had landed: the signal [`RemoteClient`] uses to decide a
/// redial-and-resend is safe.
fn read_frame_typed<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, ClientError> {
    let mut prefix = [0u8; 4];
    let mut payload = Vec::new();
    // Bytes of this frame received so far, prefix first.
    let mut read = 0;
    while read < prefix.len() + payload.len() {
        let buf = match read.checked_sub(prefix.len()) {
            None => &mut prefix[read..],
            Some(at) => &mut payload[at..],
        };
        let lost = ClientError::Wire(WireError::ConnectionLost { bytes_read: read });
        match r.read(buf) {
            Ok(0) if read == 0 => return Ok(None),
            Ok(0) => return Err(lost),
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_disconnect(&e) => return Err(lost),
            Err(e) => return Err(ClientError::Io(e)),
        }
        if read == prefix.len() {
            let len = u32::from_le_bytes(prefix);
            if len > MAX_FRAME_LEN {
                return Err(ClientError::Wire(WireError::FrameTooLarge(len)));
            }
            payload = vec![0u8; len as usize];
        }
    }
    Ok(Some(payload))
}

/// Serves one connection until the peer hangs up: decode a request,
/// run it through `handle` (same admission control as in-process
/// callers), reply with the response or the typed error. Returns `Err`
/// only on transport failures or protocol violations — engine and
/// backpressure errors travel *inside* the protocol.
pub fn serve_connection<S: Read + Write>(handle: &ServeHandle, stream: &mut S) -> io::Result<()> {
    loop {
        let Some(payload) = read_frame(stream)? else {
            return Ok(());
        };
        let (id, reply) = match wire::decode_request(&payload) {
            Ok((id, request)) => (id, handle.request(request)),
            Err(e) => {
                // Framing is broken — past this point offsets can't be
                // trusted, so close rather than guess.
                return Err(io::Error::new(io::ErrorKind::InvalidData, e));
            }
        };
        // Echo the request's id so the client can pair the reply with
        // the request in flight (and a retried request with its rerun).
        let bytes = match &reply {
            Ok(response) => wire::encode_response(id, response),
            Err(err) => wire::encode_error(id, err),
        };
        write_frame(stream, &bytes)?;
    }
}

/// Where a listener is bound.
#[derive(Clone, Debug)]
pub enum BoundAddr {
    /// A TCP socket address (with the OS-assigned port when bound to
    /// port 0).
    Tcp(SocketAddr),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

/// A running accept loop. Dropping it (or calling
/// [`stop`](ListenerHandle::stop)) stops accepting new connections;
/// already-established connections finish their in-flight exchanges on
/// their own threads.
pub struct ListenerHandle {
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    addr: BoundAddr,
}

impl ListenerHandle {
    /// Where this listener accepts connections.
    pub fn addr(&self) -> &BoundAddr {
        &self.addr
    }

    /// The bound TCP address, for `TcpStream::connect` in tests
    /// (`None` for Unix listeners).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match self.addr {
            BoundAddr::Tcp(addr) => Some(addr),
            #[cfg(unix)]
            BoundAddr::Unix(_) => None,
        }
    }

    /// Stops the accept loop and joins it.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        #[cfg(unix)]
        if let BoundAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for ListenerHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Binds a TCP listener and serves `handle` from it; bind to port 0
/// for an OS-assigned port ([`ListenerHandle::tcp_addr`] reports it).
pub fn listen_tcp(handle: ServeHandle, addr: impl ToSocketAddrs) -> io::Result<ListenerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_thread = spawn_accept_loop(handle, Arc::clone(&stop), move || {
        // The accept socket is non-blocking; connections are served
        // blocking on their own threads.
        let (stream, _peer) = listener.accept()?;
        let _ = stream.set_nonblocking(false);
        Ok(stream)
    });
    Ok(ListenerHandle {
        stop,
        accept_thread: Some(accept_thread),
        addr: BoundAddr::Tcp(local),
    })
}

/// Binds a Unix-domain socket at `path` and serves `handle` from it;
/// the socket file is removed when the listener stops.
#[cfg(unix)]
pub fn listen_unix(handle: ServeHandle, path: impl AsRef<Path>) -> io::Result<ListenerHandle> {
    let path = path.as_ref().to_path_buf();
    let listener = UnixListener::bind(&path)?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_thread = spawn_accept_loop(handle, Arc::clone(&stop), move || {
        let (stream, _peer) = listener.accept()?;
        let _ = stream.set_nonblocking(false);
        Ok(stream)
    });
    Ok(ListenerHandle {
        stop,
        accept_thread: Some(accept_thread),
        addr: BoundAddr::Unix(path),
    })
}

/// The accept loop of both transports, on its own thread until `stop`:
/// each accepted connection is served on a thread of its own, an idle
/// poll sleeps, and any other accept error stops the loop.
fn spawn_accept_loop<S: Read + Write + Send + 'static>(
    handle: ServeHandle,
    stop: Arc<AtomicBool>,
    mut accept: impl FnMut() -> io::Result<S> + Send + 'static,
) -> JoinHandle<()> {
    thread::Builder::new()
        .name("intext-serve-accept".into())
        .spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match accept() {
                    Ok(mut stream) => {
                        let handle = handle.clone();
                        thread::spawn(move || {
                            let _ = serve_connection(&handle, &mut stream);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
                    Err(_) => stop.store(true, Ordering::Relaxed),
                }
            }
        })
        .expect("spawning the accept thread")
}

/// Reconnect policy for [`RemoteClient`]: bounded exponential backoff.
///
/// After a lost connection, attempt `i` (zero-based) sleeps
/// `base_delay · 2^i` (capped at `max_delay`), redials, and resends
/// the in-flight request under its original id. At most `max_retries`
/// redials per request; the policy never retries protocol violations,
/// only lost connections ([`ClientError::is_connection_lost`]).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Redial attempts per request after a lost connection
    /// (`0` disables reconnection entirely).
    pub max_retries: u32,
    /// Sleep before the first redial; doubles on each further attempt.
    pub base_delay: Duration,
    /// Upper bound on the backoff sleep.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(320),
        }
    }
}

impl RetryPolicy {
    /// No reconnection: the first lost connection is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    fn delay(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.min(16);
        self.base_delay.saturating_mul(factor).min(self.max_delay)
    }
}

/// Re-establishes a [`RemoteClient`]'s transport after a lost
/// connection.
type Dialer<S> = Box<dyn FnMut() -> io::Result<S> + Send>;

/// A blocking frame-protocol client over any byte stream.
///
/// Requests carry monotonically increasing ids (protocol v3). When
/// the client owns a dialer ([`connect`](RemoteClient::connect),
/// [`connect_unix`](RemoteClient::connect_unix), or
/// [`with_dialer`](RemoteClient::with_dialer)), a connection lost
/// mid-exchange is retried under [`RetryPolicy`]: redial, resend the
/// *same* id, accept only a reply echoing it. Evaluation is pure, so
/// the resend is idempotent — at worst the server computes the same
/// pure answer twice.
pub struct RemoteClient<S: Read + Write> {
    stream: S,
    next_id: u64,
    dialer: Option<Dialer<S>>,
    retry: RetryPolicy,
}

impl RemoteClient<TcpStream> {
    /// Connects over TCP and remembers the resolved addresses for
    /// reconnection under the default [`RetryPolicy`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = TcpStream::connect(&addrs[..])?;
        Ok(RemoteClient::new(stream).with_dialer(move || TcpStream::connect(&addrs[..])))
    }
}

#[cfg(unix)]
impl RemoteClient<UnixStream> {
    /// Connects over a Unix-domain socket and remembers the path for
    /// reconnection under the default [`RetryPolicy`].
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let stream = UnixStream::connect(&path)?;
        Ok(RemoteClient::new(stream).with_dialer(move || UnixStream::connect(&path)))
    }
}

impl<S: Read + Write> RemoteClient<S> {
    /// Wraps an already-connected stream. Without a dialer the client
    /// cannot reconnect: the first lost connection surfaces as
    /// [`WireError::ConnectionLost`].
    pub fn new(stream: S) -> Self {
        RemoteClient {
            stream,
            next_id: 0,
            dialer: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Installs (or replaces) the dialer used for reconnection — how a
    /// custom transport, or a fault-injecting test, opts into
    /// [`RetryPolicy`] retries.
    pub fn with_dialer(mut self, dialer: impl FnMut() -> io::Result<S> + Send + 'static) -> Self {
        self.dialer = Some(Box::new(dialer));
        self
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// One round trip. The outer `Result` is transport health; the
    /// inner one is the server's verdict (answers and typed
    /// backpressure both decode losslessly — exact probabilities
    /// compare `==` against a local engine's). A lost connection is
    /// retried per [`RetryPolicy`] when a dialer is installed: same
    /// request id over a fresh connection, so the retry is idempotent
    /// and a mismatched reply id is rejected as a protocol error.
    pub fn request(&mut self, req: &Request) -> Result<Result<Response, ServeError>, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = wire::encode_request(id, req);
        let mut attempt = 0u32;
        loop {
            match self.round_trip(id, &frame) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    let retryable = e.is_connection_lost() && self.dialer.is_some();
                    if !retryable || attempt >= self.retry.max_retries {
                        return Err(e);
                    }
                    thread::sleep(self.retry.delay(attempt));
                    attempt += 1;
                    if let Ok(fresh) = (self.dialer.as_mut().expect("dialer checked above"))() {
                        self.stream = fresh;
                    }
                    // A failed redial leaves the dead stream in place:
                    // the next round trip fails as connection-lost and
                    // consumes the next attempt, keeping the loop
                    // bounded by `max_retries`.
                }
            }
        }
    }

    fn round_trip(
        &mut self,
        id: u64,
        frame: &[u8],
    ) -> Result<Result<Response, ServeError>, ClientError> {
        write_frame(&mut self.stream, frame)?;
        // A server that hangs up between our request and its reply is
        // a lost connection too (zero reply bytes arrived), not a
        // clean end-of-session: the request is still unresolved.
        let payload = read_frame_typed(&mut self.stream)?.ok_or(ClientError::Wire(
            WireError::ConnectionLost { bytes_read: 0 },
        ))?;
        let (reply_id, reply) = wire::decode_reply(&payload).map_err(ClientError::Wire)?;
        if reply_id != id {
            // A reply for some other request (e.g. a stale frame from
            // a half-duplex proxy) must not be mistaken for ours.
            return Err(ClientError::Wire(WireError::BadValue("response id")));
        }
        Ok(reply)
    }

    /// The underlying stream (e.g. to set timeouts).
    pub fn stream(&self) -> &S {
        &self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io::Cursor;
    use std::sync::Mutex;

    /// A scripted transport: reads drain a fixed byte script (EOF
    /// after — a disconnect if a frame is still in flight), writes are
    /// swallowed. The deterministic stand-in for a server that dies
    /// mid-reply.
    struct ScriptStream(Cursor<Vec<u8>>);

    impl Read for ScriptStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl Write for ScriptStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The framed wire bytes of a `Pong` reply echoing `id`.
    fn pong_frame(id: u64) -> Vec<u8> {
        let mut framed = Vec::new();
        write_frame(&mut framed, &wire::encode_response(id, &Response::Pong)).unwrap();
        framed
    }

    fn instant_retry(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    #[test]
    fn mid_frame_disconnect_is_typed_with_byte_count() {
        let torn = pong_frame(0)[..7].to_vec();
        let mut client = RemoteClient::new(ScriptStream(Cursor::new(torn)));
        // No dialer: the loss is final and typed, not a raw io::Error.
        let err = client.request(&Request::Ping).unwrap_err();
        assert!(matches!(
            err,
            ClientError::Wire(WireError::ConnectionLost { bytes_read: 7 })
        ));
        assert!(err.is_connection_lost());
    }

    #[test]
    fn reconnect_resends_the_same_id_and_succeeds() {
        // First connection tears the reply mid-frame; the redialed one
        // answers in full — and must echo id 0, the *original* id.
        let replacements = Mutex::new(VecDeque::from([ScriptStream(Cursor::new(pong_frame(0)))]));
        let mut client =
            RemoteClient::new(ScriptStream(Cursor::new(pong_frame(0)[..3].to_vec())))
                .with_dialer(move || {
                    replacements.lock().unwrap().pop_front().ok_or_else(|| {
                        io::Error::new(io::ErrorKind::ConnectionRefused, "no server")
                    })
                })
                .with_retry(instant_retry(2));
        let reply = client.request(&Request::Ping).unwrap().unwrap();
        assert!(matches!(reply, Response::Pong));
    }

    #[test]
    fn mismatched_reply_ids_are_protocol_errors_not_retried() {
        // The server echoes id 5 for our id-0 request: a protocol
        // violation. The dialer must never fire — retrying can't fix a
        // peer that answers the wrong request.
        let dials = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let dials_in_dialer = Arc::clone(&dials);
        let mut client = RemoteClient::new(ScriptStream(Cursor::new(pong_frame(5))))
            .with_dialer(move || {
                dials_in_dialer.fetch_add(1, Ordering::Relaxed);
                Ok(ScriptStream(Cursor::new(Vec::new())))
            })
            .with_retry(instant_retry(3));
        let err = client.request(&Request::Ping).unwrap_err();
        assert!(matches!(
            err,
            ClientError::Wire(WireError::BadValue("response id"))
        ));
        assert!(!err.is_connection_lost());
        assert_eq!(dials.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn retries_are_bounded_by_the_policy() {
        // Every connection (initial + redials) EOFs before replying;
        // the client must give up after exactly `max_retries` redials.
        let dials = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let dials_in_dialer = Arc::clone(&dials);
        let mut client = RemoteClient::new(ScriptStream(Cursor::new(Vec::new())))
            .with_dialer(move || {
                dials_in_dialer.fetch_add(1, Ordering::Relaxed);
                Ok(ScriptStream(Cursor::new(Vec::new())))
            })
            .with_retry(instant_retry(3));
        let err = client.request(&Request::Ping).unwrap_err();
        assert!(err.is_connection_lost());
        assert_eq!(dials.load(Ordering::Relaxed), 3);
    }
}
