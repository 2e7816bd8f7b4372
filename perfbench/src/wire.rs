//! The daemon under test and a well-behaved client for it.
//!
//! The client frames every request itself and sends it with one
//! contiguous write, and sets `TCP_NODELAY` on its socket, so no stall it
//! measures comes from the client side. It deliberately does not use
//! `regtree_serve::rpc::write_message`, which writes the header and the
//! body as two writes.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use regtree_core::api::Json;

use crate::sys::{self, Usage};

/// Largest response body the client accepts.
const MAX_BODY: usize = 256 << 20;

/// How the client reaches the daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// `rtpserved --stdio`: one client over the child's stdin/stdout.
    Stdio,
    /// `rtpserved --tcp 127.0.0.1:0`: loopback connections.
    Tcp,
}

/// A running `rtpserved` child process.
pub struct Server {
    child: Child,
    addr: Option<SocketAddr>,
    /// Kept open so the daemon can still write diagnostics.
    _stderr: Option<BufReader<ChildStderr>>,
}

/// One duplex connection to the daemon.
pub struct Conn {
    writer: Box<dyn Write + Send>,
    reader: BufReader<Box<dyn Read + Send>>,
    next_id: u64,
}

/// The timestamps of one request/response exchange.
pub struct Exchange {
    /// The response body.
    pub response: Vec<u8>,
    /// Before the request frame was written.
    pub sent: Instant,
    /// After the request frame was written.
    pub written: Instant,
    /// After the whole response frame was read.
    pub received: Instant,
}

impl Exchange {
    /// Send-to-full-response latency.
    pub fn wire_ns(&self) -> u64 {
        (self.received - self.sent).as_nanos() as u64
    }
}

/// A response that carried `error` instead of `result`.
#[derive(Debug)]
pub struct RpcFailure(pub String);

impl Server {
    /// Starts `bin` with the given transport; for stdio also returns the
    /// connection over its pipes.
    pub fn spawn(bin: &Path, transport: Transport) -> io::Result<(Server, Option<Conn>)> {
        match transport {
            Transport::Stdio => {
                let mut child = Command::new(bin)
                    .arg("--stdio")
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::null())
                    .spawn()?;
                let stdin = child.stdin.take().expect("stdin was piped");
                let stdout = child.stdout.take().expect("stdout was piped");
                let conn = Conn::new(Box::new(stdin), Box::new(stdout));
                let server = Server {
                    child,
                    addr: None,
                    _stderr: None,
                };
                Ok((server, Some(conn)))
            }
            Transport::Tcp => {
                let mut child = Command::new(bin)
                    .args(["--tcp", "127.0.0.1:0"])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::piped())
                    .spawn()?;
                let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
                let mut line = String::new();
                stderr.read_line(&mut line)?;
                let addr = line
                    .trim()
                    .strip_prefix("rtpserved listening on ")
                    .and_then(|a| a.parse().ok());
                let Some(addr) = addr else {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(io::Error::other(format!(
                        "rtpserved did not report its address: {line:?}"
                    )));
                };
                let server = Server {
                    child,
                    addr: Some(addr),
                    _stderr: Some(stderr),
                };
                Ok((server, None))
            }
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Opens one more TCP connection, with Nagle's algorithm off.
    pub fn connect(&self) -> io::Result<Conn> {
        let addr = self
            .addr
            .ok_or_else(|| io::Error::other("connect needs a TCP server"))?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok(Conn::new(Box::new(stream), Box::new(read_half)))
    }

    /// CPU time the daemon has used so far, all threads included.
    pub fn cpu_ns(&self) -> io::Result<u64> {
        sys::process_cpu_ns(self.pid())
    }

    /// Sends `shutdown` on `conn`, closes every connection and reaps the
    /// process, returning its lifetime resource usage. A daemon that does
    /// not exit within ten seconds is killed and reported as an error.
    pub fn shutdown(mut self, mut conns: Vec<Conn>) -> io::Result<Usage> {
        let reply = match conns.first_mut() {
            Some(conn) => conn.call("shutdown", Json::Null).map(|_| ()),
            None => Ok(()),
        };
        drop(conns);
        let pid = self.pid();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(usage) = sys::try_reap(pid)? {
                return match reply {
                    Ok(()) => Ok(usage),
                    Err(e) => Err(io::Error::other(format!("shutdown failed: {e:?}"))),
                };
            }
            if Instant::now() > deadline {
                self.child.kill()?;
                while sys::try_reap(pid)?.is_none() {
                    std::thread::sleep(Duration::from_millis(5));
                }
                return Err(io::Error::other("rtpserved did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Kills and reaps the daemon (error paths).
    pub fn kill(mut self) {
        let pid = self.pid();
        let _ = self.child.kill();
        while let Ok(None) = sys::try_reap(pid) {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// `Content-Length` framing of `body`, as one buffer.
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = format!("Content-Length: {}\r\n\r\n", body.len()).into_bytes();
    out.extend_from_slice(body);
    out
}

fn read_frame(reader: &mut impl BufRead) -> io::Result<Vec<u8>> {
    let mut len: Option<usize> = None;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().ok();
            }
        }
    }
    let len = len
        .filter(|&n| n <= MAX_BODY)
        .ok_or_else(|| io::Error::other("missing or oversized Content-Length"))?;
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(body)
}

impl Conn {
    fn new(writer: Box<dyn Write + Send>, reader: Box<dyn Read + Send>) -> Conn {
        Conn {
            writer,
            reader: BufReader::with_capacity(1 << 16, reader),
            next_id: 1,
        }
    }

    /// The compact request body for `method` with `params`, under a fresh id.
    pub fn request_body(&mut self, method: &str, params: Json) -> Vec<u8> {
        let id = self.next_id;
        self.next_id += 1;
        let mut members = vec![
            ("jsonrpc".to_string(), Json::str("2.0")),
            ("id".to_string(), Json::u64(id)),
            ("method".to_string(), Json::str(method)),
        ];
        if !params.is_null() {
            members.push(("params".to_string(), params));
        }
        Json::Obj(members).to_compact().into_bytes()
    }

    /// The request body for a session method: `params` is the compact
    /// JSON object of every param except `sessionId`, which is put first.
    /// Splicing text keeps a megabyte-sized `document/load` cheap to send.
    pub fn session_body(&mut self, method: &str, sid: u64, params: &str) -> Vec<u8> {
        let id = self.next_id;
        self.next_id += 1;
        let rest = params.strip_prefix('{').expect("params is a JSON object");
        let sep = if rest == "}" { "" } else { "," };
        format!(
            r#"{{"jsonrpc":"2.0","id":{id},"method":"{method}","params":{{"sessionId":{sid}{sep}{rest}}}"#
        )
        .into_bytes()
    }

    /// Writes one pre-built frame and reads the one response, timed.
    pub fn exchange(&mut self, framed: &[u8]) -> io::Result<Exchange> {
        let sent = Instant::now();
        self.writer.write_all(framed)?;
        self.writer.flush()?;
        let written = Instant::now();
        let response = read_frame(&mut self.reader)?;
        let received = Instant::now();
        Ok(Exchange {
            response,
            sent,
            written,
            received,
        })
    }

    /// An untimed call for set-up and tear-down: the `result`, or the error.
    pub fn call(&mut self, method: &str, params: Json) -> Result<Json, RpcFailure> {
        let body = self.request_body(method, params);
        let ex = self
            .exchange(&frame(&body))
            .map_err(|e| RpcFailure(format!("{method}: {e}")))?;
        result_of(&ex.response).map_err(|e| RpcFailure(format!("{method}: {}", e.0)))
    }
}

/// Splits a response body into its `result` or its `error`.
pub fn result_of(body: &[u8]) -> Result<Json, RpcFailure> {
    let text = std::str::from_utf8(body).map_err(|_| RpcFailure("non-UTF-8 response".into()))?;
    let value =
        crate::json::parse(text).map_err(|e| RpcFailure(format!("unparsable response: {e}")))?;
    if let Some(err) = value.get("error") {
        return Err(RpcFailure(err.to_compact()));
    }
    value
        .get("result")
        .cloned()
        .ok_or_else(|| RpcFailure("response without result".into()))
}
