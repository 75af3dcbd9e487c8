//! The TCP serving layer: the `ctxpref` serving core over real
//! sockets.
//!
//! Two pillars, one framing discipline:
//!
//! * [`frame`] — length-prefixed frames with a word-at-a-time checksum
//!   (the WAL record framing minus the LSN), verified and decoded where
//!   they landed. The declared length is capped **before allocation**,
//!   so hostile peers cost a header read, not memory.
//! * [`proto`] + `codec` + `server`/`client` — a request/response
//!   vocabulary and its one wire encoding (`ctxpref2`: binary,
//!   id-tagged for pipelining) over those frames; [`NetServer`] fronts
//!   a shared [`CtxPrefService`](ctxpref_service::CtxPrefService) with
//!   connection admission, socket deadlines, panic containment, and
//!   graceful drain; [`NetClient`] is the blocking peer with
//!   reconnect and idempotent-only retry.
//!
//! Every socket operation passes a deterministic fault site
//! (`net.accept`, `net.frame.read`, `net.frame.write`,
//! `net.conn.delay`, `net.conn.drop`), so torn frames, dead
//! connections, and stalled links are scripted test inputs here, not
//! production surprises.
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use ctxpref_core::MultiUserDb;
//! use ctxpref_net::{NetClient, NetClientConfig, NetServer, NetServerConfig};
//! use ctxpref_service::{CtxPrefService, ServiceConfig};
//! use ctxpref_workload::reference::{poi_env, poi_relation};
//!
//! let env = poi_env();
//! let db = MultiUserDb::new(env.clone(), poi_relation(&env, 7, 2), 8);
//! let service = Arc::new(CtxPrefService::new(db, ServiceConfig::default()));
//! let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), NetServerConfig::default())
//!     .expect("bind loopback");
//!
//! let mut client = NetClient::connect(server.local_addr().to_string(), NetClientConfig::default());
//! client.ping().expect("server is live");
//! client.add_user("alice").expect("create alice");
//! client
//!     .insert_preference("alice", "accompanying_people = friends", "type", "museum", 0.8)
//!     .expect("insert preference");
//! let answer = client
//!     .query("alice", "name", 3, Duration::from_millis(250), &["Plaka", "warm", "friends"])
//!     .expect("remote query");
//! assert!(!answer.rows.is_empty());
//!
//! server.shutdown();
//! ```

#![warn(missing_docs)]

mod client;
mod codec;
mod dispatch;
mod error;
pub mod frame;
pub mod proto;
mod reactor;
mod server;

pub use client::{NetClient, NetClientConfig};
pub use codec::{
    decode_request, decode_response, encode_request, encode_request_enveloped, encode_response,
    is_binary, WireRequest, WireResponse, BINARY_MAGIC, BINARY_VERSION, CONNECTION_ID,
};
pub use dispatch::serve_request;
// The framed twin of `serve_request`, exported for the crate's
// integration tests (`tests/answer_frame.rs`, `tests/answer_allocs.rs`),
// which check the server's answer bytes and allocations in process.
#[doc(hidden)]
pub use dispatch::serve_frame;
// The tier vocabulary travels in the wire envelope; re-exported so
// network callers need not depend on the service crate for it.
pub use ctxpref_service::Priority;
pub use error::{DecodeError, DecodeKind, FrameError, NetError, ProtoError};
pub use frame::{
    encode_frame, frame_checksum, read_frame, write_frame, FrameDecoder, FRAME_HEADER,
    MAX_FRAME_PAYLOAD,
};
pub use proto::{
    AnswerRow, MigrateAction, Outgoing, RemoteAnswer, Request, RequestRef, Response, WireFallback,
};
pub use server::{NetServer, NetServerConfig};
