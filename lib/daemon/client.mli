(** Blocking client for the daemon's {!Protocol}: connect → handshake
    → submit (one at a time, or pipelined) → close.

    Deliberately the simple half of the pair — plain blocking reads and
    writes, no select loop (the nonblocking, multiplexed counterpart is
    {!Loadgen}). One [t] is one connection and is not thread-safe.

    The server answers submissions {e in order}, so the pipelined
    {!submit_all} matches replies to requests positionally;
    {!send_submit}/{!read_reply} expose the two halves raw for callers
    (tests, drain choreography) that need to write without reading. *)

type t

type error =
  | Connection_closed  (** EOF / EPIPE / ECONNRESET mid-conversation *)
  | Protocol_failure of string
      (** unexpected frame, undecodable payload, or a version/CRC
          violation — the connection is useless afterwards *)

val error_message : error -> string

type connect_error =
  | Connect_failed of string  (** socket/connect level, e.g. refused *)
  | Rejected of string  (** the server's {!Protocol.Rejected} reason *)
  | Handshake_failed of error

val connect_error_message : connect_error -> string

val connect :
  ?client:string ->
  ?auth_token:string ->
  Protocol.address ->
  (t, connect_error) result
(** TCP or Unix-domain connect + [Hello]/[Welcome] handshake. [client]
    names this client to the server (default ["client"]). Sets SIGPIPE
    to ignored for the process, so a server hangup surfaces as
    [Connection_closed] rather than a fatal signal. *)

val window : t -> int
(** The per-connection inflight window the server advertised in its
    [Welcome] — the deepest {!submit_all} pipelines by default. *)

val server_pid : t -> int

val submit :
  t -> Tabseg_serve.Service.request -> (Protocol.reply, error) result
(** One request, blocking until its reply. *)

val submit_all :
  t ->
  ?window:int ->
  Tabseg_serve.Service.request list ->
  (Protocol.reply list, error) result
(** Pipelined: keep up to [window] (default {!window}[ t]) requests
    outstanding, reading replies as the window fills. Replies come
    back in request order. A [window] above the server's is allowed —
    the excess is refused in-order with [Gateway_overloaded], which is
    exactly how the limit is tested. *)

val send_submit : t -> Tabseg_serve.Service.request -> (int, error) result
(** Write one [Submit] frame without waiting; returns its seq. *)

val read_reply : t -> (int * Protocol.reply, error) result
(** Block for the next [Reply] frame. *)

val stats : t -> ((string * float) list, error) result
(** [Stats_request]/[Stats] round trip. Only meaningful with no
    outstanding {!send_submit}s — stats frames are out-of-band on the
    server and would interleave with pending replies. *)

val close : t -> unit
(** Best-effort [Goodbye], then close the socket. Idempotent. *)
