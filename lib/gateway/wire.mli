(** The gateway's wire protocol: length-prefixed, CRC-32-framed,
    versioned messages over a Unix-domain socket.

    The framing discipline is {!Tabseg_store.Store}'s, applied to a
    stream: every message is one frame

    {v "TSGW" + u32be version + u32be crc + u32be length + payload v}

    where the CRC covers exactly the payload bytes. It is
    {!Tabseg_store.Crc32}, the store's own checksum. The payload is the
    marshalled {!message} (pure data only — requests and responses are
    records of strings and variants, never closures). Unlike the store's
    segment scan there is {e no resync}: a socket either delivers intact
    frames in order or it is broken, so any header that fails to verify
    is a fatal, {e typed} decode error and the connection is abandoned —
    the supervisor treats it exactly like a dead worker.

    Master and workers are always the same binary (the workers are
    forks), so marshalling is version-safe by construction; the version
    field guards against a master accidentally pointed at a socket of a
    different build. *)

val protocol_version : int

val max_payload : int
(** Hard cap on a frame's payload length, enforced {e before} any
    payload allocation on both the incremental and blocking decode
    paths. Part of the protocol contract (changing it is a version
    bump): a length header above the cap is the typed
    [Frame_too_large] error, and the connection is abandoned like any
    other framing failure. *)

type message =
  | Hello of { pid : int; role : string }
      (** first message a worker sends; [role] is the store role it got
          ("writer", "reader" or "none") *)
  | Request of { seq : int; request : Tabseg_serve.Service.request }
      (** A request carries its input and nothing else: no message
          chooses how long a worker sleeps or names a path for it.
          Tests and benches crash a worker by killing it ([Unix.kill]
          on a pid from {!Gateway.worker_pids}) and model service time
          with {!Tabseg_serve.Service.config.simulated_fetch_s}. *)
  | Response of { seq : int; reply : Tabseg_serve.Service.reply }
      (** the answer with its result as the encoded body: a store hit's
          body is the one its blob holds, and the master forwards it
          without decoding *)
  | Ping of int
  | Pong of int
      (** echoes the ping's token. A worker reads a Ping only between
          requests, so a Pong reports liveness, not load: the master
          keeps its own per-worker backlog for spill and shed. *)
  | Shutdown  (** master → worker: finish up and exit cleanly *)

type decode_error =
  | Bad_magic
  | Bad_version of int  (** the version the frame claimed *)
  | Bad_crc
  | Frame_too_large of int
      (** the length the header claimed; nothing was allocated *)
  | Bad_payload of string  (** framing intact, marshalling failed *)

val decode_error_message : decode_error -> string

(** {2 Payload-agnostic framing}

    The header/CRC layer moves opaque byte strings; any protocol riding
    this transport (the master↔worker {!message}s here, the daemon's
    client-edge messages) supplies its own payload codec on top, so
    there is exactly one framing path in the tree. *)

val frame_payload : string -> string
(** Wrap arbitrary payload bytes in one complete frame, ready to
    write. *)

val decode_frame :
  ?off:int ->
  ?stop:int ->
  string ->
  [ `Frame of string * int | `Need_more | `Error of decode_error ]
(** Try to parse one frame from the bytes [\[off, stop)] of the buffer
    ([off] defaults to 0, [stop] to its length).
    [`Frame (payload, n)] also returns the offset just past the frame,
    for the next call; [`Need_more] means the bytes hold only a frame
    prefix. Never inspects the payload bytes beyond the CRC. *)

val frame_size : string -> int option
(** [Some n] when the buffer starts with a whole header that passes
    {!decode_frame}'s checks (magic, version, {!max_payload}): [n] is
    the size, header included, of the frame it announces. [None] for a
    short or failing header. *)

val encode : message -> string
(** One complete frame carrying a marshalled {!message}, ready to
    write. [encode m = frame_payload (marshalled m)]. *)

val decode_payload : string -> (message, decode_error) result
(** Unmarshal one CRC-verified frame payload (as returned by
    {!decode_frame}) into a {!message}. *)

val decode :
  ?off:int ->
  string ->
  [ `Msg of message * int | `Need_more | `Error of decode_error ]
(** [decode_frame] composed with [decode_payload]. *)

val read_message :
  Unix.file_descr -> (message, [ `Eof | `Decode of decode_error ]) result
(** Blocking read of exactly one frame — the worker side, where plain
    blocking I/O is the correct loop. *)

val write_message : Unix.file_descr -> message -> unit
(** Blocking write of one frame. Raises [Unix.Unix_error] on a broken
    socket. *)

(** {2 Select-loop building blocks}

    The only IO primitives allowed inside a select loop (lint rule
    TS004 [blocking-io-select]): each returns every transient condition
    — EINTR, EAGAIN — as a value the loop can route to its next select
    round, and a peer death as a value rather than an exception escaping
    mid-step. *)

val read_nonblock :
  Unix.file_descr ->
  bytes ->
  int ->
  int ->
  [ `Data of int | `Eof | `Retry | `Broken ]
(** One nonblocking read step. [`Retry] covers EAGAIN/EWOULDBLOCK/EINTR;
    [`Broken] covers ECONNRESET/EPIPE. *)

val write_nonblock :
  Unix.file_descr ->
  bytes ->
  int ->
  int ->
  [ `Wrote of int | `Retry | `Broken ]
(** One nonblocking write step, same conventions as {!read_nonblock}. *)

val sleep_s : float -> unit
(** Sleep for the full duration even if signals (SIGCHLD, SIGTERM)
    interrupt [Unix.sleepf] early. *)
