(** A transport-neutral connection buffer over the {!Wire} framing:
    one incremental inbound decoder and one outbound frame queue per
    socket, built exclusively from the select-loop primitives
    ({!Wire.read_nonblock} / {!Wire.write_nonblock}).

    It is the tree's one frame reader. The gateway master talks to its
    forked workers through it, the daemon's network edge and the load
    generator's client connections reuse it unchanged, and the blocking
    [Tabseg_daemon.Client] reads through it over its blocking
    descriptor. The one other place that turns bytes into CRC-verified
    payloads is the worker's {!Wire.read_message}, which reads exactly
    one header and then exactly its payload.

    Inbound bytes live in one buffer per connection. A read goes
    straight into its free tail and frames are decoded in place, so a
    read allocates nothing once the buffer exists (the payloads are the
    only copies), and a frame of n bytes costs O(n) copying however many
    reads deliver it. The buffer starts at 64 KB, doubles when one
    partial frame fills it, never grows past the end of a frame whose
    header has passed its checks, and is dropped once drained if a large
    frame had grown it.

    The ['tag] parameter lets a caller label outbound frames (the
    gateway tags request frames with their sequence number) and learn,
    from {!write_step}, exactly which labelled frames hit the socket
    this turn — the hook dispatch-latency accounting hangs off. *)

type 'tag t

val create : Unix.file_descr -> 'tag t
(** Wrap an already-connected descriptor: nonblocking under a select
    loop, or blocking for a plain reader (see {!read_step}). [Conn]
    never changes descriptor flags and never closes the descriptor —
    lifecycle stays with the owner. *)

val fd : _ t -> Unix.file_descr

val send : ?tag:'tag -> 'tag t -> string -> unit
(** Queue one complete frame (as built by {!Wire.frame_payload} or
    {!Wire.encode}) for writing. Never blocks; backpressure surfaces
    as {!pending_output}, not as a stalled caller. *)

val pending_output : _ t -> bool
(** Frames queued (or partially written) and still owed to the socket
    — include this connection in the select write set iff true. *)

type close_reason =
  | Eof  (** orderly close from the peer *)
  | Reset  (** ECONNRESET / EPIPE *)
  | Protocol of Wire.decode_error
      (** the stream stopped being a frame stream; unrecoverable — the
          wire protocol has no resync *)

val close_reason_message : close_reason -> string

type read_result = {
  frames : string list;
      (** CRC-verified frame payloads decoded this step, oldest first;
          possibly empty (short read, or EAGAIN) *)
  bytes_read : int;
      (** bytes the socket delivered this step, whole frames or not —
          what an idle clock should count *)
  closed : close_reason option;
      (** [Some _] once the connection is dead. Frames decoded before
          the stream broke are still delivered alongside. *)
}

val read_step : _ t -> read_result
(** One read of at most 64 KB ([`Retry] comes back as an empty, open
    result) followed by an incremental decode of everything buffered.
    Nonblocking on a nonblocking descriptor; on a blocking one it waits
    for the next bytes. *)

val write_step : 'tag t -> [ `Sent of 'tag list | `Closed ]
(** Write queued frames as far as the socket accepts right now.
    [`Sent tags] lists the tags of frames {e fully} flushed this step,
    oldest first; [`Closed] means the peer is gone (EPIPE/ECONNRESET). *)
