module Service = Tabseg_serve.Service
module Crc32 = Tabseg_store.Crc32

(* v2: Hello reports the worker's static capacity (jobs, pool queue
   capacity) and Pong carries a live load report (pool inflight and
   queue depth) — the gauges the master's adaptive affinity and
   load-shedding decisions read.
   v3: streaming — Stream_request asks for typed partial-result frames:
   one Record_frame per record as its detail evidence completes, then a
   Stream_done carrying the same response a Request would have produced.
   Frames of one request are strictly ordered; frames of different
   requests may interleave (seq disambiguates).
   v4: the frame-length cap is part of the protocol contract — an
   oversized length header is the typed Frame_too_large error (not a
   CRC mismatch), and the cap dropped to 128 MiB. Both ends must agree
   on the cap or one side's legal frame is the other side's attack, so
   the change is a version bump.
   v5: Request and Stream_request (and the daemon's Submit and
   Submit_stream) carry no fault field: nothing a peer sends chooses a
   sleep or a path. Pong carries only its token: a worker reads a Ping
   only between requests, so it has no live load to report.
   v6: Response and Stream_done carry a Service.reply, the result as
   the body the worker's memo entry keeps (its Marshal payload), in
   place of the decoded result; the master forwards the body unread,
   and the daemon's Reply carries the same bytes.
   v7: Hello carries no jobs or queue_capacity: a worker runs its
   requests one at a time, on no pool. Service.error, in a Response
   here and in the daemon's Service_error, has no Overloaded and no
   Deadline_exceeded.
   v8: the streaming frames are gone (Stream_request, Record_frame,
   Stream_done, and the daemon's Submit_stream and Reply_record): a
   served request's records come only in its reply. *)
let protocol_version = 8
let magic = "TSGW"
let header_size = 16 (* magic + version + crc + length *)

(* A frame bigger than this is never real — a wedged or hostile peer
   cannot make the receiver allocate unboundedly. Enforced before any
   payload allocation in decode_frame and read_message, and by the
   daemon edge on its listener. *)
let max_payload = 1 lsl 27

type message =
  | Hello of { pid : int; role : string }
  | Request of { seq : int; request : Service.request }
  | Response of { seq : int; reply : Service.reply }
  | Ping of int
  | Pong of int
  | Shutdown

type decode_error =
  | Bad_magic
  | Bad_version of int
  | Bad_crc
  | Frame_too_large of int
  | Bad_payload of string

let decode_error_message = function
  | Bad_magic -> "bad frame magic (not a gateway socket?)"
  | Bad_version v -> Printf.sprintf "protocol version %d (expected %d)" v
                       protocol_version
  | Bad_crc -> "frame checksum mismatch"
  | Frame_too_large len ->
    Printf.sprintf "frame length %d exceeds max_payload %d" len max_payload
  | Bad_payload e -> "frame payload failed to unmarshal: " ^ e

let u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let set_u32 bytes off v = Bytes.set_int32_be bytes off (Int32.of_int v)

(* The framing layer proper is payload-agnostic: [frame_payload] and
   [decode_frame] move opaque byte strings, and every protocol that
   rides this transport (master↔worker RPC here, the daemon's client
   edge in [Tabseg_daemon.Protocol]) supplies its own payload codec on
   top. One header format, one CRC, one incremental decoder. *)

let frame_payload payload =
  let len = String.length payload in
  let frame = Bytes.create (header_size + len) in
  Bytes.blit_string magic 0 frame 0 4;
  set_u32 frame 4 protocol_version;
  set_u32 frame 8 (Crc32.string payload 0 len);
  set_u32 frame 12 len;
  Bytes.blit_string payload 0 frame header_size len;
  Bytes.unsafe_to_string frame

let magic_word = u32 magic 0

(* The payload length a complete header at [off] announces, once its
   magic, version and length cap have checked out. *)
let header_length buffer off =
  if u32 buffer off <> magic_word then Error Bad_magic
  else begin
    let version = u32 buffer (off + 4) in
    if version <> protocol_version then Error (Bad_version version)
    else begin
      let len = u32 buffer (off + 12) in
      if len > max_payload then Error (Frame_too_large len) else Ok len
    end
  end

let decode_frame ?(off = 0) ?stop buffer =
  let available = Option.value stop ~default:(String.length buffer) - off in
  if available < header_size then `Need_more
  else
    match header_length buffer off with
    | Error e -> `Error e
    | Ok len when available < header_size + len -> `Need_more
    | Ok len ->
      if Crc32.string buffer (off + header_size) len <> u32 buffer (off + 8)
      then `Error Bad_crc
      else
        `Frame (String.sub buffer (off + header_size) len,
                off + header_size + len)

let frame_size buffer =
  if String.length buffer < header_size then None
  else
    match header_length buffer 0 with
    | Ok len -> Some (header_size + len)
    | Error _ -> None

let encode message = frame_payload (Marshal.to_string message [])

let decode_payload payload =
  match Marshal.from_string payload 0 with
  | message -> Ok (message : message)
  | exception e -> Error (Bad_payload (Printexc.to_string e))

let decode ?(off = 0) buffer =
  match decode_frame ~off buffer with
  | `Need_more -> `Need_more
  | `Error e -> `Error e
  | `Frame (payload, next) ->
    (match decode_payload payload with
     | Ok message -> `Msg (message, next)
     | Error e -> `Error e)

let rec really_read fd bytes pos len =
  if len > 0 then begin
    match Unix.read fd bytes pos len with
    | 0 -> raise End_of_file
    | n -> really_read fd bytes (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      really_read fd bytes pos len
  end

let read_message fd =
  match
    let header = Bytes.create header_size in
    really_read fd header 0 header_size;
    let header = Bytes.unsafe_to_string header in
    if String.sub header 0 4 <> magic then Error (`Decode Bad_magic)
    else begin
      let version = u32 header 4 in
      if version <> protocol_version then
        Error (`Decode (Bad_version version))
      else begin
        let crc = u32 header 8 in
        let len = u32 header 12 in
        if len > max_payload then Error (`Decode (Frame_too_large len))
        else begin
          let payload = Bytes.create len in
          really_read fd payload 0 len;
          let payload = Bytes.unsafe_to_string payload in
          if Crc32.string payload 0 len <> crc then Error (`Decode Bad_crc)
          else
            match Marshal.from_string payload 0 with
            | message -> Ok message
            | exception e ->
              Error (`Decode (Bad_payload (Printexc.to_string e)))
        end
      end
    end
  with
  | result -> result
  | exception End_of_file -> Error `Eof
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    Error `Eof

let write_message fd message =
  let frame = encode message in
  let bytes = Bytes.unsafe_of_string frame in
  let len = Bytes.length bytes in
  let rec go pos =
    if pos < len then
      match Unix.write fd bytes pos (len - pos) with
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
  in
  go 0

(* ------------------- select-loop building blocks -------------------- *)

(* The nonblocking single steps a select loop is allowed to use (the
   TS004 rule bans raw Unix.read/Unix.write/Unix.sleepf there): every
   transient condition — EINTR, EAGAIN — comes back as [`Retry] for the
   next select round instead of stalling or raising mid-loop, and a
   peer death comes back as a value, never as a signal-driven surprise. *)

let read_nonblock fd bytes off len =
  match Unix.read fd bytes off len with
  | 0 -> `Eof
  | n -> `Data n
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    `Retry
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    `Broken

let write_nonblock fd bytes off len =
  match Unix.write fd bytes off len with
  | n -> `Wrote n
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    `Retry
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
    `Broken

(* EINTR-safe sleep: a signal (SIGCHLD from a dying worker, the drain
   SIGTERM) wakes [Unix.sleepf] early; resume until the full duration
   has elapsed. *)
let sleep_s duration =
  let until = Unix.gettimeofday () +. duration in
  let rec go () =
    let remaining = until -. Unix.gettimeofday () in
    if remaining > 0. then begin
      (try Unix.sleepf remaining
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()
