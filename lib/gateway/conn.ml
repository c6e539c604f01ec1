type 'tag t = {
  fd : Unix.file_descr;
  mutable in_buf : bytes;  (* inbound bytes; unparsed: [in_off, in_end) *)
  mutable in_off : int;
  mutable in_end : int;
  outbox : (string * 'tag option) Queue.t;
  mutable head_off : int;  (* bytes of the head frame already written *)
}

let create fd =
  {
    fd;
    in_buf = Bytes.empty;
    in_off = 0;
    in_end = 0;
    outbox = Queue.create ();
    head_off = 0;
  }

let fd t = t.fd
let send ?tag t frame = Queue.push (frame, tag) t.outbox
let pending_output t = not (Queue.is_empty t.outbox)

type close_reason =
  | Eof
  | Reset
  | Protocol of Wire.decode_error

let close_reason_message = function
  | Eof -> "socket closed"
  | Reset -> "connection reset"
  | Protocol e -> "protocol error on socket: " ^ Wire.decode_error_message e

type read_result = {
  frames : string list;
  bytes_read : int;
  closed : close_reason option;
}

(* One read asks for at most this much — also the most [Unix.read]
   moves per call — and a drained buffer up to this size is kept. *)
let read_size = 1 lsl 16

(* Make room at the buffer's tail for the next read. Unparsed bytes are
   at most one partial frame, so sliding them down copies each byte at
   most once (it leaves [in_off = 0] until that frame is consumed), and
   growth doubles: a frame of n bytes costs O(n) copying however many
   reads deliver it. Growth stops at the end of a frame whose header
   has passed its checks; the buffer grows with the bytes that arrived,
   never to what a header merely claims. *)
let reserve t =
  let cap = Bytes.length t.in_buf in
  let live = t.in_end - t.in_off in
  if t.in_off > 0 && cap - t.in_end < read_size then begin
    Bytes.blit t.in_buf t.in_off t.in_buf 0 live;
    t.in_off <- 0;
    t.in_end <- live
  end
  else if t.in_end = cap then begin
    (* full, and [in_off = 0]: the buffer holds one partial frame *)
    let grown = max read_size (2 * cap) in
    let grown =
      match Wire.frame_size (Bytes.unsafe_to_string t.in_buf) with
      | Some size when size > cap -> min grown size
      | _ -> grown
    in
    let buf = Bytes.create grown in
    Bytes.blit t.in_buf 0 buf 0 live;
    t.in_buf <- buf
  end

(* Decode in place from the live region; the payloads are the only
   copies. A drained buffer restarts at offset 0, and one grown past
   [read_size] for a large frame is dropped. *)
let rec drain_frames t acc =
  match
    Wire.decode_frame ~off:t.in_off ~stop:t.in_end
      (Bytes.unsafe_to_string t.in_buf)
  with
  | `Need_more ->
    if t.in_off = t.in_end then begin
      t.in_off <- 0;
      t.in_end <- 0;
      if Bytes.length t.in_buf > read_size then t.in_buf <- Bytes.empty
    end;
    (List.rev acc, None)
  | `Error e -> (List.rev acc, Some (Protocol e))
  | `Frame (payload, next) ->
    t.in_off <- next;
    drain_frames t (payload :: acc)

let read_step t =
  reserve t;
  let room = min read_size (Bytes.length t.in_buf - t.in_end) in
  match Wire.read_nonblock t.fd t.in_buf t.in_end room with
  | `Retry -> { frames = []; bytes_read = 0; closed = None }
  | `Eof -> { frames = []; bytes_read = 0; closed = Some Eof }
  | `Broken -> { frames = []; bytes_read = 0; closed = Some Reset }
  | `Data n ->
    t.in_end <- t.in_end + n;
    let frames, closed = drain_frames t [] in
    { frames; bytes_read = n; closed }

let write_step t =
  let sent = ref [] in
  let outcome = ref `More in
  while !outcome = `More do
    if Queue.is_empty t.outbox then outcome := `Done
    else begin
      let frame, tag = Queue.peek t.outbox in
      let bytes = Bytes.unsafe_of_string frame in
      let len = Bytes.length bytes in
      match Wire.write_nonblock t.fd bytes t.head_off (len - t.head_off) with
      | `Wrote n ->
        t.head_off <- t.head_off + n;
        if t.head_off >= len then begin
          ignore (Queue.pop t.outbox);
          t.head_off <- 0;
          match tag with Some tag -> sent := tag :: !sent | None -> ()
        end
      | `Retry -> outcome := `Done
      | `Broken -> outcome := `Broken
    end
  done;
  match !outcome with
  | `Broken -> `Closed
  | _ -> `Sent (List.rev !sent)
