(* Segment-log store. See store.mli for the design contract.

   On-disk layout of the one segment file:

     header    "TABSTORE" + u32be format version        (12 bytes)
     record*   "TSRC" + u32be crc + u32be klen + u32be vlen
               + key + value                            (16 + klen + vlen)

   The CRC ({!Crc32}, shared with the gateway's wire frames) covers
   everything from klen to the end of the value, so a record is either
   intact or detectably damaged; the magic gives scan a frame to
   resynchronise on after damage. *)

module Lockcheck = Tabseg_lockcheck.Lockcheck

type role = Writer | Reader

type config = {
  capacity_mb : int;
  sync_on_put : bool;
  auto_compact : bool;
  offload : bool;
}

let default_config =
  { capacity_mb = 128; sync_on_put = false; auto_compact = true; offload = true }

exception Not_a_store of string

let format_version = 1
let header_magic = "TABSTORE"
let header_size = String.length header_magic + 4 (* 12 *)
let record_magic = "TSRC"
let record_header = 16
let segment_name = "current.seg"
let lock_name = "LOCK"
let compact_name = "compact.tmp"

(* Reader offload queues: "offload-<pid>-<n>.queue" while a reader owns
   it, renamed to ".folding" once the writer claims it. The <n> keeps
   two reader handles in one process off each other's file. *)
let offload_prefix = "offload-"
let offload_suffix = ".queue"
let folding_suffix = ".folding"
let offload_counter = Atomic.make 0

(* A key longer than this, or a value longer than this, is never a real
   record — scan uses the bounds to reject garbage lengths quickly. *)
let max_klen = 1 lsl 20
let max_vlen = 1 lsl 30

(* --------------------------- small helpers -------------------------- *)

let u32 bytes off = Int32.to_int (Bytes.get_int32_be bytes off) land 0xffffffff
let set_u32 bytes off v = Bytes.set_int32_be bytes off (Int32.of_int v)

let rec mkdir_p dir =
  if dir = "" || Sys.file_exists dir then ()
  else begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_exact fd ~off ~len =
  let buf = Bytes.create len in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go pos =
    if pos < len then begin
      let n = Unix.read fd buf pos (len - pos) in
      if n = 0 then raise End_of_file;
      go (pos + n)
    end
  in
  go 0;
  buf

let write_exact fd ~off bytes =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let len = Bytes.length bytes in
  let rec go pos =
    if pos < len then go (pos + Unix.write fd bytes pos (len - pos))
  in
  go 0

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd

let encode_record ~key ~value =
  let klen = String.length key and vlen = String.length value in
  let bytes = Bytes.create (record_header + klen + vlen) in
  Bytes.blit_string record_magic 0 bytes 0 4;
  set_u32 bytes 8 klen;
  set_u32 bytes 12 vlen;
  Bytes.blit_string key 0 bytes record_header klen;
  Bytes.blit_string value 0 bytes (record_header + klen) vlen;
  set_u32 bytes 4 (Crc32.bytes bytes 8 (8 + klen + vlen));
  bytes

let encode_header () =
  let bytes = Bytes.create header_size in
  Bytes.blit_string header_magic 0 bytes 0 (String.length header_magic);
  set_u32 bytes (String.length header_magic) format_version;
  bytes

(* --------------------- in-process writer registry ------------------- *)

(* POSIX [lockf] locks are per process: a second handle in the same
   process would "acquire" the same lock. This registry makes two
   handles in one process exclude each other the same way two processes
   do. *)
let process_locks : (string, unit) Hashtbl.t = Hashtbl.create 8
[@@tabseg.allow "global-mutable-state"
    "process-wide by design: the writer registry must span every handle \
     in the process; all access goes through process_locks_mutex below"]

let process_locks_mutex = Lockcheck.create ~name:"store.process_locks" ()

let try_register_writer path =
  Lockcheck.protect process_locks_mutex (fun () ->
      let free = not (Hashtbl.mem process_locks path) in
      if free then Hashtbl.replace process_locks path ();
      free)

let unregister_writer path =
  Lockcheck.protect process_locks_mutex (fun () ->
      Hashtbl.remove process_locks path)

(* ------------------------------ handles ----------------------------- *)

type entry = {
  e_off : int;  (* absolute file offset of the record frame *)
  e_klen : int;
  e_vlen : int;
  e_seq : int;  (* append order; compaction evicts lowest first *)
}

let entry_size e = record_header + e.e_klen + e.e_vlen

type t = {
  t_dir : string;
  real_dir : string;  (* realpath, the process-registry key *)
  cfg : config;
  t_role : role;
  lock_fd : Unix.file_descr option;
  mutex : Lockcheck.t;
  mutable fd : Unix.file_descr;
  mutable index : (string, entry) Hashtbl.t;
  mutable file_bytes : int;  (* logical end of the scanned/written log *)
  mutable live_bytes : int;
  mutable next_seq : int;
  mutable ino : int;
  mutable closed : bool;
  (* reader-side write offload: this handle's queue file, opened lazily
     at the first queued put *)
  offload_path : string option;  (* readers with offload enabled only *)
  mutable offload_fd : (Unix.file_descr * int (* inode *)) option;
  (* statistics (cumulative over the handle's lifetime) *)
  mutable s_gets : int;
  mutable s_hits : int;
  mutable s_puts : int;
  mutable s_put_rejected : int;
  mutable s_offload_queued : int;
  mutable s_offload_folded : int;
  mutable s_appended_bytes : int;
  mutable s_read_bytes : int;
  mutable s_compactions : int;
  mutable s_corrupt_dropped : int;
  mutable s_truncated_bytes : int;
}

let capacity_bytes t = t.cfg.capacity_mb * 1024 * 1024
let segment_path t = Filename.concat t.t_dir segment_name

let with_lock t f = Lockcheck.protect t.mutex f

let ensure_open t = if t.closed then invalid_arg "Tabseg_store.Store: closed"

let index_add t ~key entry =
  (match Hashtbl.find_opt t.index key with
  | Some old -> t.live_bytes <- t.live_bytes - entry_size old
  | None -> ());
  Hashtbl.replace t.index key entry;
  t.live_bytes <- t.live_bytes + entry_size entry

(* Walk the intact records of a byte region, resynchronising on the
   next frame magic after damage. [f] sees each record's offset and
   lengths. Returns the offset just past the last intact record (the
   rest is an unparseable tail) and the number of damaged stretches
   skipped. Shared by the segment scan and the offload-queue fold. *)
let iter_region buf ~f =
  let len = Bytes.length buf in
  let find_magic from =
    let rec go i =
      if i + 4 > len then None
      else if
        Bytes.get buf i = 'T'
        && Bytes.get buf (i + 1) = 'S'
        && Bytes.get buf (i + 2) = 'R'
        && Bytes.get buf (i + 3) = 'C'
      then Some i
      else go (i + 1)
    in
    go from
  in
  let valid_at pos =
    if pos + record_header > len then None
    else if Bytes.sub_string buf pos 4 <> record_magic then None
    else begin
      let crc = u32 buf (pos + 4) in
      let klen = u32 buf (pos + 8) in
      let vlen = u32 buf (pos + 12) in
      if klen > max_klen || vlen > max_vlen then None
      else if pos + record_header + klen + vlen > len then None
      else if Crc32.bytes buf (pos + 8) (8 + klen + vlen) <> crc then None
      else Some (klen, vlen)
    end
  in
  let pos = ref 0 in
  let last_good = ref 0 in
  let damaged = ref 0 in
  let continue = ref true in
  while !continue do
    if !pos >= len then continue := false
    else
      match valid_at !pos with
      | Some (klen, vlen) ->
        f ~pos:!pos ~klen ~vlen;
        pos := !pos + record_header + klen + vlen;
        last_good := !pos
      | None -> (
        match find_magic (!pos + 1) with
        | Some next ->
          incr damaged;
          pos := next
        | None -> continue := false)
  done;
  (!last_good, !damaged)

(* Scan the byte region [base, base + |buf|) of the file. Valid records
   enter the index; damaged ones are skipped by searching for the next
   record magic (the skipped record stays as garbage until compaction).
   Returns the absolute offset just past the last valid record. *)
let scan_region t buf ~base =
  let good_end, damaged =
    iter_region buf ~f:(fun ~pos ~klen ~vlen ->
        let key = Bytes.sub_string buf (pos + record_header) klen in
        index_add t ~key
          { e_off = base + pos; e_klen = klen; e_vlen = vlen;
            e_seq = t.next_seq };
        t.next_seq <- t.next_seq + 1)
  in
  t.s_corrupt_dropped <- t.s_corrupt_dropped + damaged;
  base + good_end

(* (Re)build the index from the file. The writer truncates a torn tail
   so the next append lands on a clean frame boundary; readers leave the
   file alone and simply stop indexing at the last intact record. *)
let load t =
  t.index <- Hashtbl.create 1024;
  t.live_bytes <- 0;
  t.next_seq <- 0;
  let st = Unix.fstat t.fd in
  t.ino <- st.Unix.st_ino;
  let size = st.Unix.st_size in
  if size = 0 then
    if t.t_role = Writer then begin
      write_exact t.fd ~off:0 (encode_header ());
      Unix.fsync t.fd;
      t.file_bytes <- header_size
    end
    else t.file_bytes <- 0 (* no header yet; refresh will retry *)
  else if size < header_size then
    if t.t_role = Writer then begin
      (* a crash while writing the very first header *)
      Unix.ftruncate t.fd 0;
      t.s_truncated_bytes <- t.s_truncated_bytes + size;
      write_exact t.fd ~off:0 (encode_header ());
      Unix.fsync t.fd;
      t.file_bytes <- header_size
    end
    else t.file_bytes <- 0
  else begin
    let header = read_exact t.fd ~off:0 ~len:header_size in
    if
      Bytes.sub_string header 0 (String.length header_magic) <> header_magic
      || u32 header (String.length header_magic) <> format_version
    then
      raise
        (Not_a_store
           (Printf.sprintf "%s: not a tabseg store segment" (segment_path t)));
    let body = read_exact t.fd ~off:header_size ~len:(size - header_size) in
    let good_end = scan_region t body ~base:header_size in
    if good_end < size && t.t_role = Writer then begin
      Unix.ftruncate t.fd good_end;
      t.s_truncated_bytes <- t.s_truncated_bytes + (size - good_end)
    end;
    t.file_bytes <- good_end
  end

(* Copy live, still-verifiable entries (oldest evicted first when over
   budget) into a side segment, fsync, atomically rename it over the old
   one. The descriptor of the side file survives the rename — it simply
   becomes the descriptor of [current.seg]. *)
let compact_locked t =
  if t.t_role <> Writer then ()
  else begin
    let entries = Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.index [] in
    let entries =
      List.sort (fun (_, a) (_, b) -> compare a.e_seq b.e_seq) entries
    in
    (* Evict down to 3/4 of the budget, not the budget itself: without
       the headroom, a store sitting at capacity would re-compact on
       every single append. *)
    let target = capacity_bytes t - (capacity_bytes t / 4) in
    let total = List.fold_left (fun s (_, e) -> s + entry_size e) 0 entries in
    let rec evict total = function
      | (_, e) :: rest when total > target -> evict (total - entry_size e) rest
      | kept -> kept
    in
    let kept = evict total entries in
    let tmp_path = Filename.concat t.t_dir compact_name in
    let tmp_fd =
      Unix.openfile tmp_path
        [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
        0o644
    in
    match
      write_exact tmp_fd ~off:0 (encode_header ());
      let new_index = Hashtbl.create (List.length kept * 2) in
      let off = ref header_size in
      let seq = ref 0 in
      List.iter
        (fun (key, e) ->
          match read_exact t.fd ~off:e.e_off ~len:(entry_size e) with
          | exception _ -> t.s_corrupt_dropped <- t.s_corrupt_dropped + 1
          | buf ->
            if Crc32.bytes buf 8 (8 + e.e_klen + e.e_vlen) <> u32 buf 4 then
              t.s_corrupt_dropped <- t.s_corrupt_dropped + 1
            else begin
              write_exact tmp_fd ~off:!off buf;
              Hashtbl.replace new_index key
                { e with e_off = !off; e_seq = !seq };
              off := !off + entry_size e;
              incr seq
            end)
        kept;
      Unix.fsync tmp_fd;
      Unix.rename tmp_path (segment_path t);
      fsync_dir t.t_dir;
      (new_index, !off, !seq)
    with
    | new_index, end_off, seq ->
      Unix.close t.fd;
      t.fd <- tmp_fd;
      t.index <- new_index;
      t.file_bytes <- end_off;
      t.live_bytes <- end_off - header_size;
      t.next_seq <- seq;
      t.ino <- (Unix.fstat tmp_fd).Unix.st_ino;
      t.s_compactions <- t.s_compactions + 1
    | exception e ->
      (* Failed mid-compaction: the old segment is untouched; drop the
         side file and keep serving from the old state. *)
      Unix.close tmp_fd;
      (try Sys.remove tmp_path with Sys_error _ -> ());
      raise e
  end

(* The writer append path: assumes the lock is held and the handle is a
   writer. Shared by [put] and the offload-queue fold. *)
let put_locked t ~key value =
  if Hashtbl.mem t.index key then
    (* Content-addressed: an existing key already holds these bytes. *)
    true
  else begin
    let size = record_header + String.length key + String.length value in
    if size > capacity_bytes t then begin
      t.s_put_rejected <- t.s_put_rejected + 1;
      false
    end
    else begin
      let record = encode_record ~key ~value in
      write_exact t.fd ~off:t.file_bytes record;
      if t.cfg.sync_on_put then Unix.fsync t.fd;
      index_add t ~key
        {
          e_off = t.file_bytes;
          e_klen = String.length key;
          e_vlen = String.length value;
          e_seq = t.next_seq;
        };
      t.next_seq <- t.next_seq + 1;
      t.file_bytes <- t.file_bytes + size;
      t.s_puts <- t.s_puts + 1;
      t.s_appended_bytes <- t.s_appended_bytes + size;
      if t.cfg.auto_compact && t.file_bytes - header_size > capacity_bytes t
      then compact_locked t;
      true
    end
  end

(* ----------------------- reader write offload ----------------------- *)

(* Append one framed record to this reader's private queue file. The
   file carries the same header and record framing as the segment, so
   the writer's fold reuses the one scanner and torn appends are caught
   the same way. O_APPEND keeps concurrent appends (two handles of one
   process sharing a pid-named file) at record granularity. *)
let offload_append_locked t ~key value =
  let path = Option.get t.offload_path in
  let append_all fd bytes =
    let len = Bytes.length bytes in
    let rec go pos =
      if pos < len then go (pos + Unix.write fd bytes pos (len - pos))
    in
    go 0
  in
  let open_queue () =
    let fd =
      Unix.openfile path
        [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
        0o644
    in
    (try
       if (Unix.fstat fd).Unix.st_size = 0 then
         append_all fd (encode_header ());
       t.offload_fd <- Some (fd, (Unix.fstat fd).Unix.st_ino)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  in
  let fd =
    match t.offload_fd with
    | None -> open_queue ()
    | Some (fd, ino) -> (
      (* The writer claims a queue by renaming it; if ours vanished from
         under its path, the queued records are on their way into the
         log — start a fresh queue. *)
      match Unix.stat path with
      | st when st.Unix.st_ino = ino -> fd
      | _ | (exception Unix.Unix_error _) ->
        Unix.close fd;
        t.offload_fd <- None;
        open_queue ())
  in
  append_all fd (encode_record ~key ~value)

let reader_put_locked t ~key value =
  let size = record_header + String.length key + String.length value in
  if t.cfg.offload && t.offload_path <> None && size <= capacity_bytes t then (
    match offload_append_locked t ~key value with
    | () ->
      t.s_offload_queued <- t.s_offload_queued + 1;
      false
    | exception _ ->
      t.s_put_rejected <- t.s_put_rejected + 1;
      false)
  else begin
    t.s_put_rejected <- t.s_put_rejected + 1;
    false
  end

(* Writer side: fold every reader queue into the log. Each queue is
   claimed by renaming it to ".folding" first — the rename is atomic, so
   a reader appending concurrently either lands its record before the
   claim (folded now) or notices the vanished path at its next append
   and starts a fresh queue (folded at the next tick). A crash between
   claim and unlink leaves a ".folding" file that the next fold replays;
   re-folding is idempotent because folding an existing key is a no-op. *)
let fold_offload_locked t =
  if t.t_role <> Writer then ()
  else begin
    let names =
      match Sys.readdir t.t_dir with
      | names -> Array.to_list names
      | exception Sys_error _ -> []
    in
    let claimed =
      List.filter_map
        (fun name ->
          if not (String.starts_with ~prefix:offload_prefix name) then None
          else if Filename.check_suffix name folding_suffix then
            Some (Filename.concat t.t_dir name)
          else if Filename.check_suffix name offload_suffix then begin
            let path = Filename.concat t.t_dir name in
            let folding = path ^ folding_suffix in
            match Unix.rename path folding with
            | () -> Some folding
            | exception Unix.Unix_error _ -> None
          end
          else None)
        names
    in
    List.iter
      (fun path ->
        (match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
        | exception Unix.Unix_error _ -> ()
        | fd ->
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          let size = (Unix.fstat fd).Unix.st_size in
          if size > header_size then begin
            let header = read_exact fd ~off:0 ~len:header_size in
            if
              Bytes.sub_string header 0 (String.length header_magic)
              = header_magic
              && u32 header (String.length header_magic) = format_version
            then begin
              let body = read_exact fd ~off:header_size ~len:(size - header_size) in
              let _, damaged =
                iter_region body ~f:(fun ~pos ~klen ~vlen ->
                    let key = Bytes.sub_string body (pos + record_header) klen in
                    let fresh = not (Hashtbl.mem t.index key) in
                    let value =
                      Bytes.sub_string body (pos + record_header + klen) vlen
                    in
                    if put_locked t ~key value && fresh then
                      t.s_offload_folded <- t.s_offload_folded + 1)
              in
              t.s_corrupt_dropped <- t.s_corrupt_dropped + damaged
            end
          end);
        try Sys.remove path with Sys_error _ -> ())
      claimed
  end

let open_store ?(config = default_config) ?(readonly = false) dir =
  if config.capacity_mb < 1 then
    invalid_arg "Store.open_store: capacity_mb must be positive";
  mkdir_p dir;
  let real_dir = Unix.realpath dir in
  let role, lock_fd =
    if readonly then (Reader, None)
    else if not (try_register_writer real_dir) then (Reader, None)
    else begin
      let fd =
        Unix.openfile
          (Filename.concat dir lock_name)
          [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ]
          0o644
      in
      match Unix.lockf fd Unix.F_TLOCK 0 with
      | () -> (Writer, Some fd)
      | exception Unix.Unix_error _ ->
        unregister_writer real_dir;
        Unix.close fd;
        (Reader, None)
    end
  in
  let fd =
    Unix.openfile
      (Filename.concat dir segment_name)
      [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ]
      0o644
  in
  let t =
    {
      t_dir = dir;
      real_dir;
      cfg = config;
      t_role = role;
      lock_fd;
      mutex = Lockcheck.create ~name:"store.handle" ();
      fd;
      index = Hashtbl.create 1024;
      file_bytes = 0;
      live_bytes = 0;
      next_seq = 0;
      ino = 0;
      closed = false;
      offload_path =
        (if role = Reader && config.offload then
           Some
             (Filename.concat dir
                (Printf.sprintf "%s%d-%d%s" offload_prefix (Unix.getpid ())
                   (Atomic.fetch_and_add offload_counter 1)
                   offload_suffix))
         else None);
      offload_fd = None;
      s_gets = 0;
      s_hits = 0;
      s_puts = 0;
      s_put_rejected = 0;
      s_offload_queued = 0;
      s_offload_folded = 0;
      s_appended_bytes = 0;
      s_read_bytes = 0;
      s_compactions = 0;
      s_corrupt_dropped = 0;
      s_truncated_bytes = 0;
    }
  in
  (match
     load t;
     if t.t_role = Writer then fold_offload_locked t
   with
  | () -> ()
  | exception e ->
    Unix.close fd;
    (match lock_fd with
    | Some lfd ->
      unregister_writer real_dir;
      Unix.close lfd
    | None -> ());
    raise e);
  t

let role t = t.t_role
let dir t = t.t_dir

let drop_entry t key e =
  Hashtbl.remove t.index key;
  t.live_bytes <- t.live_bytes - entry_size e

let get t key =
  with_lock t @@ fun () ->
  ensure_open t;
  t.s_gets <- t.s_gets + 1;
  match Hashtbl.find_opt t.index key with
  | None -> None
  | Some e -> (
    let size = entry_size e in
    match read_exact t.fd ~off:e.e_off ~len:size with
    | exception _ ->
      drop_entry t key e;
      t.s_corrupt_dropped <- t.s_corrupt_dropped + 1;
      None
    | buf ->
      let intact =
        Bytes.sub_string buf 0 4 = record_magic
        && u32 buf 8 = e.e_klen
        && u32 buf 12 = e.e_vlen
        && Crc32.bytes buf 8 (8 + e.e_klen + e.e_vlen) = u32 buf 4
        && Bytes.sub_string buf record_header e.e_klen = key
      in
      if intact then begin
        t.s_hits <- t.s_hits + 1;
        t.s_read_bytes <- t.s_read_bytes + e.e_vlen;
        Some (Bytes.sub_string buf (record_header + e.e_klen) e.e_vlen)
      end
      else begin
        drop_entry t key e;
        t.s_corrupt_dropped <- t.s_corrupt_dropped + 1;
        None
      end)

let mem t key =
  with_lock t @@ fun () ->
  ensure_open t;
  Hashtbl.mem t.index key

let length t =
  with_lock t @@ fun () ->
  ensure_open t;
  Hashtbl.length t.index

let put t ~key value =
  with_lock t @@ fun () ->
  ensure_open t;
  if t.t_role <> Writer then reader_put_locked t ~key value
  else put_locked t ~key value

let compact t =
  with_lock t @@ fun () ->
  ensure_open t;
  compact_locked t

let refresh t =
  with_lock t @@ fun () ->
  ensure_open t;
  if t.t_role = Writer then fold_offload_locked t
  else
    match Unix.stat (segment_path t) with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
    | st ->
      if
        st.Unix.st_ino <> t.ino
        || st.Unix.st_size < t.file_bytes
        || t.file_bytes < header_size
      then begin
        (* Swapped by a compaction, truncated, or never had a header:
           re-open by path and re-scan from scratch. *)
        let fd =
          Unix.openfile (segment_path t)
            [ Unix.O_RDWR; Unix.O_CLOEXEC ]
            0o644
        in
        Unix.close t.fd;
        t.fd <- fd;
        load t
      end
      else if st.Unix.st_size > t.file_bytes then begin
        let body =
          read_exact t.fd ~off:t.file_bytes
            ~len:(st.Unix.st_size - t.file_bytes)
        in
        t.file_bytes <- scan_region t body ~base:t.file_bytes
      end

let flush t =
  with_lock t @@ fun () ->
  ensure_open t;
  if t.t_role = Writer then Unix.fsync t.fd

let close t =
  with_lock t @@ fun () ->
  if not t.closed then begin
    if t.t_role = Writer then (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    Unix.close t.fd;
    (match t.offload_fd with
    | Some (fd, _) ->
      t.offload_fd <- None;
      Unix.close fd
    | None -> ());
    (match t.lock_fd with
    | Some lfd ->
      unregister_writer t.real_dir;
      Unix.close lfd
    | None -> ());
    t.closed <- true
  end

type stats = {
  entries : int;
  live_bytes : int;
  file_bytes : int;
  gets : int;
  hits : int;
  puts : int;
  put_rejected : int;
  offload_queued : int;
  offload_folded : int;
  appended_bytes : int;
  read_bytes : int;
  compactions : int;
  corrupt_dropped : int;
  truncated_bytes : int;
  role : role;
}

let stats t =
  with_lock t @@ fun () ->
  {
    entries = Hashtbl.length t.index;
    live_bytes = t.live_bytes;
    file_bytes = t.file_bytes;
    gets = t.s_gets;
    hits = t.s_hits;
    puts = t.s_puts;
    put_rejected = t.s_put_rejected;
    offload_queued = t.s_offload_queued;
    offload_folded = t.s_offload_folded;
    appended_bytes = t.s_appended_bytes;
    read_bytes = t.s_read_bytes;
    compactions = t.s_compactions;
    corrupt_dropped = t.s_corrupt_dropped;
    truncated_bytes = t.s_truncated_bytes;
    role = t.t_role;
  }
