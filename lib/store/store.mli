(** A crash-safe, on-disk, content-addressed key→blob store.

    One store is one directory holding an append-only {e segment log}
    ([current.seg]) of length-prefixed, CRC-32-checksummed records plus
    an advisory lock file. An in-memory index (key → offset/length) is
    rebuilt by scanning the log at open, so there is no separate index
    file to keep consistent — the log {e is} the store.

    Crash safety comes from three properties:

    - every record is framed (magic, CRC over its lengths, key and
      value), so a torn append — the only kind of damage a crashed
      writer can cause — is detected at the next open and the tail is
      truncated back to the last intact record;
    - damage in the {e middle} of the log (bit rot, a flipped byte) is
      skipped by resynchronising on the next record frame: exactly the
      damaged entry is dropped, everything after it is served;
    - compaction writes a fresh segment to the side and swaps it in
      with an atomic [rename], so a crash mid-compaction leaves the old
      segment untouched.

    Sharing: one {e writer} (guarded by an advisory [lockf] lock plus an
    in-process registry, so two handles in one process exclude each
    other too), any number of {e readers}. A process that cannot take
    the write lock degrades to a reader. Readers never modify the
    segment; {!refresh} picks up records appended — or a whole segment
    swapped in by a compaction — since their last scan.

    {e Write offload}: a reader cannot append to the segment, but its
    [put]s are not lost either — each reader appends them to a private
    [offload-<pid>-<n>.queue] file in the store directory, framed
    exactly like segment records.
    The writer {e folds} every queue into the main log when it opens
    the store and on every {!refresh} tick (claiming each queue by
    rename first, so a crash mid-fold re-folds idempotently — folding
    an already-present key is a no-op), then unlinks it. Readers pick
    the folded entries up through their own [refresh] like any other
    append. [put_rejected] stays what it always was: the count of
    drops that did not even queue (oversize records or a queue-file
    write error).

    Keys are arbitrary strings (callers here use content digests);
    values are arbitrary bytes. The store never interprets either: it
    is the codec layer's job ({!Codec}) to version and verify what the
    blobs mean. Re-putting an existing key is a no-op — content
    addressing means the value cannot have changed.

    All operations on one handle are safe to call from several domains
    (a single mutex serialises them). *)

type role =
  | Writer  (** holds the advisory lock; may [put] and [compact] *)
  | Reader  (** another handle holds the lock; [put] is refused *)

type config = {
  capacity_mb : int;
      (** live-data budget; when the log outgrows it a compaction
          rewrites the segment, evicting the oldest entries until the
          survivors fit (default 128) *)
  sync_on_put : bool;
      (** [fsync] after every append; durable but slow (default false —
          the log is always {e consistent} after a crash, this knob
          only bounds how much is {e lost}) *)
}

val default_config : config

exception Not_a_store of string
(** Raised by {!open_store} when the directory's segment file exists
    but does not start with the store header — refusing to scan (or,
    as a writer, ever truncate) a file that was never ours. *)

type t

val open_store : ?config:config -> ?readonly:bool -> string -> t
(** Open (creating the directory and an empty segment if needed) the
    store at [dir]. Tries to take the single-writer lock unless
    [readonly] is set; either way a lock already held elsewhere
    degrades the handle to {!Reader} rather than failing. A writer
    truncates any torn tail it finds; a reader just ignores it. *)

val role : t -> role
val dir : t -> string

val get : t -> string -> string option
(** The blob stored under a key. The record's checksum is re-verified
    on every read; an entry that no longer verifies (bit rot since the
    open) is dropped from the index and reported as a miss. *)

val put : t -> key:string -> string -> bool
(** Append one record. Returns [true] when the key is now present in
    this handle's view (including the no-op re-put of an existing
    key); [false] when it is not — because the record alone exceeds
    the whole capacity budget, or because the handle is a {!Reader}.
    A reader's put is still {e queued} to its offload file (unless the
    queue write fails) for the writer to fold in later; the key only becomes visible through this handle
    after the writer folds and a {!refresh} picks it up. *)

val mem : t -> string -> bool
val length : t -> int

val refresh : t -> unit
(** Readers: pick up appends since the last scan, or re-open and
    re-scan if the segment was swapped (compaction) or truncated under
    us. Writers: fold any reader offload queues into the log and
    unlink them (a writer's view of the segment itself is
    authoritative) — the periodic "refresh tick" a serving layer
    already performs is exactly when folding should happen. *)

val compact : t -> unit
(** Writer only (readers: no-op): copy live, verifiable entries into a
    fresh segment, fsync it, and atomically rename it over the old one.
    When over budget, the oldest entries are evicted first, down to
    three quarters of the budget — the headroom keeps a full store from
    re-compacting on every subsequent append. *)

val flush : t -> unit
(** [fsync] the segment (writer; no-op for readers). *)

val close : t -> unit
(** Flush, release the lock and close descriptors. Idempotent; every
    other operation on a closed handle raises [Invalid_argument]. *)

type stats = {
  entries : int;  (** live keys in the index *)
  live_bytes : int;  (** bytes of live records (frame included) *)
  file_bytes : int;  (** bytes of segment scanned or written so far *)
  gets : int;
  hits : int;
  puts : int;  (** appends actually performed *)
  put_rejected : int;
      (** puts that were dropped outright — oversize, or the offload
          append itself failed; queued puts are counted in
          [offload_queued] instead *)
  offload_queued : int;  (** reader puts appended to the offload queue *)
  offload_folded : int;
      (** offload-queue records this writer folded into the log
          (records whose key was already present fold as no-ops and are
          not counted) *)
  appended_bytes : int;
  read_bytes : int;  (** value bytes served by hits *)
  compactions : int;
  corrupt_dropped : int;
      (** damaged records skipped by resync at scan, plus entries that
          failed re-verification inside {!get} *)
  truncated_bytes : int;  (** torn-tail bytes discarded at open *)
  role : role;
}

val stats : t -> stats
