(** In-memory span recorder for the traced benchmark run.

    A span is one timed call into a layer: its name, wall-clock start and
    end, the span that was open when it began (its parent) and the request
    it served. Spans stay in memory while the run measures and are written
    out once, at exit, so recording costs one clock read and one list cons
    per boundary. *)

type span = {
  id : int;  (** 0-based, in start order *)
  parent : int option;  (** the enclosing span *)
  request : int;  (** the request (page, site, message) the span served *)
  name : string;  (** ["layer.operation"], e.g. ["token.tokenize"] *)
  start : float;  (** seconds, [Unix.gettimeofday] clock *)
  stop : float;
}

type t

val create : unit -> t

val span : t -> ?request:int -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f ()] and records it as a child of the innermost
    open span. [request] defaults to the parent's (0 at the root). The span
    is recorded also when [f] raises. *)

val record : t -> string -> start:float -> stop:float -> unit
(** Record an already-timed interval as a child of the innermost open span
    — for stage timings a library reports after the fact. *)

val spans : t -> span list
(** Every recorded span, in start order. *)

val self_times : span list -> (string * float) list
(** Total self time per span name, sorted by name. A span's self time is
    its duration minus the part of it that its children cover (overlapping
    children are counted once; parts of a child outside the parent are
    ignored). *)

val to_json_lines : span list -> string
(** One JSON object per span per line: id, parent, request, name, start,
    stop. *)
