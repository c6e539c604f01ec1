(** The benchmark's result line.

    The last line a run prints is one JSON object with exactly the keys
    [correct], [attempted], [failed] and [metrics]; each metric carries its
    value and its unit. Values are written with as many digits as it takes
    to read them back exactly. *)

type metric = { name : string; value : float; unit_ : string }

val number : float -> string
(** The shortest decimal rendering that reads back as the same float.
    @raise Invalid_argument on nan or an infinity, which JSON cannot
    carry. *)

val json_string : string -> string
(** A JSON string literal (quotes included). *)

val result_line :
  correct:bool -> attempted:int -> failed:int -> metric list -> string
(** The result object, on one line without a trailing newline.
    @raise Invalid_argument on a duplicate metric name or a non-finite
    value. *)
