(** Versioned, digest-verified (de)serialization of the two cacheable
    pipeline artifacts: induced page templates and whole
    {!Tabseg.Api.result} values.

    Every encoded blob carries a magic, a kind byte (template vs
    result), a schema version and an MD5 digest of the payload. Decode
    verifies all four {e before} touching the payload, so a truncated,
    bit-rotted, kind-confused or version-skewed blob comes back as
    [None] — a cache miss — never as an exception or a bogus value.

    A result's payload is also its {!body}: the bytes the serving stack
    forwards from a worker to the client, encoded once and decoded only
    by whoever needs the value. One [Marshal] makes both the body and
    the blob around it.

    Bump {!version} whenever the marshalled shape of [Template.t],
    [Api.result] or anything they reach changes: old blobs then decode
    to [None] and simply get recomputed, which is the only safe
    migration for a cache. *)

val version : int
(** Current schema version stamped into every blob. *)

val encode_template : Tabseg_template.Template.t -> string
val decode_template : string -> Tabseg_template.Template.t option

type body = private string
(** A result's marshalled payload: byte for byte what a result blob
    carries after its prefix. *)

val encode_body : Tabseg.Api.result -> body

val decode_body : body -> Tabseg.Api.result
(** Unmarshal a body. A body carries no digest of its own: call this
    only on bytes that were verified on their way here (a blob's
    digest, a frame's CRC). Raises on bytes that are not a body. *)

val result_blob : body -> string
(** The blob that stores a result, around its body. *)

val decode_result : string -> (Tabseg.Api.result * body) option
(** A verified result blob's value and its body. *)
