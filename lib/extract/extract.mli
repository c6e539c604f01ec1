(** Extracts: the contiguous separator-free token runs of the table slot
    (paper Section 3.2) — in practice, all visible strings in the table. *)

open Tabseg_token

type t = {
  id : int;  (** ordinal among the slot's extracts, in stream order *)
  words : string list;  (** the visible tokens, in order; never empty *)
  text : string;  (** words joined with single spaces *)
  start_index : int;  (** token index of the first word in the list page *)
  stop_index : int;  (** token index one past the last word *)
  types : int;  (** union of the words' {!Token_type} bitmasks *)
  first_types : int;  (** {!Token_type} bitmask of the first word *)
}

val of_slot : Tabseg_template.Slot.t -> t list
(** Split a slot into extracts: maximal runs of word tokens containing no
    separator token. *)

val of_tokens : Token.t array -> t list
(** Same, over a whole token stream. *)

val pp : Format.formatter -> t -> unit
