(** Page-template induction from two or more example pages
    (paper Section 3.1).

    The page template is the content shared by all pages and invariant from
    page to page. Following the paper, a token can only be part of the
    template if it appears {e exactly once} on every page (tokens repeated
    within a page — such as the tags of a multi-row table — belong to the
    table template, not the page template). The template is the longest
    subsequence of such tokens common to all pages.

    This construction also reproduces the paper's documented failure mode:
    entry enumerators ("1.", "2.", ...) appear once per page, enter the
    template, and fragment the table into per-row slots (notes "a"/"b" in
    Table 4). *)

open Tabseg_token

type t
(** An induced page template. *)

type page
(** A page indexed for induction: its tokens and, per template key, the
    position of the key's only occurrence or the fact that it repeats. The
    index is built the first time an induction reads it; a caller that
    induces over the same page more than once (the stream engine's head
    pages) builds it once by keeping the [page]. Because the index is
    built on demand, a [page] must not be shared between domains. *)

val page : Token.t array -> page
val tokens : page -> Token.t array

val induce_pages : page list -> t
(** [induce_pages pages] builds the template from at least one page (a
    single page yields the degenerate template in which every unique token
    is template, which is rarely useful — callers should supply two or more
    pages). The first page fixes the order of the keys. *)

val induce : Token.t array list -> t
(** [induce pages] is [induce_pages (List.map page pages)]. *)

val eligible : page list -> int list
(** The positions on the first page, ascending, of the tokens eligible for
    the template of [pages]: those that occur exactly once on every page,
    in the same context, with eligible word neighbors. The template is
    their longest common subsequence across the pages. *)

val keys : t -> string list
(** The template token keys, in page order. *)

val size : t -> int

val match_positions : t -> Token.t array -> int array option
(** [match_positions t page] locates each template token in [page].
    [None] if some template token does not occur exactly once in [page]
    or the occurrences are not in template order (the page does not fit the
    template). *)

val slots : t -> Token.t array -> Slot.t list
(** The maximal token ranges of [page] strictly between consecutive template
    tokens (plus the prefix before the first and the suffix after the last).
    Empty ranges are omitted. If the page does not fit the template, the
    single whole-page slot is returned. *)

val page_slots : t -> page -> Slot.t list
(** {!slots} of an indexed page, reading its index. *)

val covers_words : t -> Token.t array -> int
(** Number of the page's word tokens that are part of the template — used by
    template-quality diagnostics. *)

val pp : Format.formatter -> t -> unit
