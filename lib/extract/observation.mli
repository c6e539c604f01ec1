(** The observation table (paper Table 1 and Table 3): for each extract
    [E_i] of the table slot, the set [D_i] of detail pages on which it was
    observed and the positions of those observations.

    Extracts that appear on {e all} list pages or on {e all} detail pages
    carry no segmentation signal and are dropped (Section 3.2). Each
    filter needs a second page of its kind to mean anything: the list-page
    filter applies only when there is another list page, the detail-page
    filter only when there are at least 2 detail pages — with a single
    detail page, every extract it matches is that one record's evidence.
    Extracts observed on no detail page cannot be constrained and are set
    aside — after segmentation they are attached to the record of the last
    assigned extract preceding them (Section 6.2). *)

open Tabseg_token

type entry = {
  extract : Extract.t;
  pages : int list;  (** [D_i]: detail-page indices, ascending, non-empty *)
  positions : (int * int) list;
      (** (detail page, token position) of every observation *)
}

type t = {
  entries : entry array;  (** the usable extracts, in stream order *)
  extras : Extract.t list;
      (** extracts set aside (no detail match, or filtered as
          uninformative), in stream order *)
  num_details : int;
}

type builder
(** A table under construction: {!start}, one {!add_detail} per detail
    page in record order, then {!finish}. A caller can drop each detail
    page's words as soon as it has been added. *)

val start : Extract.t list -> builder
(** Index the extracts by their first word, once for every detail page. *)

val add_detail : builder -> Tokenizer.word_scan -> unit
(** Match every extract against the next detail page (its index is the
    number of detail pages added before it), in one pass over the page's
    separator-free words: each word is looked up among the extracts' first
    words, and each extract that starts with it is compared on its
    remaining words there. A match records (page, the word's token
    index); an extract's observations come in page order, then in
    ascending position. *)

val finish : ?other_lists:Matching.detail_index list -> builder -> t
(** Apply the filters and freeze the table. [other_lists] are the other
    list pages, for the "appears on all list pages" filter. *)

val build :
  ?other_list_pages:Token.t array list ->
  extracts:Extract.t list ->
  details:Token.t array list ->
  unit ->
  t
(** {!start}, {!add_detail} of each of [details]' words
    ({!Tokenizer.word_scan_of_tokens}), then {!finish}.
    [other_list_pages] enables the "appears on all list pages" filter (the
    extract must also occur on every one of them to be dropped). *)

val candidate_count : t -> int
(** Total number of (extract, candidate record) pairs — the number of
    variables a CSP encoding will create. *)

val pp : Format.formatter -> t -> unit
(** Render the observation table in the style of the paper's Table 1. *)

val pp_positions : Format.formatter -> t -> unit
(** Render the position table in the style of the paper's Table 3. *)
