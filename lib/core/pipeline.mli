(** The shared front half of both segmentation methods (paper Sections
    3.1–3.2): tokenize the pages, induce the page template, locate the table
    slot (falling back to the entire page when the template is poor), cut
    the slot into extracts and build the observation table against the
    detail pages. {!prepare} folds the stage functions over a complete
    input; the stream engine calls the same stages as pages arrive. *)

open Tabseg_token
open Tabseg_template
open Tabseg_extract

type input = {
  list_pages : string list;
      (** raw HTML of the site's list pages; the {e first} one is the page
          to segment, the rest only support template induction and the
          all-list-pages filter. *)
  detail_pages : string list;
      (** raw HTML of the detail pages linked from the first list page, in
          link (= record) order *)
}

type config = {
  min_template_tokens : int;
      (** below this template size the template is deemed a failure
          (default 10) *)
  min_slot_cover : float;
      (** the table slot must hold at least this fraction of all slot words,
          else the template is deemed a failure (default 0.8 — a lower
          value lets a template token that leaked into the data region
          silently truncate the table) *)
}

val default_config : config

type template_cache = {
  find_template : key:string -> Template.t option;
  store_template : key:string -> Template.t -> unit;
}
(** An externally-provided store for induced page templates — the hook a
    serving layer (e.g. [Tabseg_serve.Cache]) uses to amortize template
    induction, the dominant cost of the front half, across requests. The
    key is {!page_set_key} of the raw list pages, so a hit is guaranteed
    to be the template this input would have induced. Implementations
    must be safe to call from several domains. *)

val page_set_key : string list -> string
(** Content address (hex digest) of an {e ordered} list-page set: the
    cache key under which {!prepare} looks up the induced template. *)

type prepared = {
  page : Token.t array;  (** token stream of the list page to segment *)
  table_slot : Slot.t;
  observation : Observation.t;
  notes : Segmentation.note list;
      (** [Template_problem] and/or [Entire_page_used], when applicable *)
  template_size : int;  (** tokens in the induced template; 0 if none *)
}

val tokenize : string -> Token.t array
(** {!Tabseg_token.Tokenizer.tokenize}, timed as [pipeline.tokenize]. *)

val locate :
  ?config:config ->
  ?cached:template_cache * string ->
  Template.page list ->
  Slot.t * Segmentation.note list * int
(** [locate (page :: others)]: the table slot of [page] under the
    template induced over all the pages (timed as [pipeline.template],
    which includes indexing any page not indexed before; skipped when
    [~cached:(cache, key)] holds it), or the whole page with notes a/b
    when the template is poor; then the notes and the template size (0
    when there was nothing to induce from). *)

val scan_words : string -> Tokenizer.word_scan
(** {!Tabseg_token.Tokenizer.scan_words}: a detail page's separator-free
    words and token count, made without its tokens; timed as
    [pipeline.tokenize]. *)

val observe_detail : Observation.builder -> Tokenizer.word_scan -> unit
(** Match one detail page's words into the observation table under
    construction ({!Tabseg_extract.Observation.add_detail}), timed as
    [pipeline.extract]. The words are not retained. *)

val finish_observation :
  other_lists:Matching.detail_index list -> Observation.builder -> Observation.t
(** {!Tabseg_extract.Observation.finish}, timed as [pipeline.extract]. *)

val prepare : ?config:config -> ?template_cache:template_cache -> input -> prepared
(** Run the front half: tokenize the list pages, {!locate}, then
    {!scan_words} and {!observe_detail} one detail page at a time, dropping
    each one's words before the next; no detail page is tokenized. With
    [~template_cache], template induction is skipped when the cache
    already holds the template of this list-page set; the result is
    identical either way.
    @raise Invalid_argument if [list_pages] is empty. *)
