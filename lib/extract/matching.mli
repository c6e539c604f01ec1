(** Matching list-page extracts against pages.

    Per the paper (Section 3.2, footnote 1), the string matcher ignores
    intervening separators on the detail page: "FirstName LastName" on the
    list page matches "FirstName <br> LastName" on a detail page. Matching
    is case-sensitive (the paper reports that a case mismatch between list
    and detail values defeats it — Minnesota Corrections).

    A detail page is matched by {!Observation.add_detail}, which indexes
    the unit's extracts once and reads each detail page's words in one
    pass. This module indexes a page for repeated queries instead: the
    "appears on every other list page" filter looks each of a unit's
    extracts up in the same few list pages, and the stream engine indexes
    each of those pages once for all its units. *)

open Tabseg_token

type detail_index
(** Preprocessed page ready for repeated queries. *)

val index_detail : Token.t array -> detail_index
(** Build the searchable view of a page: its non-separator word tokens
    ({!Tokenizer.word_scan_of_tokens}). *)

val contains : detail_index -> string list -> bool
(** [contains idx words]: the word sequence [words] occurs contiguously in
    the page's separator-free word stream. False for [[]]. *)
