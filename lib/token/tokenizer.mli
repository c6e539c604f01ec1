(** Page tokenizer (paper Section 3.1).

    Splits an HTML document into a stream of tokens: each tag is one token;
    visible text is entity-decoded and split on whitespace, with "special"
    punctuation characters (anything outside [.,()-]) additionally split off
    as their own single-character tokens so that they act as field
    separators even without surrounding whitespace (e.g. [a~b]). The
    contents of script and style elements, comments and doctypes produce no
    tokens.

    {!tokenize} makes one pass: it folds {!Tabseg_html.Lexer.scan} straight
    into the token array, with no event list and no attribute values. A
    text run without ['&'] is split in place from the page, the UTF-8
    non-breaking space counting as whitespace; one with an entity is
    decoded first. Each distinct tag's text and kind are made once per page
    ({!Token.tag}), and one-byte ASCII words share their text.
    {!Tabseg_html.Lexer.lex} and {!Tabseg_html.Dom}, which keep attributes,
    serve the crawler's link extraction, the tag-heuristic baseline and
    the vertical-table transposer. *)

val tokenize : string -> Token.t array
(** Tokenize an HTML document. Token [index] fields are consecutive from
    0. *)

val words : Token.t array -> Token.t list
(** The visible (non-tag) tokens of a stream, in order. *)

val visible_text : Token.t array -> string
(** The visible text of the page: word tokens joined with single spaces. *)
